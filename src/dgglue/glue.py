"""The generalized arrow category of a punctured cube, the glued category,
the canonical comparison functor pi, and the quasi-fully-faithful test.

Hom complexes between component objects are totalizations over the interval
shapes J_ij = {I : {i,j} <= I <= {i..j}}; composition pushes both factors into
the join vertex and carries the Koszul sign (-1)^{|g| |word(f)|}.  X-words
concatenate without signs because of the descending-index order, see
`hypercube`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .complexes import GradedMap, is_quasi_iso
from .dgcat import DgCategory, HomElt, add_bilinear_block
from .hypercube import (DgCube, bimodule_cohomology, bimodule_cube,
                        interval_shape, punctured_shape, t_layout, totalize)
from .linalg import Matrix, mul_kron
from .twisted import TwistedComplex, TwMorphism, tw_hom, _hom_layout, \
    tw_category


class GlueError(ValueError):
    pass


class InternalError(RuntimeError):
    """A broken invariant of the construction: a fault of dgglue, not of its
    input (the CLI exits 2)."""


def _label(i: int, obj) -> str:
    return f"{i}:{obj}"


@dataclass
class GacCategory:
    """The generalized arrow dg category plus summand provenance."""

    cube: DgCube
    category: DgCategory
    pair_cubes: dict = dc_field(default_factory=dict)

    def layout(self, la: str, lb: str, m: int):
        """Summand blocks (I, base_degree, dim, offset) of hom(la, lb)^m."""
        return _layout(self.pair_cubes, la, lb, m)

    def component_of(self, label: str) -> int:
        return _component(label)

    def embed(self, la: str, lb: str, I, elt_deg: int, vec) -> HomElt:
        """Place an A_I-element into the summand I of hom(la, lb)."""
        I = frozenset(I)
        field = self.category.field
        m = elt_deg - len(self._word(la, lb, I))
        total = self.category.hom(la, lb).dim(m)
        out = [field.zero] * total
        for J, a_deg, d, off in self.layout(la, lb, m):
            if J == I and a_deg == elt_deg:
                for r, v in enumerate(vec):
                    out[off + r] = v
                return HomElt(la, lb, m, tuple(out))
        # zero summands are dropped from the layout; only zero data may land
        if all(field.is_zero(v) for v in vec):
            return HomElt(la, lb, m, tuple(out))
        raise GlueError(f"no summand {sorted(I)} in hom({la},{lb})^{m}")

    def _word(self, la, lb, I):
        i = self.component_of(la)
        j = self.component_of(lb)
        return frozenset(range(i, j + 1)) - I


def gac(cube: DgCube) -> GacCategory:
    """Build the generalized arrow dg category of the punctured cube."""
    n = cube.n
    field = cube.field
    comp_objs = {i: cube.vertices[frozenset({i})].objects for i in range(n)}
    labels = [( i, x) for i in range(n) for x in comp_objs[i]]
    objects = [_label(i, x) for i, x in labels]

    pair_cubes = {}
    hom = {}
    for i, x in labels:
        for j, y in labels:
            if i > j:
                continue
            la, lb = _label(i, x), _label(j, y)
            shape = interval_shape({i, j}, set(range(i, j + 1)))
            pc = bimodule_cube(cube, x, y, shape=shape,
                               a_vertex={i}, b_vertex={j},
                               top=set(range(i, j + 1)))
            pair_cubes[(la, lb)] = pc
            hom[(la, lb)] = totalize(pc)

    # comp_fn must not reach the GacCategory, whose category holds comp_fn:
    # without that cycle a dropped Gac is freed at once, collector or not
    def comp_fn(la, lb, lc, deg_i, deg_j):
        i = _component(la)
        j = _component(lb)
        rows = hom.get((la, lc), None)
        rows = rows.dim(deg_i + deg_j) if rows is not None else 0
        nbc = hom.get((lb, lc))
        nbc = nbc.dim(deg_i) if nbc is not None else 0
        nab = hom.get((la, lb))
        nab = nab.dim(deg_j) if nab is not None else 0
        mat = Matrix.zeros(field, rows, nbc * nab)
        if rows == 0 or nbc == 0 or nab == 0:
            return mat
        f_layout = _layout(pair_cubes, la, lb, deg_j)
        tgt_off = {(I, a): off for I, a, d, off
                   in _layout(pair_cubes, la, lc, deg_i + deg_j)}
        for Ig, ag, _, offg in _layout(pair_cubes, lb, lc, deg_i):
            for If, af, df, offf in f_layout:
                J = Ig | If
                base = tgt_off.get((J, ag + af))
                if base is None:
                    continue
                # push both factors to A_J and compose there:
                # C_J(Pf a, Pf b, Pg c) kron(P_g, P_f)
                push_g = cube.push_functor(Ig, J)
                push_f = cube.push_functor(If, J)
                xg, yg = _pair_objs(cube, lb, lc, Ig)
                xf, yf = _pair_objs(cube, la, lb, If)
                block = mul_kron(cube.vertices[J].comp_matrix(
                    push_f.obj_map[xf], push_f.obj_map[yf], push_g.obj_map[yg],
                    ag, af), push_g.hom_matrix(xg, yg, ag),
                    push_f.hom_matrix(xf, yf, af))
                # Koszul sign: g passes the X-word of f
                word_f = frozenset(range(i, j + 1)) - If
                if ag * len(word_f) % 2:
                    block = -block
                add_bilinear_block(mat, block, base, offg, offf, df, nab)
        return mat

    ids = {}
    for i, x in labels:
        comp_cat = cube.vertices[frozenset({i})]
        ids[_label(i, x)] = tuple(comp_cat.ids[x])
    return GacCategory(cube, DgCategory(field, objects, hom, comp_fn, ids),
                       pair_cubes)


def _layout(pair_cubes, la, lb, m):
    cube = pair_cubes.get((la, lb))
    if cube is None:
        return []
    out = []
    off = 0
    for I, a_deg, d in t_layout(cube, m):
        out.append((I, a_deg, d, off))
        off += d
    return out


def _component(label: str) -> int:
    return int(label.split(":", 1)[0])


def _pair_objs(cube: DgCube, la: str, lb: str, I):
    """Objects (V a, V b) of the vertex A_I underlying a hom summand."""
    i = int(la.split(":", 1)[0])
    j = int(lb.split(":", 1)[0])
    x = la.split(":", 1)[1]
    y = lb.split(":", 1)[1]
    return (cube.push_object({i}, x, I), cube.push_object({j}, y, I))


def glue(g: GacCategory, objs: dict) -> DgCategory:
    """tw-category of the generalized arrow category on the named objects."""
    return tw_category(g.category, objs)


def pi_object(g: GacCategory, a) -> TwistedComplex:
    """pi(a): terms V_{n-1-p} a [p], alpha entries (-1)^q identities."""
    cube = g.cube
    n = cube.n
    field = cube.field
    terms = []
    for p in range(n):
        comp = n - 1 - p
        obj = cube.push_object(frozenset(), a, {comp})
        terms.append((_label(comp, obj), p))
    delta = {}
    for p in range(n):
        for q in range(p):
            comp_p, comp_q = n - 1 - p, n - 1 - q
            I = frozenset({comp_p, comp_q})
            amb_obj = cube.push_object(frozenset(), a, I)
            id_vec = cube.vertices[I].ids[amb_obj]
            sgn = field.one if q % 2 == 0 else field.neg(field.one)
            vec = tuple(field.mul(sgn, v) for v in id_vec)
            elt = g.embed(terms[p][0], terms[q][0], I, 0, vec)
            delta[(q, p)] = elt
    return TwistedComplex(g.category, terms, delta)


def pi_morphism(g: GacCategory, f: HomElt, pia: TwistedComplex,
                pib: TwistedComplex) -> TwMorphism:
    """pi(f): the diagonal matrix with entries (-1)^{(n-1-i)|f|} V_i f."""
    cube = g.cube
    n = cube.n
    field = cube.field
    entries = {}
    for p in range(n):
        comp = n - 1 - p
        push = cube.push_functor(frozenset(), frozenset({comp}))
        vf = push.apply(f)
        sgn = field.one if (p * f.degree) % 2 == 0 else field.neg(field.one)
        elt = g.embed(pia.terms[p][0], pib.terms[p][0], frozenset({comp}),
                      f.degree, tuple(field.mul(sgn, v) for v in vf.vec))
        entries[(p, p)] = elt
    return TwMorphism(pia, pib, f.degree, entries)


def pi_comparison_map(g: GacCategory, a, b) -> GradedMap:
    """The chain map A_empty(a, b) -> Hom_Glue(pi a, pi b) induced by pi.

    Its degree-m matrix is diagonal in the tw_hom layout: the (p, p) block is
    (-1)^{pm} times the push to A_{n-1-p} (see `pi_morphism`).
    """
    cube = g.cube
    n = cube.n
    src = cube.initial().hom(a, b)
    pia, pib = pi_object(g, a), pi_object(g, b)
    comps = {}
    for m in src.degrees():
        layout = _hom_layout(pia, pib, m)
        blocks = {}
        for bi, ((q, p), _, _, _) in enumerate(layout):
            if q == p:
                push = cube.push_functor(frozenset(), {n - 1 - p}) \
                    .hom_matrix(a, b, m)
                blocks[(bi, 0)] = -push if p * m % 2 else push
        comps[m] = Matrix.block(cube.field, [d for _, _, d, _ in layout],
                                [src.dim(m)], blocks)
    return GradedMap(src, tw_hom(pia, pib), 0, comps)


def pair_result(kind: str, cube: DgCube, a, b, g: GacCategory = None):
    """Decide one object pair (a, b) of the initial vertex of `cube`.

    kind "acyclic": the cohomology table {degree: dim} of the pair's
    totalized hom-bimodule cube; the cube is acyclic iff every pair's table
    is empty.  kind "qff": {"source", "glue", "isomorphism"}, the cohomology
    tables of A_empty(a, b) and Hom_Glue(pi a, pi b) and whether pi's
    comparison map between them is a quasi-isomorphism; pi is qff iff every
    pair's map is.  `g` is the Gac of `cube`, built here when not given;
    callers deciding several qff pairs pass one.  Raises InternalError when
    the comparison map is not closed.
    """
    if kind == "acyclic":
        return bimodule_cohomology(cube, a, b)
    if g is None:
        g = gac(cube)
    cm = pi_comparison_map(g, a, b)
    if not cm.is_closed():
        raise InternalError("pi comparison map is not closed")
    h_src, h_glue = cm.source.cohomology(), cm.target.cohomology()
    return {"source": h_src, "glue": h_glue,
            "isomorphism": is_quasi_iso(cm, h_src, h_glue)}


def check_qff(cube: DgCube):
    """Decide quasi-full-faithfulness of pi; returns (verdict, report).

    The report maps every object pair of the initial vertex to its
    `pair_result("qff", ...)`.
    """
    g = gac(cube)
    init = cube.initial()
    report = {(a, b): pair_result("qff", cube, a, b, g)
              for a in init.objects for b in init.objects}
    return all(r["isomorphism"] for r in report.values()), report


def hom_iso_check(cube: DgCube, a, b, g: GacCategory = None) -> bool:
    """Build the explicit comparison t(punctured)(a,b)[1] -> Hom(pi a, pi b)[n]
    and verify it is a chain isomorphism fitting over the boundary map."""
    if g is None:
        g = gac(cube)
    n = cube.n
    field = cube.field
    punct = bimodule_cube(cube, a, b, shape=punctured_shape(cube.top))
    T = totalize(punct)
    cm = pi_comparison_map(g, a, b)
    pia, pib = pi_object(g, a), pi_object(g, b)
    T1 = T.shift(1)
    Hn = cm.target.shift(n)

    comps = {}
    for k in T1.degrees():
        mat = Matrix.zeros(field, Hn.dim(k), T1.dim(k))
        tw_off = {(q, p, a_deg): off
                  for (q, p), a_deg, _, off in _hom_layout(pia, pib, k + n)}
        src_off = 0
        for I, a_deg, d in t_layout(punct, k + 1):
            i, j = min(I), max(I)
            p, q = n - 1 - i, n - 1 - j
            gac_deg = (k + n) + q - p
            base = tw_off.get((q, p, gac_deg))
            if base is None:
                raise GlueError("internal: missing tw block in comparison map")
            # offset of summand I inside the Gac hom complex
            inner = None
            for J, a2, d2, off2 in g.layout(pia.terms[p][0], pib.terms[q][0],
                                            gac_deg):
                if J == I and a2 == a_deg:
                    inner = off2
                    break
            if inner is None:
                raise GlueError("internal: missing Gac summand in comparison map")
            exp = (n - i - 1) * a_deg + (n - 1) * len(I) - i
            sgn = field.one if exp % 2 == 0 else field.neg(field.one)
            for r in range(d):
                mat.set(base + inner + r, src_off + r, sgn)
            src_off += d
        comps[k] = mat
    iso = GradedMap(T1, Hn, 0, comps)
    if not (iso.is_closed() and iso.is_iso()):
        return False

    # triangle: the boundary D f = sum_i (-1)^{n-1-i} V_i f, landing in the
    # blocks {i} of T^{m-(n-1)} at base degree m, followed by the comparison
    # map must agree with pi itself: iso_{m-n} @ D_m == pi_m.
    for m in cm.source.degrees():
        layout = t_layout(punct, m - (n - 1))
        blocks = {}
        for bi, (I, a_deg, _) in enumerate(layout):
            if len(I) == 1 and a_deg == m:
                push = cube.push_functor(frozenset(), I).hom_matrix(a, b, m)
                blocks[(bi, 0)] = -push if (n - 1 - min(I)) % 2 else push
        D = Matrix.block(field, [d for _, _, d in layout], [cm.source.dim(m)],
                         blocks)
        if iso.comp(m - n) @ D != cm.comp(m):
            return False
    return True
