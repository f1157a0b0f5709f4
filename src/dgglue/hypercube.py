"""Hypercubes of complexes and of dg categories; totalization t(-).

Sign rule, fixed once for the whole package: words in the odd variables X_l
are ordered by descending index, so concatenation in compositions never
introduces a sign.  Applying the derivation for direction l to the word X_S
gives (-1)^{#{m in S : m > l}}; the internal differential of the summand with
word X_S carries (-1)^{|S|}.  Under these choices t(A) of a 1-cube equals the
mapping cone on the nose, and t of an n-cube equals the iterated cone.

Shapes: a cube may live on any index set `top`, with `shape` a collection of
subsets closed under joins of covers (needed for d^2 = 0); the full power set,
the punctured power set, and the interval shapes of the gluing construction
all qualify.  The complement in the sign bookkeeping is taken against `top`.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import Complex, GradedMap, cone
from .dgcat import (DgCategory, DgFunctor, cats_equal, compose_functors,
                    functors_equal, identity_functor, validate_category,
                    validate_functor)
from .linalg import Matrix


class CubeError(ValueError):
    pass


def subsets(top):
    top = sorted(top)
    out = []
    for r in range(len(top) + 1):
        for c in combinations(top, r):
            out.append(frozenset(c))
    return out


def full_shape(top):
    return frozenset(subsets(top))


def punctured_shape(top):
    return frozenset(s for s in subsets(top) if s)


def interval_shape(base, top):
    base, top = frozenset(base), frozenset(top)
    if not base <= top:
        raise CubeError("interval shape needs base <= top")
    free = sorted(top - base)
    out = []
    for r in range(len(free) + 1):
        for c in combinations(free, r):
            out.append(base | frozenset(c))
    return frozenset(out)


def sign_count(l, word) -> int:
    """Parity exponent for applying the l-th derivation to the word X_word."""
    return sum(1 for m in word if m > l)


def _canon(shape):
    return sorted(shape, key=lambda s: (len(s), tuple(sorted(s))))


class ComplexCube:
    """A cube of complexes with strictly commuting closed degree-zero edges."""

    def __init__(self, field, top, shape, vertices: dict, edges: dict,
                 validate: bool = True):
        self.field = field
        self.top = frozenset(top)
        self.shape = frozenset(frozenset(s) for s in shape)
        self.vertices = {frozenset(k): v for k, v in vertices.items()}
        self.edges = {(frozenset(k), l): e for (k, l), e in edges.items()}
        if set(self.vertices) != self.shape:
            raise CubeError("vertices must be indexed exactly by the shape")
        for (I, l), e in self.edges.items():
            if I not in self.shape or (I | {l}) not in self.shape or l in I:
                raise CubeError(f"edge ({sorted(I)}, {l}) leaves the shape")
        for I in self.shape:
            for l in self.top - I:
                if (I | {l}) in self.shape and (I, l) not in self.edges:
                    raise CubeError(f"missing edge ({sorted(I)}, {l})")
        if validate:
            bad = self.defect()
            if bad:
                raise CubeError(bad)

    def edge(self, I, l) -> GradedMap:
        return self.edges[(frozenset(I), l)]

    def defect(self):
        """First violated strictness condition as a string, or None."""
        for (I, l), e in self.edges.items():
            if e.degree != 0:
                return f"edge ({sorted(I)},{l}) is not degree zero"
            if e.source != self.vertices[I] or e.target != self.vertices[I | {l}]:
                return f"edge ({sorted(I)},{l}) endpoints mismatch"
            if not e.is_closed():
                return f"edge ({sorted(I)},{l}) is not a chain map"
        for I in self.shape:
            for l in sorted(self.top - I):
                for m in sorted(self.top - I):
                    if m <= l:
                        continue
                    J = I | {l, m}
                    if J not in self.shape:
                        continue
                    if (I | {l}) in self.shape and (I | {m}) in self.shape:
                        one = self.edge(I | {l}, m).compose(self.edge(I, l))
                        two = self.edge(I | {m}, l).compose(self.edge(I, m))
                        if one != two:
                            return f"face ({sorted(I)};{l},{m}) does not commute"
                    elif (I | {l}) in self.shape or (I | {m}) in self.shape:
                        return "shape is not closed under joins of covers"
        return None

    def n(self) -> int:
        return len(self.top)


def t_layout(cube: ComplexCube, m: int):
    """Summand blocks ((I, base_degree, dim)) of t(cube)^m in canonical order."""
    out = []
    for I in _canon(cube.shape):
        word = cube.top - I
        a_deg = m + len(word)
        d = cube.vertices[I].dim(a_deg)
        if d:
            out.append((I, a_deg, d))
    return out


def totalize(cube: ComplexCube) -> Complex:
    """The single complex t(cube) with the package sign rule."""
    field = cube.field
    degrees = set()
    for I in cube.shape:
        word_len = len(cube.top - I)
        for k in cube.vertices[I].degrees():
            degrees.add(k - word_len)
    dims = {}
    layouts = {}
    for m in sorted(degrees):
        layout = t_layout(cube, m)
        layouts[m] = layout
        dims[m] = sum(d for _, _, d in layout)
    diffs = {}
    for m in sorted(degrees):
        if not dims.get(m) or not dims.get(m + 1):
            continue
        src_layout, tgt_layout = layouts[m], layouts[m + 1]
        tgt_index = {I: bi for bi, (I, _, _) in enumerate(tgt_layout)}
        blocks = {}
        for bi, (I, a_deg, d) in enumerate(src_layout):
            word = cube.top - I
            v = cube.vertices[I]
            sgn = field.one if len(word) % 2 == 0 else field.neg(field.one)
            mat = v.d(a_deg).scaled(sgn)
            if I in tgt_index and not mat.is_zero():
                blocks[(tgt_index[I], bi)] = mat
            for l in sorted(word):
                J = I | {l}
                if J not in cube.shape or J not in tgt_index:
                    continue
                esgn = field.one if sign_count(l, word) % 2 == 0 else \
                    field.neg(field.one)
                mat = cube.edge(I, l).comp(a_deg).scaled(esgn)
                if not mat.is_zero():
                    key = (tgt_index[J], bi)
                    blocks[key] = blocks[key] + mat if key in blocks else mat
        diffs[m] = Matrix.block(field, [d for _, _, d in tgt_layout],
                                [d for _, _, d in src_layout], blocks)
    return Complex(field, dims, diffs, validate=False)


def check_acyclic_complexcube(cube: ComplexCube) -> bool:
    return totalize(cube).is_acyclic()


def t_of_cube_map(src: ComplexCube, tgt: ComplexCube, comps: dict) -> GradedMap:
    """t applied to a morphism of cubes: blockwise 1 (x) f_I, no signs."""
    comps = {frozenset(k): v for k, v in comps.items()}
    ts, tt = totalize(src), totalize(tgt)
    field = src.field
    out = {}
    for m in ts.degrees():
        src_layout = t_layout(src, m)
        tgt_layout = t_layout(tgt, m)
        tgt_index = {I: bi for bi, (I, _, _) in enumerate(tgt_layout)}
        blocks = {}
        for bi, (I, a_deg, d) in enumerate(src_layout):
            mat = comps[I].comp(a_deg)
            if I in tgt_index and not mat.is_zero():
                blocks[(tgt_index[I], bi)] = mat
        out[m] = Matrix.block(field, [d for _, _, d in tgt_layout],
                              [d for _, _, d in src_layout], blocks)
    return GradedMap(ts, tt, 0, out)


# -- the morphism-of-cubes calculus ----------------------------------------


def as_morphism(cube: ComplexCube):
    """Split a full cube along its last coordinate into (cube0, cube1, comps)."""
    if not cube.top:
        raise CubeError("a 0-cube is not a morphism")
    if cube.shape != full_shape(cube.top):
        raise CubeError("as_morphism needs the full power-set shape")
    last = max(cube.top)
    sub = cube.top - {last}
    v0 = {I: cube.vertices[I] for I in full_shape(sub)}
    v1 = {I: cube.vertices[I | {last}] for I in full_shape(sub)}
    e0 = {(I, l): cube.edge(I, l) for I in full_shape(sub) for l in sub - I}
    e1 = {(I, l): cube.edge(I | {last}, l) for I in full_shape(sub) for l in sub - I}
    cube0 = ComplexCube(cube.field, sub, full_shape(sub), v0, e0, validate=False)
    cube1 = ComplexCube(cube.field, sub, full_shape(sub), v1, e1, validate=False)
    comps = {I: cube.edge(I, last) for I in full_shape(sub)}
    return cube0, cube1, comps


def reassemble(cube0: ComplexCube, cube1: ComplexCube, comps: dict,
               new_coord=None, validate: bool = True) -> ComplexCube:
    """Inverse of as_morphism; `comps` is a morphism of cubes cube0 -> cube1."""
    comps = {frozenset(k): v for k, v in comps.items()}
    if new_coord is None:
        new_coord = max(cube0.top) + 1 if cube0.top else 0
    top = cube0.top | {new_coord}
    vertices = {}
    edges = {}
    for I in full_shape(cube0.top):
        vertices[I] = cube0.vertices[I]
        vertices[I | {new_coord}] = cube1.vertices[I]
        edges[(I, new_coord)] = comps[I]
        for l in cube0.top - I:
            edges[(I, l)] = cube0.edge(I, l)
            edges[(I | {new_coord}, l)] = cube1.edge(I, l)
    return ComplexCube(cube0.field, top, full_shape(top), vertices, edges,
                       validate=validate)


def stack(a: ComplexCube, b: ComplexCube) -> ComplexCube:
    """Stack cubes sharing a face: a's source face must equal b's target face."""
    a0, a1, alpha = as_morphism(a)
    b0, b1, beta = as_morphism(b)
    if not cubes_equal(a0, b1):
        raise CubeError("stack: shared face mismatch")
    comps = {I: alpha[I].compose(beta[I]) for I in beta}
    return reassemble(b0, a1, comps, new_coord=max(a.top), validate=False)


def extend(a: ComplexCube, b: ComplexCube) -> ComplexCube:
    """Extension of a by b (the order matters): an (n+1)-cube.

    Viewing a: A0 -> A1 and b: B0 -> B1 with A1 = B0, the far face is the
    identity cube on B1 and the near face carries the composites.
    """
    a0, a1, alpha = as_morphism(a)
    b0, b1, beta = as_morphism(b)
    if not cubes_equal(a1, b0):
        raise CubeError("extend: target face of a must equal source face of b")
    last = max(a.top)
    idcube = reassemble(b1, b1, {I: GradedMap.identity(b1.vertices[I])
                                 for I in full_shape(b1.top)},
                        new_coord=last, validate=False)
    gamma = {}
    for I in full_shape(a.top):
        if last in I:
            gamma[I] = beta[I - {last}]
        else:
            gamma[I] = beta[I].compose(alpha[I])
    return reassemble(a, idcube, gamma, validate=False)


def cubes_equal(a: ComplexCube, b: ComplexCube) -> bool:
    if a.top != b.top or a.shape != b.shape:
        return False
    for I in a.shape:
        if a.vertices[I] != b.vertices[I]:
            return False
    return all(a.edges[k] == b.edges[k] for k in a.edges)


def relabel_cube(cube: ComplexCube, perm: dict) -> ComplexCube:
    """Relabel coordinates by the bijection `perm` (old -> new)."""
    ren = lambda I: frozenset(perm[x] for x in I)
    return ComplexCube(cube.field, ren(cube.top),
                       {ren(I) for I in cube.shape},
                       {ren(I): v for I, v in cube.vertices.items()},
                       {(ren(I), perm[l]): e for (I, l), e in cube.edges.items()},
                       validate=False)


def t_factorization_check(cube: ComplexCube) -> bool:
    """Verify t(cube) = cone(t(alpha)) through the explicit degreewise map.

    With the package sign rule the identity-blocks map is an equality of
    complexes; we still build it and check chain-map plus bijectivity.
    """
    if not cube.top:
        raise CubeError("needs a cube of dimension >= 1")
    cube0, cube1, comps = as_morphism(cube)
    t_all = totalize(cube)
    talpha = t_of_cube_map(cube0, cube1, comps)
    rhs = cone(talpha)
    last = max(cube.top)
    field = cube.field
    maps = {}
    for m in t_all.degrees():
        lhs_layout = t_layout(cube, m)
        # cone^m = t(cube1)^m (+) t(cube0)^{m+1}
        t1_layout = t_layout(cube1, m)
        t0_layout = t_layout(cube0, m + 1)
        offset1 = {}
        off = 0
        for I, _, d in t1_layout:
            offset1[I] = off
            off += d
        offset0 = {}
        for I, _, d in t0_layout:
            offset0[I] = off
            off += d
        mat = Matrix.zeros(field, rhs.dim(m), t_all.dim(m))
        src_off = 0
        for I, a_deg, d in lhs_layout:
            if last in I:
                tgt_off = offset1[I - {last}]
            else:
                tgt_off = offset0[I]
            for r in range(d):
                mat.set(tgt_off + r, src_off + r, field.one)
            src_off += d
        maps[m] = mat
    iso = GradedMap(t_all, rhs, 0, maps)
    return iso.is_closed() and iso.is_iso()


# -- cubes of dg categories -------------------------------------------------


class DgCube:
    """A full hypercube of dg categories with strictly commuting dg functors."""

    def __init__(self, field, n: int, vertices: dict, edges: dict,
                 validate: bool = True):
        self.field = field
        self.n = n
        self.top = frozenset(range(n))
        self.vertices = {frozenset(k): v for k, v in vertices.items()}
        self.edges = {(frozenset(k), l): e for (k, l), e in edges.items()}
        self._pushes = {}
        if set(self.vertices) != full_shape(self.top):
            raise CubeError("dg cube must have a vertex for every subset")
        for I, l in self.edges:
            if I not in self.vertices or I | {l} not in self.vertices:
                raise CubeError(f"dg edge ({sorted(I)},{l}) joins a missing "
                                f"vertex")
        for I in self.vertices:
            for l in self.top - I:
                if (I, l) not in self.edges:
                    raise CubeError(f"missing dg edge ({sorted(I)},{l})")
        if validate:
            bad = self.defect()
            if bad:
                raise CubeError(bad)

    def edge(self, I, l) -> DgFunctor:
        return self.edges[(frozenset(I), l)]

    def defect(self, deep: bool = False):
        """The first violated strictness condition as a string, or None;
        `deep` also checks every edge functor, then each distinct vertex."""
        for (I, l), e in self.edges.items():
            if not (cats_equal(e.source, self.vertices[I])
                    and cats_equal(e.target, self.vertices[I | {l}])):
                return f"dg edge ({sorted(I)},{l}) endpoints mismatch"
            if deep:
                bad = validate_functor(e)
                if bad:
                    return f"dg edge ({sorted(I)},{l}): {bad[0]}"
        # identity-extended cubes repeat edge functors, hence face composites;
        # a parsed document gives each name its own copy of a repeated functor
        composites = {}

        def composite(g, f):
            key = (_functor_key(g), _functor_key(f))
            if key not in composites:
                composites[key] = compose_functors(g, f)
            return composites[key]

        for I in self.vertices:
            for l in sorted(self.top - I):
                for m in sorted(self.top - I):
                    if m <= l:
                        continue
                    one = composite(self.edge(I | {l}, m), self.edge(I, l))
                    two = composite(self.edge(I | {m}, l), self.edge(I, m))
                    if one is not two and not functors_equal(one, two):
                        return f"dg face ({sorted(I)};{l},{m}) does not strictly commute"
        if deep:
            first = {}      # a vertex of each distinct category
            for I in sorted(self.vertices, key=lambda s: (len(s), sorted(s))):
                first.setdefault(category_key(self.vertices[I]), I)
            for I in first.values():
                if bad := validate_category(self.vertices[I]):
                    return f"vertex {sorted(I)}: {bad[0]}"
        return None

    def initial(self) -> DgCategory:
        return self.vertices[frozenset()]

    def push_object(self, start, obj, I):
        """Image of an object of the vertex `start` along edges adding I - start."""
        start = frozenset(start)
        cur, at = obj, start
        for l in sorted(frozenset(I) - start):
            cur = self.edge(at, l).obj_map[cur]
            at = at | {l}
        return cur

    def push_functor(self, start, I) -> DgFunctor:
        """The composite edge functor from vertex `start` to vertex start | I.

        Edges are taken in increasing coordinate order.  Pushes are cached on
        the cube per (start, I), each the last edge after the cached push one
        step shorter; a one-step push is the edge itself.  Callers only read
        the result (`hom_matrix`, `apply`, `obj_map`).
        """
        start = frozenset(start)
        I = start | frozenset(I)
        push = self._pushes.get((start, I))
        if push is None:
            if I == start:
                push = identity_functor(self.vertices[start])
            else:
                last = max(I - start)
                prev = I - {last}
                push = self.edge(prev, last)
                if prev != start:
                    push = compose_functors(push,
                                            self.push_functor(start, prev))
            self._pushes[(start, I)] = push
        return push


def category_key(cat: DgCategory) -> tuple:
    """Equal for categories sharing their tables, such as the copies `io`
    makes of a category repeated under several names."""
    return (id(cat._hom), id(cat._comp), id(cat.ids), cat.objects)


def _functor_key(f: DgFunctor) -> tuple:
    """Equal for functors sharing their matrices, endpoints and object map,
    such as the copies `io` makes of a functor repeated under several names."""
    return (id(f.hom_maps), id(f.source), id(f.target),
            tuple(f.obj_map.items()))


def bimodule_cube(cube: DgCube, a, b, shape=None, a_vertex=frozenset(),
                  b_vertex=frozenset(), top=None) -> ComplexCube:
    """The cube of hom complexes A_I(V a, V b) with induced edge maps.

    `a` lives in the vertex `a_vertex`, `b` in `b_vertex`; both must be
    contained in every member of the shape (default: the full cube).  `top`
    is the index set against which X-word complements are taken; for the
    interval shapes of the gluing construction it is the maximal member.
    """
    a_vertex, b_vertex = frozenset(a_vertex), frozenset(b_vertex)
    if shape is None:
        shape = full_shape(cube.top)
    shape = frozenset(frozenset(s) for s in shape)
    if top is None:
        top = cube.top
    top = frozenset(top)
    objs = {}
    vertices = {}
    for I in shape:
        xa = cube.push_object(a_vertex, a, I)
        xb = cube.push_object(b_vertex, b, I)
        objs[I] = (xa, xb)
        vertices[I] = cube.vertices[I].hom(xa, xb)
    edges = {}
    for I in shape:
        for l in top - I:
            if (I | {l}) in shape:
                xa, xb = objs[I]
                edges[(I, l)] = cube.edge(I, l).hom_graded_map(xa, xb)
    return ComplexCube(cube.field, top, shape, vertices, edges,
                       validate=False)


def bimodule_cohomology(cube: DgCube, a, b) -> dict:
    """Cohomology table of the totalized hom-bimodule cube of the pair (a, b)."""
    return totalize(bimodule_cube(cube, a, b)).cohomology()


def as_morphism_dg(cube: DgCube):
    last = cube.n - 1
    sub = frozenset(range(last))
    v0 = {I: cube.vertices[I] for I in full_shape(sub)}
    v1 = {I: cube.vertices[frozenset(I) | {last}] for I in full_shape(sub)}
    e0 = {(I, l): cube.edge(I, l) for I in full_shape(sub) for l in sub - I}
    e1 = {(I, l): cube.edge(frozenset(I) | {last}, l)
          for I in full_shape(sub) for l in sub - I}
    cube0 = DgCube(cube.field, last, v0, e0, validate=False)
    cube1 = DgCube(cube.field, last, v1, e1, validate=False)
    comps = {I: cube.edge(I, last) for I in full_shape(sub)}
    return cube0, cube1, comps


def reassemble_dg(cube0: DgCube, cube1: DgCube, comps: dict,
                  validate: bool = True) -> DgCube:
    comps = {frozenset(k): v for k, v in comps.items()}
    new_coord = cube0.n
    vertices = {}
    edges = {}
    for I in full_shape(cube0.top):
        vertices[I] = cube0.vertices[I]
        vertices[I | {new_coord}] = cube1.vertices[I]
        edges[(I, new_coord)] = comps[I]
        for l in cube0.top - I:
            edges[(I, l)] = cube0.edge(I, l)
            edges[(I | {new_coord}, l)] = cube1.edge(I, l)
    return DgCube(cube0.field, new_coord + 1, vertices, edges, validate=validate)


def dg_faces_equal(x: DgCube, y: DgCube) -> bool:
    if x.top != y.top:
        return False
    for I in full_shape(x.top):
        if not cats_equal(x.vertices[I], y.vertices[I]):
            return False
    return all(functors_equal(x.edges[k], y.edges[k]) for k in x.edges)


def stack_dg(a: DgCube, b: DgCube, validate: bool = True) -> DgCube:
    a0, a1, alpha = as_morphism_dg(a)
    b0, b1, beta = as_morphism_dg(b)
    if not dg_faces_equal(a0, b1):
        raise CubeError("stack_dg: shared face mismatch")
    comps = {I: compose_functors(alpha[I], beta[I]) for I in beta}
    out = reassemble_dg(b0, a1, comps, validate=False)
    if validate:
        bad = out.defect()
        if bad:
            raise CubeError(f"stack_dg: {bad}")
    return out


def extend_dg(a: DgCube, b: DgCube, validate: bool = True) -> DgCube:
    a0, a1, alpha = as_morphism_dg(a)
    b0, b1, beta = as_morphism_dg(b)
    if not dg_faces_equal(a1, b0):
        raise CubeError("extend_dg: face mismatch")
    last = a.n - 1
    idcube = reassemble_dg(b1, b1, {I: identity_functor(b1.vertices[I])
                                    for I in full_shape(b1.top)}, validate=False)
    gamma = {}
    for I in full_shape(a.top):
        if last in I:
            gamma[I] = beta[frozenset(I) - {last}]
        else:
            gamma[I] = compose_functors(beta[I], alpha[I])
    out = reassemble_dg(a, idcube, gamma, validate=False)
    if validate:
        bad = out.defect()
        if bad:
            raise CubeError(f"extend_dg: {bad}")
    return out
