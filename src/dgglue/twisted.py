"""Shift closure, twisted complexes and their cones; the explicit-cone gluing
subcategory of a directed dg category.

Conventions: a matrix entry indexed (q, p) runs from term p of the source to
term q of the target (f_{ji}: A_i -> B_j), so delta is strictly upper
triangular with entries delta[(i, j)]: term j -> term i for i < j.  The hom
complex between shifted objects A[k] -> B[l] is the hom complex of the base
category regraded, with differential (-1)^l d; composition carries no extra
signs.  The twisted differential is d_Sigma f + delta' f - (-1)^{|f|} f delta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex
from .dgcat import DgCategory, HomElt, add_bilinear_block, elt_add, elt_scale
from .linalg import Matrix


class TwError(ValueError):
    pass


class TwistedComplex:
    """(terms, delta) over a dg category; validates d delta + delta^2 = 0."""

    def __init__(self, cat: DgCategory, terms, delta: dict, validate: bool = True):
        self.cat = cat
        self.terms = tuple((obj, int(s)) for obj, s in terms)
        self.delta = {}
        for (i, j), elt in delta.items():
            if not (0 <= i < j < len(self.terms)):
                raise TwError(f"delta entry ({i},{j}) is not strictly upper triangular")
            want = self._entry_degree(i, j)
            if not isinstance(elt, HomElt):
                elt = HomElt(self.terms[j][0], self.terms[i][0], want, tuple(elt))
            if (elt.src, elt.tgt, elt.degree) != \
                    (self.terms[j][0], self.terms[i][0], want):
                raise TwError(f"delta entry ({i},{j}) has wrong type/degree")
            if not elt.is_zero(cat.field):
                self.delta[(i, j)] = elt
        if validate:
            err = self.maurer_cartan_defect()
            if err is not None:
                raise TwError(f"d delta + delta^2 != 0 at entry {err}")

    def _entry_degree(self, i, j):
        # element of ZA(term_j, term_i)^1
        return 1 + self.terms[i][1] - self.terms[j][1]

    def delta_elt(self, i, j) -> HomElt:
        elt = self.delta.get((i, j))
        if elt is not None:
            return elt
        obj_j, obj_i = self.terms[j][0], self.terms[i][0]
        deg = self._entry_degree(i, j)
        n = self.cat.hom(obj_j, obj_i).dim(deg)
        return HomElt(obj_j, obj_i, deg, (self.cat.field.zero,) * n)

    def maurer_cartan_defect(self):
        """First entry where d_Sigma delta + delta^2 fails, or None."""
        cat, field = self.cat, self.cat.field
        n = len(self.terms)
        for i in range(n):
            for j in range(i + 1, n):
                shift_i = self.terms[i][1]
                sgn = field.one if shift_i % 2 == 0 else field.neg(field.one)
                acc = elt_scale(field, sgn, cat.d_elt(self.delta_elt(i, j)))
                for k in range(i + 1, j):
                    acc = elt_add(field, acc,
                                  cat.compose(self.delta_elt(i, k), self.delta_elt(k, j)))
                if not acc.is_zero(field):
                    return (i, j)
        return None

    def shift(self, s: int) -> "TwistedComplex":
        """Shift by s: bump term shifts, scale delta by (-1)^s."""
        field = self.cat.field
        sgn = field.one if s % 2 == 0 else field.neg(field.one)
        terms = [(obj, k + s) for obj, k in self.terms]
        delta = {key: elt_scale(field, sgn, elt) for key, elt in self.delta.items()}
        out = TwistedComplex.__new__(TwistedComplex)
        out.cat = self.cat
        out.terms = tuple(terms)
        out.delta = {k: HomElt(v.src, v.tgt, v.degree, v.vec)
                     for k, v in delta.items() if not v.is_zero(field)}
        return out

    def __repr__(self):
        return f"TwistedComplex({list(self.terms)})"


def bare(cat: DgCategory, obj, shift: int = 0) -> TwistedComplex:
    return TwistedComplex(cat, [(obj, shift)], {})


def shift_hom(cat: DgCategory, x, y) -> Complex:
    """Hom complex ZA((A, k), (B, l)) = A(A, B)[l - k] with differential (-1)^l d."""
    (a, k), (b, l) = x, y
    base = cat.hom(a, b)
    field = cat.field
    sgn = field.one if l % 2 == 0 else field.neg(field.one)
    dims = {m - (l - k): d for m, d in base.dims.items()}
    diffs = {m - (l - k): mat.scaled(sgn) for m, mat in base.diffs.items()}
    return Complex(field, dims, diffs, validate=False)


def _hom_layout(t1: TwistedComplex, t2: TwistedComplex, m: int):
    """Blocks ((q, p), base_degree, dim, offset) of tw-hom degree m, sorted
    by (q, p)."""
    layout = []
    off = 0
    for q, (obj_q, l_q) in enumerate(t2.terms):
        for p, (obj_p, k_p) in enumerate(t1.terms):
            a_deg = m + l_q - k_p
            d = t1.cat.hom(obj_p, obj_q).dim(a_deg)
            if d:
                layout.append(((q, p), a_deg, d, off))
                off += d
    return layout


@dataclass
class TwMorphism:
    """Matrix of homogeneous elements: entry (q, p): src term p -> tgt term q."""

    src: TwistedComplex
    tgt: TwistedComplex
    degree: int
    entries: dict

    def entry(self, q, p) -> HomElt:
        e = self.entries.get((q, p))
        if e is not None:
            return e
        cat = self.src.cat
        obj_p, k_p = self.src.terms[p]
        obj_q, l_q = self.tgt.terms[q]
        deg = self.degree + l_q - k_p
        n = cat.hom(obj_p, obj_q).dim(deg)
        return HomElt(obj_p, obj_q, deg, (cat.field.zero,) * n)

    def is_zero(self) -> bool:
        field = self.src.cat.field
        return all(e.is_zero(field) for e in self.entries.values())


def _clean(field, entries: dict) -> dict:
    return {k: v for k, v in entries.items() if not v.is_zero(field)}


def tw_add(f: TwMorphism, g: TwMorphism) -> TwMorphism:
    field = f.src.cat.field
    out = dict(f.entries)
    for key, e in g.entries.items():
        out[key] = elt_add(field, out[key], e) if key in out else e
    return TwMorphism(f.src, f.tgt, f.degree, _clean(field, out))


def tw_scale(c, f: TwMorphism) -> TwMorphism:
    field = f.src.cat.field
    return TwMorphism(f.src, f.tgt, f.degree,
                      _clean(field, {k: elt_scale(field, c, e)
                                     for k, e in f.entries.items()}))


def tw_compose(g: TwMorphism, f: TwMorphism) -> TwMorphism:
    """g after f; matrix multiplication with no extra signs."""
    cat = f.src.cat
    field = cat.field
    out = {}
    for (q, mid), ge in g.entries.items():
        for (mid2, p), fe in f.entries.items():
            if mid2 != mid:
                continue
            prod = cat.compose(ge, fe)
            if prod.is_zero(field):
                continue
            key = (q, p)
            out[key] = elt_add(field, out[key], prod) if key in out else prod
    return TwMorphism(f.src, g.tgt, g.degree + f.degree, _clean(field, out))


def tw_identity(t: TwistedComplex) -> TwMorphism:
    cat = t.cat
    entries = {}
    for p, (obj, _) in enumerate(t.terms):
        entries[(p, p)] = cat.id_elt(obj)
    return TwMorphism(t, t, 0, entries)


def tw_d(f: TwMorphism) -> TwMorphism:
    """d f = d_Sigma f + delta_tgt f - (-1)^{|f|} f delta_src."""
    cat = f.src.cat
    field = cat.field
    out = {}

    def acc(key, elt):
        if elt.is_zero(field):
            return
        out[key] = elt_add(field, out[key], elt) if key in out else elt

    for (q, p), e in f.entries.items():
        l_q = f.tgt.terms[q][1]
        sgn = field.one if l_q % 2 == 0 else field.neg(field.one)
        acc((q, p), elt_scale(field, sgn, cat.d_elt(e)))
    for (q, p), e in f.entries.items():
        for q2 in range(q):
            d_elt = f.tgt.delta.get((q2, q))
            if d_elt is not None:
                acc((q2, p), cat.compose(d_elt, e))
    fsgn = field.one if f.degree % 2 == 0 else field.neg(field.one)
    fsgn = field.neg(fsgn)
    for (q, p), e in f.entries.items():
        for p2 in range(p + 1, len(f.src.terms)):
            d_elt = f.src.delta.get((p, p2))
            if d_elt is not None:
                acc((q, p2), elt_scale(field, fsgn, cat.compose(e, d_elt)))
    return TwMorphism(f.src, f.tgt, f.degree + 1, _clean(field, out))


def tw_is_closed(f: TwMorphism) -> bool:
    return tw_d(f).is_zero()


def tw_hom(t1: TwistedComplex, t2: TwistedComplex) -> Complex:
    """The hom complex of tw(A) between two twisted complexes."""
    if t1.cat is not t2.cat:
        raise TwError("twisted complexes over different categories")
    cat = t1.cat
    field = cat.field
    degrees = set()
    for q, (obj_q, l_q) in enumerate(t2.terms):
        for p, (obj_p, k_p) in enumerate(t1.terms):
            h = cat.hom(obj_p, obj_q)
            for a_deg in h.degrees():
                degrees.add(a_deg - l_q + k_p)
    dims = {}
    layouts = {}
    for m in sorted(degrees):
        layout = _hom_layout(t1, t2, m)
        layouts[m] = layout
        dims[m] = sum(d for _, _, d, _ in layout)
    diffs = {}
    for m in sorted(degrees):
        if not dims.get(m) or not dims.get(m + 1):
            continue
        src_layout = layouts[m]
        tgt_layout = layouts[m + 1]
        tgt_index = {blk: bi for bi, (blk, _, _, _) in enumerate(tgt_layout)}
        blocks = {}

        def put(tgt_blk, src_bi, mat):
            if mat.is_zero() or tgt_blk not in tgt_index:
                return
            key = (tgt_index[tgt_blk], src_bi)
            blocks[key] = blocks[key] + mat if key in blocks else mat

        for src_bi, ((q, p), a_deg, _, _) in enumerate(src_layout):
            obj_p, k_p = t1.terms[p]
            obj_q, l_q = t2.terms[q]
            h = cat.hom(obj_p, obj_q)
            sgn = field.one if l_q % 2 == 0 else field.neg(field.one)
            put((q, p), src_bi, h.d(a_deg).scaled(sgn))
            for q2 in range(q):
                d_elt = t2.delta.get((q2, q))
                if d_elt is not None:
                    put((q2, p), src_bi, cat.left_mult(d_elt, obj_p).comp(a_deg))
            msgn = field.neg(field.one if m % 2 == 0 else field.neg(field.one))
            for p2 in range(p + 1, len(t1.terms)):
                d_elt = t1.delta.get((p, p2))
                if d_elt is not None:
                    put((q, p2), src_bi,
                        cat.right_mult(d_elt, obj_q).comp(a_deg).scaled(msgn))
        diffs[m] = Matrix.block(field, [d for _, _, d, _ in tgt_layout],
                                [d for _, _, d, _ in src_layout], blocks)
    return Complex(field, dims, diffs, validate=False)


def tw_morphism_to_vec(f: TwMorphism):
    """Coordinates of f in tw_hom(f.src, f.tgt) at degree f.degree."""
    vec = []
    for (q, p), _, _, _ in _hom_layout(f.src, f.tgt, f.degree):
        vec.extend(f.entry(q, p).vec)
    return tuple(vec)


def vec_to_tw_morphism(t1: TwistedComplex, t2: TwistedComplex, degree: int,
                       vec) -> TwMorphism:
    field = t1.cat.field
    layout = _hom_layout(t1, t2, degree)
    entries = {}
    for (q, p), a_deg, d, off in layout:
        chunk = tuple(vec[off:off + d])
        if any(not field.is_zero(x) for x in chunk):
            entries[(q, p)] = HomElt(t1.terms[p][0], t2.terms[q][0], a_deg, chunk)
    if sum(d for _, _, d, _ in layout) != len(vec):
        raise TwError("vector length does not match hom layout")
    return TwMorphism(t1, t2, degree, entries)


def cone_tw(f: TwMorphism) -> TwistedComplex:
    """Cone of a closed degree-zero morphism of twisted complexes.

    Terms are target terms followed by source terms shifted by one; delta is
    the block matrix [[delta_tgt, f], [0, -delta_src]].
    """
    if f.degree != 0:
        raise TwError("cone requires a degree-zero morphism")
    if not tw_is_closed(f):
        raise TwError("cone requires a closed morphism")
    cat = f.src.cat
    field = cat.field
    nt = len(f.tgt.terms)
    terms = list(f.tgt.terms) + [(obj, k + 1) for obj, k in f.src.terms]
    delta = {}
    for (i, j), e in f.tgt.delta.items():
        delta[(i, j)] = e
    neg = field.neg(field.one)
    for (i, j), e in f.src.delta.items():
        delta[(nt + i, nt + j)] = elt_scale(field, neg, e)
    for (q, p), e in f.entries.items():
        if not e.is_zero(field):
            delta[(q, nt + p)] = e
    return TwistedComplex(cat, terms, delta)


def tw_category(cat: DgCategory, objs: dict) -> DgCategory:
    """The full dg subcategory of tw(cat) on the named twisted complexes."""
    names = sorted(objs)
    tws = dict(objs)
    hom = {(n1, n2): tw_hom(tws[n1], tws[n2]) for n1 in names for n2 in names}

    def comp_fn(a, b, c, i_deg, j_deg):
        ta, tb, tc = tws[a], tws[b], tws[c]
        nab = hom[(a, b)].dim(j_deg)
        out = Matrix.zeros(cat.field, hom[(a, c)].dim(i_deg + j_deg),
                           hom[(b, c)].dim(i_deg) * nab)
        tgt_off = {blk: off for blk, _, _, off
                   in _hom_layout(ta, tc, i_deg + j_deg)}
        f_layout = _hom_layout(ta, tb, j_deg)
        # (g f)_{rp} = sum over mid of g_{r,mid} f_{mid,p}, with no signs
        for (r, mid), ag, _, offg in _hom_layout(tb, tc, i_deg):
            for (mid_f, p), af, df, offf in f_layout:
                if mid_f == mid and (r, p) in tgt_off:
                    add_bilinear_block(out, cat.comp_matrix(
                        ta.terms[p][0], tb.terms[mid][0], tc.terms[r][0],
                        ag, af), tgt_off[(r, p)], offg, offf, df, nab)
        return out

    ids = {n: tw_morphism_to_vec(tw_identity(tws[n])) for n in names}
    return DgCategory(cat.field, names, hom, comp_fn, ids)


# -- the explicit-cone gluing subcategory (directed ambient) ----------------


class GluePrimeObject:
    """An object ((M_i), (mu_ij)) of the explicit-cone gluing subcategory.

    The ambient `cat` is directed via `block_of` (object -> block index in
    range(n)); component M_i is a twisted complex with all terms in block i.
    The entry mu[(i, j)]: M_i -> M_j for i < j has tw-degree i - j + 1 and the
    family satisfies (-1)^{n-1-j} d mu_ij + sum_k mu_kj mu_ik = 0.  Note the
    source-first indexing here, opposite to the target-first matrix indexing
    of TwMorphism entries; the translation happens at this boundary only.
    """

    def __init__(self, cat: DgCategory, block_of: dict, n: int, comps, mu: dict,
                 validate: bool = True):
        self.cat = cat
        self.block_of = block_of
        self.n = n
        self.comps = list(comps)
        if len(self.comps) != n:
            raise TwError("need one component per block")
        for i, m in enumerate(self.comps):
            for obj, _ in m.terms:
                if block_of[obj] != i:
                    raise TwError(f"component {i} has a term outside block {i}")
        self.mu = {}
        for (i, j), f in mu.items():
            if not (0 <= i < j < n):
                raise TwError("mu must be strictly upper triangular in (i, j)")
            if f.degree != i - j + 1:
                raise TwError(f"mu[{i},{j}] must have degree {i - j + 1}")
            if not f.is_zero():
                self.mu[(i, j)] = f
        if validate:
            bad = self.mu_defect()
            if bad is not None:
                raise TwError(f"mu relation fails at {bad}")

    def mu_elt(self, i, j) -> TwMorphism:
        f = self.mu.get((i, j))
        if f is not None:
            return f
        return TwMorphism(self.comps[i], self.comps[j], i - j + 1, {})

    def mu_defect(self):
        """First (i, j) where (-1)^{n-1-j} d mu_ij + sum_k mu_kj mu_ik != 0."""
        field = self.cat.field
        for i in range(self.n):
            for j in range(i + 1, self.n):
                sgn = field.one if (self.n - 1 - j) % 2 == 0 else field.neg(field.one)
                acc = tw_scale(sgn, tw_d(self.mu_elt(i, j)))
                for k in range(i + 1, j):
                    acc = tw_add(acc, tw_compose(self.mu_elt(k, j), self.mu_elt(i, k)))
                if not acc.is_zero():
                    return (i, j)
        return None

    def shift(self) -> "GluePrimeObject":
        field = self.cat.field
        comps = [m.shift(1) for m in self.comps]
        neg = field.neg(field.one)
        mu = {}
        for (i, j), f in self.mu.items():
            mu[(i, j)] = TwMorphism(comps[i], comps[j], f.degree,
                                    {k: elt_scale(field, neg, e)
                                     for k, e in f.entries.items()})
        return GluePrimeObject(self.cat, self.block_of, self.n, comps, mu)


@dataclass
class GpMorphism:
    """Morphism of glue-prime objects: entries f[(i, j)]: M_i -> N_j, i <= j."""

    src: GluePrimeObject
    tgt: GluePrimeObject
    degree: int
    entries: dict

    def entry(self, i, j) -> TwMorphism:
        f = self.entries.get((i, j))
        if f is not None:
            return f
        return TwMorphism(self.src.comps[i], self.tgt.comps[j],
                          self.degree + i - j, {})

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.entries.values())


def gp_add(f: GpMorphism, g: GpMorphism) -> GpMorphism:
    out = dict(f.entries)
    for key, e in g.entries.items():
        out[key] = tw_add(out[key], e) if key in out else e
    out = {k: v for k, v in out.items() if not v.is_zero()}
    return GpMorphism(f.src, f.tgt, f.degree, out)


def gp_scale(c, f: GpMorphism) -> GpMorphism:
    return GpMorphism(f.src, f.tgt, f.degree,
                      {k: tw_scale(c, v) for k, v in f.entries.items()})


def gp_compose(f: GpMorphism, g: GpMorphism) -> GpMorphism:
    """f after g: (f g)_{ij} = sum_k f_{kj} g_{ik}."""
    out = {}
    for (i, k), ge in g.entries.items():
        for (k2, j), fe in f.entries.items():
            if k2 != k:
                continue
            prod = tw_compose(fe, ge)
            if prod.is_zero():
                continue
            key = (i, j)
            out[key] = tw_add(out[key], prod) if key in out else prod
    return GpMorphism(g.src, f.tgt, f.degree + g.degree,
                      {k: v for k, v in out.items() if not v.is_zero()})


def gp_identity(x: GluePrimeObject) -> GpMorphism:
    return GpMorphism(x, x, 0,
                      {(i, i): tw_identity(x.comps[i]) for i in range(x.n)})


def gp_d(f: GpMorphism) -> GpMorphism:
    """(d f)_{ij} = (-1)^{n-1-j} d f_ij + sum_k (nu_kj f_ik - (-1)^{|f|} f_kj mu_ik)."""
    field = f.src.cat.field
    n = f.src.n
    out = {}

    def acc(key, tw):
        if tw.is_zero():
            return
        out[key] = tw_add(out[key], tw) if key in out else tw

    fsgn = field.one if f.degree % 2 == 0 else field.neg(field.one)
    for i in range(n):
        for j in range(i, n):
            sgn = field.one if (n - 1 - j) % 2 == 0 else field.neg(field.one)
            term = tw_scale(sgn, tw_d(f.entry(i, j)))
            acc((i, j), term)
    for (i, k), fe in f.entries.items():
        for j in range(k + 1, n):
            nu = f.tgt.mu.get((k, j))
            if nu is not None:
                acc((i, j), tw_compose(nu, fe))
    for (k, j), fe in f.entries.items():
        for i in range(k):
            mu = f.src.mu.get((i, k))
            if mu is not None:
                acc((i, j), tw_scale(field.neg(fsgn), tw_compose(fe, mu)))
    return GpMorphism(f.src, f.tgt, f.degree + 1,
                      {k: v for k, v in out.items() if not v.is_zero()})


def glue_prime_hom(x: GluePrimeObject, y: GluePrimeObject) -> Complex:
    """Hom complex of the explicit-cone gluing: blocks tw-hom(M_i, N_j)[i-j]."""
    field = x.cat.field
    pairs = [(i, j) for i in range(x.n) for j in range(y.n) if i <= j]
    homs = {(i, j): tw_hom(x.comps[i], y.comps[j]) for i, j in pairs}
    degrees = set()
    for (i, j), h in homs.items():
        for m in h.degrees():
            degrees.add(m - i + j)
    dims = {}
    for m in sorted(degrees):
        dims[m] = sum(homs[(i, j)].dim(m + i - j) for i, j in pairs)
    diffs = {}
    for m in sorted(degrees):
        if not dims.get(m) or not dims.get(m + 1):
            continue
        src_dims = [homs[p].dim(m + p[0] - p[1]) for p in pairs]
        tgt_dims = [homs[p].dim(m + 1 + p[0] - p[1]) for p in pairs]
        cols = []
        for bi, (i, j) in enumerate(pairs):
            d = src_dims[bi]
            for ci in range(d):
                vec = [field.zero] * d
                vec[ci] = field.one
                fm = vec_to_tw_morphism(x.comps[i], y.comps[j], m + i - j, vec)
                gp = GpMorphism(x, y, m, {(i, j): fm})
                dgp = gp_d(gp)
                col = []
                for (i2, j2) in pairs:
                    col.extend(tw_morphism_to_vec(dgp.entry(i2, j2)))
                cols.append(col)
        mat = Matrix.zeros(field, sum(tgt_dims), len(cols))
        for ci, col in enumerate(cols):
            for r, v in enumerate(col):
                if not field.is_zero(v):
                    mat.set(r, ci, v)
        diffs[m] = mat
    return Complex(field, dims, diffs, validate=False)


def vec_to_gp_morphism(x: GluePrimeObject, y: GluePrimeObject, degree: int,
                       vec) -> GpMorphism:
    field = x.cat.field
    pairs = [(i, j) for i in range(x.n) for j in range(y.n) if i <= j]
    entries = {}
    off = 0
    for i, j in pairs:
        h = tw_hom(x.comps[i], y.comps[j])
        d = h.dim(degree + i - j)
        chunk = vec[off:off + d]
        off += d
        fm = vec_to_tw_morphism(x.comps[i], y.comps[j], degree + i - j, chunk)
        if not fm.is_zero():
            entries[(i, j)] = fm
    return GpMorphism(x, y, degree, entries)


@dataclass
class GluePrimeCone:
    """Cone of a glue-prime morphism with its structure maps.

    i: M[1] -> C, p: C -> M[1], j: N -> C, s: C -> N and the closed degree-one
    isomorphism eps: M[1] -> M, all given by diagonal matrices.
    """

    cone: GluePrimeObject
    i: GpMorphism
    p: GpMorphism
    j: GpMorphism
    s: GpMorphism
    eps: GpMorphism
    shifted_src: GluePrimeObject


def glue_prime_cone(f: GpMorphism) -> GluePrimeCone:
    """Cone of a closed degree-zero morphism, via componentwise cones.

    The connecting entries are gamma_ij = -i_j eps^{-1} mu_ij eps p_i
    + j_j nu_ij s_i + j_j f_ij eps p_i.
    """
    if f.degree != 0:
        raise TwError("glue-prime cone needs a degree-zero morphism")
    if not gp_d(f).is_zero():
        raise TwError("glue-prime cone needs a closed morphism")
    x, y = f.src, f.tgt
    cat, field = x.cat, x.cat.field
    n = x.n
    cones = []
    i_maps, p_maps, j_maps, s_maps = {}, {}, {}, {}
    eps_maps, eps_inv_maps = {}, {}
    for k in range(n):
        sgn = field.one if (n - 1 - k) % 2 == 0 else field.neg(field.one)
        g = tw_scale(sgn, f.entry(k, k))
        if not tw_is_closed(g):
            raise TwError(f"diagonal component {k} is not closed")
        C = cone_tw(g)
        cones.append(C)
        mk = x.comps[k]
        mk1 = mk.shift(1)
        nk = y.comps[k]
        nt = len(nk.terms)
        j_maps[k] = TwMorphism(nk, C, 0, {(q, q): cat.id_elt(nk.terms[q][0])
                                          for q in range(nt)})
        s_maps[k] = TwMorphism(C, nk, 0, {(q, q): cat.id_elt(nk.terms[q][0])
                                          for q in range(nt)})
        i_maps[k] = TwMorphism(mk1, C, 0, {(nt + r, r): cat.id_elt(mk.terms[r][0])
                                           for r in range(len(mk.terms))})
        p_maps[k] = TwMorphism(C, mk1, 0, {(r, nt + r): cat.id_elt(mk.terms[r][0])
                                           for r in range(len(mk.terms))})
        eps_maps[k] = TwMorphism(mk1, mk, 1, {(r, r): cat.id_elt(mk.terms[r][0])
                                              for r in range(len(mk.terms))})
        eps_inv_maps[k] = TwMorphism(mk, mk1, -1, {(r, r): cat.id_elt(mk.terms[r][0])
                                                   for r in range(len(mk.terms))})
    gamma = {}
    for i in range(n):
        for j in range(i + 1, n):
            t1 = tw_compose(i_maps[j], tw_compose(eps_inv_maps[j], tw_compose(
                x.mu_elt(i, j), tw_compose(eps_maps[i], p_maps[i]))))
            t2 = tw_compose(j_maps[j], tw_compose(y.mu_elt(i, j), s_maps[i]))
            t3 = tw_compose(j_maps[j], tw_compose(f.entry(i, j), tw_compose(
                eps_maps[i], p_maps[i])))
            entry = tw_add(tw_scale(field.neg(field.one), t1), tw_add(t2, t3))
            if not entry.is_zero():
                gamma[(i, j)] = entry
    cone_obj = GluePrimeObject(cat, x.block_of, n, cones, gamma)
    xs = x.shift()
    # retype the structure maps against the assembled objects
    i_gp = GpMorphism(xs, cone_obj, 0,
                      {(k, k): TwMorphism(xs.comps[k], cones[k], 0,
                                          i_maps[k].entries) for k in range(n)})
    p_gp = GpMorphism(cone_obj, xs, 0,
                      {(k, k): TwMorphism(cones[k], xs.comps[k], 0,
                                          p_maps[k].entries) for k in range(n)})
    j_gp = GpMorphism(y, cone_obj, 0,
                      {(k, k): TwMorphism(y.comps[k], cones[k], 0,
                                          j_maps[k].entries) for k in range(n)})
    s_gp = GpMorphism(cone_obj, y, 0,
                      {(k, k): TwMorphism(cones[k], y.comps[k], 0,
                                          s_maps[k].entries) for k in range(n)})
    eps_gp = GpMorphism(xs, x, 1,
                        {(k, k): TwMorphism(xs.comps[k], x.comps[k], 1,
                                            eps_maps[k].entries) for k in range(n)})
    return GluePrimeCone(cone_obj, i_gp, p_gp, j_gp, s_gp, eps_gp, xs)
