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
            dim = cat.hom(elt.src, elt.tgt).dim(want)
            if len(elt.vec) != dim:
                raise TwError(f"delta entry ({i},{j}) has {len(elt.vec)} "
                              f"coordinates, its hom has dimension {dim}")
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
        return TwistedComplex(
            self.cat, [(obj, k + s) for obj, k in self.terms],
            {key: elt_scale(field, sgn, elt) for key, elt in self.delta.items()},
            validate=False)

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

    The object is also one twisted complex over `cat`, its convolution
    (Bondal-Kapranov), kept as `total`: the terms of M_{n-1}, ..., M_0 in
    that order, component i shifted by n-1-i and starting at `offset[i]`,
    with entry (q, p) of mu_ij at delta key (offset[j] + q, offset[i] + p);
    `term_of[r]` is the (block, index) of total term r.  The mu relation is
    the Maurer-Cartan equation of `total`, and every glue-prime operation
    below is the twisted one on totals.
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
                if block_of.get(obj) != i:
                    raise TwError(f"component {i} has a term {obj!r} outside "
                                  f"block {i}")
        self.mu = {}
        for (i, j), f in mu.items():
            if not (0 <= i < j < n):
                raise TwError("mu must be strictly upper triangular in (i, j)")
            if f.degree != i - j + 1:
                raise TwError(f"mu[{i},{j}] must have degree {i - j + 1}")
            if not f.is_zero():
                self.mu[(i, j)] = f
        terms, delta = [], {}
        self.offset = [0] * n
        self.term_of = []
        for i in reversed(range(n)):
            m = self.comps[i].shift(n - 1 - i)
            self.offset[i] = off = len(terms)
            terms.extend(m.terms)
            self.term_of.extend((i, p) for p in range(len(m.terms)))
            delta.update({(off + a, off + b): e for (a, b), e in m.delta.items()})
        for (i, j), f in self.mu.items():
            delta.update({(self.offset[j] + q, self.offset[i] + p): e
                          for (q, p), e in f.entries.items()})
        self.total = TwistedComplex(cat, terms, delta, validate=False)
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
        """A block pair (i, j) where the mu relation fails, or None."""
        bad = self.total.maurer_cartan_defect()
        if bad is None:
            return None
        return (self.term_of[bad[1]][0], self.term_of[bad[0]][0])

    def shift(self) -> "GluePrimeObject":
        """The shift by one: components M_i[1], and every mu_ij negated."""
        comps = [m.shift(1) for m in self.comps]
        neg = self.cat.field.neg(self.cat.field.one)
        mu = {(i, j): tw_scale(neg, TwMorphism(comps[i], comps[j], f.degree,
                                               f.entries))
              for (i, j), f in self.mu.items()}
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


def _gp_to_tw(f: GpMorphism) -> TwMorphism:
    """f as a morphism of totals: entry (q, p) of f_ij at (offset[j] + q,
    offset[i] + p)."""
    ox, oy = f.src.offset, f.tgt.offset
    return TwMorphism(f.src.total, f.tgt.total, f.degree,
                      {(oy[j] + q, ox[i] + p): e
                       for (i, j), fij in f.entries.items()
                       for (q, p), e in fij.entries.items()})


def _tw_to_gp(x: GluePrimeObject, y: GluePrimeObject,
              f: TwMorphism) -> GpMorphism:
    """A morphism x.total -> y.total split into its blocks M_i -> N_j.  The
    twisted operations keep a morphism with only i <= j blocks so."""
    blocks = {}
    for (r, c), e in f.entries.items():
        (j, q), (i, p) = y.term_of[r], x.term_of[c]
        blocks.setdefault((i, j), {})[(q, p)] = e
    return GpMorphism(x, y, f.degree,
                      {(i, j): TwMorphism(x.comps[i], y.comps[j],
                                          f.degree + i - j, es)
                       for (i, j), es in blocks.items()})


def gp_add(f: GpMorphism, g: GpMorphism) -> GpMorphism:
    return _tw_to_gp(f.src, f.tgt, tw_add(_gp_to_tw(f), _gp_to_tw(g)))


def gp_scale(c, f: GpMorphism) -> GpMorphism:
    return _tw_to_gp(f.src, f.tgt, tw_scale(c, _gp_to_tw(f)))


def gp_compose(f: GpMorphism, g: GpMorphism) -> GpMorphism:
    """f after g: (f g)_{ij} = sum_k f_{kj} g_{ik}."""
    return _tw_to_gp(g.src, f.tgt, tw_compose(_gp_to_tw(f), _gp_to_tw(g)))


def gp_identity(x: GluePrimeObject) -> GpMorphism:
    return _tw_to_gp(x, x, tw_identity(x.total))


def gp_d(f: GpMorphism) -> GpMorphism:
    """(d f)_{ij} = (-1)^{n-1-j} d f_ij + sum_k (nu_kj f_ik - (-1)^{|f|} f_kj mu_ik)."""
    return _tw_to_gp(f.src, f.tgt, tw_d(_gp_to_tw(f)))


def _gp_coords(x: GluePrimeObject, y: GluePrimeObject, m: int):
    """The coordinates of glue-prime hom degree m inside tw_hom(x.total,
    y.total)^m, ordered by block (i, j) and then as in tw_hom(M_i, N_j);
    and the dimension of the latter."""
    blocks, size = [], 0
    for (r, c), _, d, off in _hom_layout(x.total, y.total, m):
        (j, q), (i, p) = y.term_of[r], x.term_of[c]
        if i <= j:
            blocks.append(((i, j, q, p), off, d))
        size += d
    blocks.sort()
    return [k for _, off, d in blocks for k in range(off, off + d)], size


def glue_prime_hom(x: GluePrimeObject, y: GluePrimeObject) -> Complex:
    """Hom complex of the explicit-cone gluing: blocks tw-hom(M_i, N_j)[i-j]
    for i <= j.  They span a subcomplex of tw_hom(x.total, y.total), since d
    never maps into an i > j block (in a directed ambient those are zero)."""
    field = x.cat.field
    total = tw_hom(x.total, y.total)
    coords = {m: _gp_coords(x, y, m)[0] for m in total.degrees()}
    diffs = {}
    for m, cols in coords.items():
        rows = coords.get(m + 1)
        if cols and rows:
            pos = {c: k for k, c in enumerate(cols)}
            d = total.d(m).rows
            diffs[m] = Matrix(field, len(rows), len(cols),
                              [{pos[c]: v for c, v in d[r].items() if c in pos}
                               for r in rows])
    return Complex(field, {m: len(c) for m, c in coords.items()}, diffs,
                   validate=False)


def vec_to_gp_morphism(x: GluePrimeObject, y: GluePrimeObject, degree: int,
                       vec) -> GpMorphism:
    coords, size = _gp_coords(x, y, degree)
    if len(vec) != len(coords):
        raise TwError("vector length does not match glue-prime hom layout")
    full = [x.cat.field.zero] * size
    for k, v in zip(coords, vec):
        full[k] = v
    return _tw_to_gp(x, y, vec_to_tw_morphism(x.total, y.total, degree, full))


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
    xs = x.shift()
    cat, field = x.cat, x.cat.field
    neg = field.neg(field.one)

    def ids(src, tgt, degree, terms, row_off=0, col_off=0):
        return TwMorphism(src, tgt, degree,
                          {(row_off + r, col_off + r): cat.id_elt(obj)
                           for r, (obj, _) in enumerate(terms)})

    cones, i_k, p_k, j_k, s_k, eps_k, eps_inv_k = ([] for _ in range(7))
    for k in range(x.n):
        C = cone_tw(tw_scale(field.one if (x.n - 1 - k) % 2 == 0 else neg,
                             f.entry(k, k)))
        mk, mk1, nk = x.comps[k], xs.comps[k], y.comps[k]
        nt = len(nk.terms)
        cones.append(C)
        j_k.append(ids(nk, C, 0, nk.terms))
        s_k.append(ids(C, nk, 0, nk.terms))
        i_k.append(ids(mk1, C, 0, mk.terms, row_off=nt))
        p_k.append(ids(C, mk1, 0, mk.terms, col_off=nt))
        eps_k.append(ids(mk1, mk, 1, mk.terms))
        eps_inv_k.append(ids(mk, mk1, -1, mk.terms))
    gamma = {}
    for i in range(x.n):
        eps_p = tw_compose(eps_k[i], p_k[i])
        for j in range(i + 1, x.n):
            t1 = tw_compose(i_k[j], tw_compose(eps_inv_k[j], tw_compose(
                x.mu_elt(i, j), eps_p)))
            t2 = tw_compose(j_k[j], tw_compose(y.mu_elt(i, j), s_k[i]))
            t3 = tw_compose(j_k[j], tw_compose(f.entry(i, j), eps_p))
            gamma[(i, j)] = tw_add(tw_scale(neg, t1), tw_add(t2, t3))
    cone_obj = GluePrimeObject(cat, x.block_of, x.n, cones, gamma)

    def diag(src, tgt, degree, maps):
        return GpMorphism(src, tgt, degree,
                          {(k, k): m for k, m in enumerate(maps)})

    return GluePrimeCone(cone_obj, diag(xs, cone_obj, 0, i_k),
                         diag(cone_obj, xs, 0, p_k), diag(y, cone_obj, 0, j_k),
                         diag(cone_obj, y, 0, s_k), diag(xs, x, 1, eps_k), xs)
