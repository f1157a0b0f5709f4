"""Finite presentations of dg categories, dg functors and dg bimodules.

Hom complexes carry chosen bases; composition is stored as structure
constants per basis-degree pair, so every axiom (Leibniz, associativity,
unitality) is a finite exact linear identity.  A bilinear composition
hom(b,c)^i (x) hom(a,b)^j -> hom(a,c)^{i+j} is flattened with column index
g_idx * dim hom(a,b)^j + f_idx; tables assembled from blocks are placed in
that flattening by `add_bilinear_block` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable

from .complexes import Complex, GradedMap, cohomology_basis, zero_complex
from .linalg import Matrix, differing_columns, mul_kron


class DgError(ValueError):
    pass


@dataclass(frozen=True)
class HomElt:
    """A homogeneous morphism: coordinates in hom(src, tgt) at one degree."""

    src: str
    tgt: str
    degree: int
    vec: tuple

    def is_zero(self, field) -> bool:
        return all(field.is_zero(x) for x in self.vec)


class DgCategory:
    """A dg category on finitely many objects with based hom complexes.

    `comp` may be a dict {(a, b, c): {(i, j): Matrix}} or a callable
    (a, b, c, i, j) -> Matrix; results are cached either way.
    """

    def __init__(self, field, objects, hom: dict, comp, ids: dict):
        self.field = field
        self.objects = tuple(objects)
        self._hom = dict(hom)
        for pair in self._hom:
            if pair[0] not in self.objects or pair[1] not in self.objects:
                raise DgError(f"hom pair {pair} references unknown object")
        self._comp = comp
        self._comp_cache = {}
        self.ids = dict(ids)
        for a in self.objects:
            if a not in self.ids:
                raise DgError(f"missing identity for object {a!r}")

    def hom(self, a, b) -> Complex:
        c = self._hom.get((a, b))
        if c is None:
            return zero_complex(self.field)
        return c

    def comp_matrix(self, a, b, c, i, j) -> Matrix:
        """Matrix of hom(b,c)^i (x) hom(a,b)^j -> hom(a,c)^{i+j}."""
        key = (a, b, c, i, j)
        cached = self._comp_cache.get(key)
        if cached is not None:
            return cached
        rows = self.hom(a, c).dim(i + j)
        cols = self.hom(b, c).dim(i) * self.hom(a, b).dim(j)
        if rows == 0 or cols == 0:
            m = Matrix.zeros(self.field, rows, cols)
        elif callable(self._comp):
            m = self._comp(a, b, c, i, j)
        else:
            m = self._comp.get((a, b, c), {}).get((i, j))
            if m is None:
                m = Matrix.zeros(self.field, rows, cols)
        if m.shape != (rows, cols):
            raise DgError(f"composition table {key} has shape {m.shape}, "
                          f"expected ({rows},{cols})")
        self._comp_cache[key] = m
        return m

    def id_elt(self, a) -> HomElt:
        return HomElt(a, a, 0, tuple(self.ids[a]))

    def basis_elt(self, a, b, degree, idx) -> HomElt:
        n = self.hom(a, b).dim(degree)
        vec = [self.field.zero] * n
        vec[idx] = self.field.one
        return HomElt(a, b, degree, tuple(vec))

    def compose(self, g: HomElt, f: HomElt) -> HomElt:
        """g after f."""
        if f.tgt != g.src:
            raise DgError(f"cannot compose {g.src}<-... with ...->{f.tgt}")
        m = self.comp_matrix(f.src, f.tgt, g.tgt, g.degree, f.degree)
        field = self.field
        nj = len(f.vec)
        flat = [field.zero] * (len(g.vec) * nj)
        for gi, gv in enumerate(g.vec):
            if field.is_zero(gv):
                continue
            for fi, fv in enumerate(f.vec):
                if not field.is_zero(fv):
                    flat[gi * nj + fi] = field.mul(gv, fv)
        return HomElt(f.src, g.tgt, g.degree + f.degree, m.apply(flat))

    def d_elt(self, f: HomElt) -> HomElt:
        m = self.hom(f.src, f.tgt).d(f.degree)
        return HomElt(f.src, f.tgt, f.degree + 1, m.apply(f.vec))

    def left_mult(self, g: HomElt, a) -> GradedMap:
        """Post-composition with g in hom(b, c): hom(a, b) -> hom(a, c)."""
        source = self.hom(a, g.src)
        col = Matrix.column(self.field, g.vec)
        return GradedMap(source, self.hom(a, g.tgt), g.degree, {
            j: mul_kron(self.comp_matrix(a, g.src, g.tgt, g.degree, j), col,
                        source.dim(j))
            for j in source.degrees()})

    def right_mult(self, f: HomElt, c) -> GradedMap:
        """Pre-composition with f in hom(a, b): hom(b, c) -> hom(a, c)."""
        source = self.hom(f.tgt, c)
        col = Matrix.column(self.field, f.vec)
        return GradedMap(source, self.hom(f.src, c), f.degree, {
            i: mul_kron(self.comp_matrix(f.src, f.tgt, c, i, f.degree),
                        source.dim(i), col)
            for i in source.degrees()})

    def hom_basis(self, a, b):
        """All basis elements of hom(a, b), ordered by (degree, index)."""
        h = self.hom(a, b)
        return [self.basis_elt(a, b, k, i)
                for k in h.degrees() for i in range(h.dim(k))]


def elt_add(field, x: HomElt, y: HomElt) -> HomElt:
    if (x.src, x.tgt, x.degree) != (y.src, y.tgt, y.degree):
        raise DgError("cannot add inhomogeneous elements")
    return HomElt(x.src, x.tgt, x.degree,
                  tuple(field.add(u, v) for u, v in zip(x.vec, y.vec)))


def elt_scale(field, c, x: HomElt) -> HomElt:
    return HomElt(x.src, x.tgt, x.degree, tuple(field.mul(c, v) for v in x.vec))


def add_bilinear_block(table: Matrix, block: Matrix, row0: int, g0: int,
                       f0: int, d_f: int, n_f: int) -> None:
    """Add `block` into the bilinear `table` in place.

    `block` maps g-coordinates g0.. (x) f-coordinates f0.. of the factors to
    rows row0..; its column g' * d_f + f' lands in column
    (g0 + g') * n_f + f0 + f' of `table`, whose f-factor has dimension n_f.
    Sums are reduced mod p and a zero is never stored.
    """
    p = table.field.modulus
    for r, brow in enumerate(block.rows):
        dst = table.rows[row0 + r]
        for c, v in brow.items():
            g, f = divmod(c, d_f)
            j = (g0 + g) * n_f + f0 + f
            w = dst.get(j, 0) + v
            if p is not None:
                w %= p
            if w:
                dst[j] = w
            else:
                dst.pop(j, None)


# -- validation -----------------------------------------------------------


def category_algebra(cat: DgCategory):
    """The category as one algebra A = (+)_{a,b,k} hom(a, b)^k, a ring with
    several objects, laid out object by object by degree.

    Returns (owner, T, D, S, e): owner[i] is the object pair (a, b) whose
    hom complex holds basis index i of A, so n = len(owner) is dim A; T
    (n x n^2) is the multiplication, column g * n + f holding g f, with zero
    where g and f do not compose; D is the block-diagonal differential, S
    the diagonal of degree signs (-1)^k, and e = sum_a id_a a column, zero
    on hom(a, a)^0 where id_a has the wrong length.  Raises DgError if a
    composition table has the wrong shape.
    """
    field, objs, hom = cat.field, cat.objects, cat.hom
    off, owner = {}, []
    for a, b in product(objs, objs):
        for k in hom(a, b).degrees():
            off[a, b, k] = len(owner)
            owner += [(a, b)] * hom(a, b).dim(k)
    n = len(owner)
    unit = [field.zero] * n
    for a in objs:
        if cat.ids[a] and len(cat.ids[a]) == hom(a, a).dim(0):
            unit[off[a, a, 0]:off[a, a, 0] + len(cat.ids[a])] = cat.ids[a]
    one, minus = field.one, field.neg(field.one)
    D = Matrix.zeros(field, n, n)
    S = Matrix(field, n, n, [None] * n)
    out_of = {a: [] for a in objs}
    for (a, b, k), o in off.items():
        out_of[a].append((b, k, o))
        for r in range(hom(a, b).dim(k)):
            S.rows[o + r] = {o + r: one if k % 2 == 0 else minus}
        if (a, b, k + 1) in off:
            dst = off[a, b, k + 1]
            for r, row in enumerate(hom(a, b).d(k).rows):
                D.rows[dst + r] = {o + j: v for j, v in row.items()}
    T = Matrix.zeros(field, n, n * n)
    for (a, b, j), f0 in off.items():
        for c, i, g0 in out_of[b]:
            row0 = off.get((a, c, i + j))
            if row0 is not None:
                add_bilinear_block(T, cat.comp_matrix(a, b, c, i, j), row0, g0,
                                   f0, hom(a, b).dim(j), n)
    return owner, T, D, S, Matrix.column(field, unit)


def _failing_tuples(cat: DgCategory, whole) -> tuple:
    """The sets of (a, b), (a, b, c) and (a, b, c, e) on which the units,
    Leibniz and associativity of `validate_category` fail: failing columns
    f, g n + f and (h n + g) n + f, for f in hom(a, b), g in hom(b, c) and
    h in hom(c, e).  Unit laws need identities in `whole`."""
    owner, T, D, S, e = category_algebra(cat)
    n = len(owner)
    one = Matrix.identity(cat.field, n)
    units = {owner[f] for f in differing_columns(mul_kron(T, e, n), one)
             if owner[f][1] in whole}
    units.update(owner[f] for f in differing_columns(mul_kron(T, n, e), one)
                 if owner[f][0] in whole)
    leibniz = {(*owner[k % n], owner[k // n][1]) for k in differing_columns(
        D @ T, mul_kron(T, D, n) + mul_kron(T, S, D))}
    assoc = {(*owner[k % n], *owner[k // (n * n)]) for k in differing_columns(
        mul_kron(T, T, n), mul_kron(T, n, T))}
    return units, leibniz, assoc


def validate_category(cat: DgCategory, max_report: int = 20) -> list:
    """Check all dg category axioms; returns a list of violations.

    The category is decided as a whole, as a ring with several objects: in
    the algebra A = (+)_{a,b,k} hom(a, b)^k of `category_algebra`, with
    multiplication T, differential D, degree signs S and unit
    e = sum_a id_a, the axioms are four identities, each product
    T kron(X, Y) taken by `mul_kron`:
      left unit:     T kron(e, 1) = 1;
      right unit:    T kron(1, e) = 1;
      Leibniz:       D T = T kron(D, 1) + T kron(S, D);
      associativity: T kron(T, 1) = T kron(1, T).
    They imply that the identities are closed: on e (x) e, Leibniz and the
    units give D e = D e + D e.  If all four hold and every identity has
    the right length there is no violation.

    Otherwise a failing column of an identity names its arguments, hence
    the object tuple they live on, and only those tuples are walked element
    by element to word the violations: the list is that of walking every
    tuple.  A unit law needing an identity of the wrong length is skipped.
    A composition table of the wrong shape raises DgError.
    """
    field, objs = cat.field, cat.objects
    whole = {a for a in objs if len(cat.ids[a]) == cat.hom(a, a).dim(0)}
    units, leibniz, assoc = _failing_tuples(cat, whole)
    if not (units or leibniz or assoc) and len(whole) == len(objs):
        return []
    bad = []
    rank = {a: r for r, a in enumerate(objs)}

    def in_order(tuples):
        return sorted(tuples, key=lambda t: [rank[x] for x in t])

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    for a in objs:
        if a not in whole:
            report(f"identity of {a!r} has wrong length")
        elif not cat.d_elt(cat.id_elt(a)).is_zero(field):
            report(f"identity of {a!r} is not closed")
    # units act as identities
    for a, b in in_order(units):
        idb, ida = cat.id_elt(b), cat.id_elt(a)
        for f in cat.hom_basis(a, b):
            if b in whole and cat.compose(idb, f).vec != f.vec:
                report(f"left unit fails on hom({a!r},{b!r}) deg {f.degree}")
                break
            if a in whole and cat.compose(f, ida).vec != f.vec:
                report(f"right unit fails on hom({a!r},{b!r}) deg {f.degree}")
                break
    # Leibniz: d(g f) = dg f + (-1)^|g| g df
    for a, b, c in in_order(leibniz):
        for g in cat.hom_basis(b, c):
            sgn = field.one if g.degree % 2 == 0 else field.neg(field.one)
            for f in cat.hom_basis(a, b):
                lhs = cat.d_elt(cat.compose(g, f))
                rhs = elt_add(field, cat.compose(cat.d_elt(g), f),
                              elt_scale(field, sgn, cat.compose(g, cat.d_elt(f))))
                if lhs.vec != rhs.vec:
                    report(f"Leibniz fails at ({a!r},{b!r},{c!r}) on "
                           f"degrees ({g.degree},{f.degree})")
                    break
    # associativity
    for a, b, c, e in in_order(assoc):
        for h in cat.hom_basis(c, e):
            for g in cat.hom_basis(b, c):
                hg = cat.compose(h, g)
                for f in cat.hom_basis(a, b):
                    if cat.compose(hg, f).vec != cat.compose(h, cat.compose(g, f)).vec:
                        report(f"associativity fails at ({a!r},{b!r},{c!r},{e!r})")
                        break
    return bad


def cats_equal(c1: DgCategory, c2: DgCategory, check_comp: bool = True) -> bool:
    """Structural equality: objects, hom complexes, identities, composition."""
    if c1 is c2:
        return True
    if c1.objects != c2.objects or c1.field != c2.field:
        return False
    for a in c1.objects:
        for b in c1.objects:
            if c1.hom(a, b) != c2.hom(a, b):
                return False
    for a in c1.objects:
        if tuple(c1.ids[a]) != tuple(c2.ids[a]):
            return False
    if check_comp:
        for a in c1.objects:
            for b in c1.objects:
                for c in c1.objects:
                    for i in c1.hom(b, c).degrees():
                        for j in c1.hom(a, b).degrees():
                            if c1.comp_matrix(a, b, c, i, j) != \
                                    c2.comp_matrix(a, b, c, i, j):
                                return False
    return True


# -- dg functors ----------------------------------------------------------


class DgFunctor:
    def __init__(self, source: DgCategory, target: DgCategory,
                 obj_map: dict, hom_maps: dict):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.hom_maps = hom_maps  # (a, b) -> {degree: Matrix}

    def hom_matrix(self, a, b, degree) -> Matrix:
        tgt_hom = self.target.hom(self.obj_map[a], self.obj_map[b])
        m = self.hom_maps.get((a, b), {}).get(degree)
        if m is None:
            return Matrix.zeros(self.source.field,
                                tgt_hom.dim(degree), self.source.hom(a, b).dim(degree))
        return m

    def hom_graded_map(self, a, b) -> GradedMap:
        src = self.source.hom(a, b)
        tgt = self.target.hom(self.obj_map[a], self.obj_map[b])
        return GradedMap(src, tgt, 0,
                         {k: self.hom_matrix(a, b, k) for k in src.degrees()})

    def apply(self, f: HomElt) -> HomElt:
        m = self.hom_matrix(f.src, f.tgt, f.degree)
        return HomElt(self.obj_map[f.src], self.obj_map[f.tgt], f.degree,
                      m.apply(f.vec))

    @cached_property
    def is_identity(self) -> bool:
        """Whether this is the identity functor of its source, checked row by
        row without building identity matrices."""
        if self.target is not self.source or \
                any(self.obj_map[a] != a for a in self.source.objects):
            return False
        one = self.source.field.one
        for a in self.source.objects:
            for b in self.source.objects:
                for k in self.source.hom(a, b).degrees():
                    m = self.hom_matrix(a, b, k)
                    if m.nrows != m.ncols or any(
                            len(row) != 1 or row.get(i) != one
                            for i, row in enumerate(m.rows)):
                        return False
        return True


def identity_functor(cat: DgCategory) -> DgFunctor:
    maps = {}
    for a in cat.objects:
        for b in cat.objects:
            h = cat.hom(a, b)
            maps[(a, b)] = {k: Matrix.identity(cat.field, h.dim(k))
                            for k in h.degrees()}
    return DgFunctor(cat, cat, {a: a for a in cat.objects}, maps)


def compose_functors(g: DgFunctor, f: DgFunctor) -> DgFunctor:
    """g after f.  An identity factor composes without products: the result
    is a new functor sharing the other factor's matrices."""
    obj_map = {a: g.obj_map[f.obj_map[a]] for a in f.source.objects}
    if g.source is f.target and (f.is_identity or g.is_identity):
        return DgFunctor(f.source, g.target, obj_map,
                         (g if f.is_identity else f).hom_maps)
    maps = {}
    for a in f.source.objects:
        for b in f.source.objects:
            h = f.source.hom(a, b)
            maps[(a, b)] = {
                k: g.hom_matrix(f.obj_map[a], f.obj_map[b], k) @ f.hom_matrix(a, b, k)
                for k in h.degrees()}
    return DgFunctor(f.source, g.target, obj_map, maps)


def functors_equal(f: DgFunctor, g: DgFunctor) -> bool:
    if f.obj_map != g.obj_map:
        return False
    if f.hom_maps is g.hom_maps and f.source is g.source and \
            f.target is g.target:
        return True
    for a in f.source.objects:
        for b in f.source.objects:
            for k in f.source.hom(a, b).degrees():
                if f.hom_matrix(a, b, k) != g.hom_matrix(a, b, k):
                    return False
    return True


def validate_functor(F: DgFunctor, max_report: int = 20) -> list:
    """Check that F preserves identities, differentials and composition.

    Per object triple (a, b, c) and degrees (i, j), column
    g_idx * dim hom(a, b)^j + f_idx of
    F_ac C^src(a,b,c,i,j) - C^tgt(Fa,Fb,Fc,i,j) kron(F_bc, F_ab) is
    F(g f) - F(g) F(f).  The triple's violation is reported once for each g
    of hom(b, c) with a failing column, as walking its elements would.
    """
    bad = []
    src, tgt = F.source, F.target

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    for a in src.objects:
        if a not in F.obj_map or F.obj_map[a] not in tgt.objects:
            report(f"object map misses {a!r}")
            return bad
    for a in src.objects:
        ida = src.id_elt(a)
        if len(ida.vec) != src.hom(a, a).dim(0):
            report(f"identity of {a!r} has wrong length")
        elif F.apply(ida).vec != tgt.id_elt(F.obj_map[a]).vec:
            report(f"functor does not preserve identity of {a!r}")
    for a, b in product(src.objects, repeat=2):
        if not F.hom_graded_map(a, b).is_closed():
            report(f"hom map ({a!r},{b!r}) does not commute with d")
    for a, b, c in product(src.objects, repeat=3):
        Fa, Fb, Fc = F.obj_map[a], F.obj_map[b], F.obj_map[c]
        hab = src.hom(a, b)
        failing = set()         # (degree, index) of each g that fails
        for i, j in product(src.hom(b, c).degrees(), hab.degrees()):
            lhs = F.hom_matrix(a, c, i + j) @ src.comp_matrix(a, b, c, i, j)
            rhs = mul_kron(tgt.comp_matrix(Fa, Fb, Fc, i, j),
                           F.hom_matrix(b, c, i), F.hom_matrix(a, b, j))
            failing.update((i, k // hab.dim(j))
                           for k in differing_columns(lhs, rhs))
        for _ in failing:
            report(f"functor breaks composition at ({a!r},{b!r},{c!r})")
    return bad


def is_hom_isomorphism(F: DgFunctor) -> bool:
    """Degreewise bijectivity of every hom map."""
    for a in F.source.objects:
        for b in F.source.objects:
            if not F.hom_graded_map(a, b).is_iso():
                return False
    return True


# -- bimodules ------------------------------------------------------------


class Bimodule:
    """A dg bimodule: values(b, a) contravariant in b, covariant in a.

    `cat_a` acts by post-composition shapes (left action), `cat_b` by
    pre-composition shapes (right action).  Action tables follow the same
    flattening convention as composition.
    """

    def __init__(self, cat_b: DgCategory, cat_a: DgCategory, values: dict,
                 left_act: Callable, right_act: Callable):
        self.cat_b = cat_b
        self.cat_a = cat_a
        self._values = values
        self.left_act = left_act    # (b, a1, a2, i, j) -> Matrix
        self.right_act = right_act  # (b2, b1, a, i, j) -> Matrix

    def values(self, b, a) -> Complex:
        v = self._values.get((b, a))
        if v is None:
            return zero_complex(self.cat_a.field)
        return v

    def act_left(self, u: HomElt, b, m_deg: int) -> Matrix:
        """Matrix of values(b, u.src)^{m_deg} -> values(b, u.tgt)^{m_deg+|u|}."""
        return mul_kron(self.left_act(b, u.src, u.tgt, u.degree, m_deg),
                        Matrix.column(self.cat_a.field, u.vec),
                        self.values(b, u.src).dim(m_deg))

    def act_right(self, v: HomElt, a, m_deg: int) -> Matrix:
        """Matrix of values(v.tgt, a)^{m_deg} -> values(v.src, a)^{m_deg+|v|}."""
        return mul_kron(self.right_act(v.src, v.tgt, a, m_deg, v.degree),
                        self.values(v.tgt, a).dim(m_deg),
                        Matrix.column(self.cat_a.field, v.vec))


def restricted_diagonal(cat: DgCategory, f: DgFunctor, g: DgFunctor) -> Bimodule:
    """The bimodule (b', a') -> hom_cat(g b', f a') along functors into `cat`."""
    if f.target is not cat or g.target is not cat:
        raise DgError("restriction functors must land in the given category")
    values = {}
    for b in g.source.objects:
        for a in f.source.objects:
            values[(b, a)] = cat.hom(g.obj_map[b], f.obj_map[a])

    def left_act(b, a1, a2, i, j):
        # u in hom_{f.source}(a1, a2)^i acts by post-composition with f(u)
        gb, fa1 = g.obj_map[b], f.obj_map[a1]
        return mul_kron(cat.comp_matrix(gb, fa1, f.obj_map[a2], i, j),
                        f.hom_matrix(a1, a2, i), cat.hom(gb, fa1).dim(j))

    def right_act(b2, b1, a, i, j):
        # v in hom_{g.source}(b2, b1)^j acts by pre-composition with g(v)
        gb1, fa = g.obj_map[b1], f.obj_map[a]
        return mul_kron(cat.comp_matrix(g.obj_map[b2], gb1, fa, i, j),
                        cat.hom(gb1, fa).dim(i), g.hom_matrix(b2, b1, j))

    return Bimodule(g.source, f.source, values, left_act, right_act)


def bimodules_equal(m1: Bimodule, m2: Bimodule) -> bool:
    """Structural equality of values and action tables on bases."""
    if m1.cat_a.objects != m2.cat_a.objects or m1.cat_b.objects != m2.cat_b.objects:
        return False
    for b in m1.cat_b.objects:
        for a in m1.cat_a.objects:
            if m1.values(b, a) != m2.values(b, a):
                return False
    for b in m1.cat_b.objects:
        for a1 in m1.cat_a.objects:
            for a2 in m1.cat_a.objects:
                for u in m1.cat_a.hom_basis(a1, a2):
                    for j in m1.values(b, a1).degrees():
                        if m1.act_left(u, b, j) != m2.act_left(u, b, j):
                            return False
    for a in m1.cat_a.objects:
        for b1 in m1.cat_b.objects:
            for b2 in m1.cat_b.objects:
                for v in m1.cat_b.hom_basis(b2, b1):
                    for i in m1.values(b1, a).degrees():
                        if m1.act_right(v, a, i) != m2.act_right(v, a, i):
                            return False
    return True


# -- directed assembly ----------------------------------------------------


def block_label(i: int, obj) -> str:
    return f"{i}:{obj}"


def directed_assemble(components, bimods=None, mults=None) -> DgCategory:
    """Assemble a directed dg category from components and connecting bimodules.

    `bimods[(i, j)]` for i > j is a Bimodule with cat_b = components[j]
    (source side) and cat_a = components[i]; morphisms run from lower block
    index to higher, hom(block i, block j) = 0 for i > j.  `mults[(i, k, j)]`
    for j < k < i gives values(x,y)^q in phi_kj, values(y,z)^p in phi_ik ->
    values(x,z)^{p+q}, flattened with column index g_idx * dim_q + f_idx.
    """
    bimods = bimods or {}
    mults = mults or {}
    components = list(components)
    field = components[0].field
    objects = []
    where = {}
    for i, comp in enumerate(components):
        for x in comp.objects:
            lbl = block_label(i, x)
            objects.append(lbl)
            where[lbl] = (i, x)

    hom = {}
    for la in objects:
        for lb in objects:
            i, x = where[la]
            j, y = where[lb]
            if i == j:
                hom[(la, lb)] = components[i].hom(x, y)
            elif i < j:
                phi = bimods.get((j, i))
                if phi is not None:
                    hom[(la, lb)] = phi.values(x, y)

    def comp_fn(la, lb, lc, i_deg, j_deg):
        ia, x = where[la]
        ib, y = where[lb]
        ic, z = where[lc]
        rows = hom.get((la, lc), zero_complex(field)).dim(i_deg + j_deg)
        cols = hom.get((lb, lc), zero_complex(field)).dim(i_deg) * \
            hom.get((la, lb), zero_complex(field)).dim(j_deg)
        if rows == 0 or cols == 0:
            return Matrix.zeros(field, rows, cols)
        if ia == ib == ic:
            return components[ia].comp_matrix(x, y, z, i_deg, j_deg)
        if ia == ib < ic:
            # g in phi_{ic,ia}(y, z), f in component ia: right action
            return bimods[(ic, ia)].right_act(x, y, z, i_deg, j_deg)
        if ia < ib == ic:
            return bimods[(ic, ia)].left_act(x, y, z, i_deg, j_deg)
        if ia < ib < ic:
            table = mults.get((ic, ib, ia))
            if table is None:
                raise DgError(f"missing multiplication map for blocks "
                              f"({ic},{ib},{ia})")
            m = table(x, y, z, i_deg, j_deg) if callable(table) else \
                table.get(((x, y, z), (i_deg, j_deg)))
            if m is None:
                m = Matrix.zeros(field, rows, cols)
            return m
        return Matrix.zeros(field, rows, cols)

    ids = {}
    for lbl in objects:
        i, x = where[lbl]
        ids[lbl] = components[i].ids[x]
    return DgCategory(field, objects, hom, comp_fn, ids)


def check_directed(cat: DgCategory, partition) -> bool:
    """True iff hom(x, y) is acyclic for x in a later block, y in an earlier one."""
    seen = [x for block in partition for x in block]
    if sorted(seen) != sorted(cat.objects):
        raise DgError("partition does not cover the objects exactly")
    for pi, later in enumerate(partition):
        for qi in range(pi):
            for x in later:
                for y in partition[qi]:
                    if not cat.hom(x, y).is_acyclic():
                        return False
    return True


def ext_table(cat: DgCategory) -> dict:
    """Cohomology dimension table of every hom complex."""
    return {(a, b): cat.hom(a, b).cohomology()
            for a in cat.objects for b in cat.objects}


@dataclass
class H0Category:
    """An ordinary category presented by H^0 hom bases and composition tables."""

    objects: tuple
    hom_dims: dict       # (a, b) -> dim H^0
    comp: dict           # (a, b, c) -> Matrix, columns flattened g*dim+f
    ids: dict            # a -> coordinate tuple in H^0(hom(a, a))


def h0_category(cat: DgCategory) -> H0Category:
    """H^0 of `cat`: each table is proj @ cycles.solve(C kron(R_bc, R_ab)),
    with R the chosen H^0 representatives of cohomology_basis."""
    objs = cat.objects
    bases = {(a, b): cohomology_basis(cat.hom(a, b), 0)
             for a in objs for b in objs}

    def to_h0(pair, cocycles: Matrix) -> Matrix:
        _, proj, cycles = bases[pair]
        coords = cycles.solve(cocycles)
        if coords is None:
            raise DgError("element is not a cocycle")
        return proj @ coords

    comp = {(a, b, c): to_h0((a, c), mul_kron(cat.comp_matrix(a, b, c, 0, 0),
                                             bases[(b, c)][0], bases[(a, b)][0]))
        for a, b, c in product(objs, repeat=3)}
    ids = {a: to_h0((a, a), Matrix.column(cat.field, cat.ids[a])).columns()[0]
           for a in objs}
    return H0Category(objs, {pair: reps.ncols for pair, (reps, _, _)
                             in bases.items()}, comp, ids)


# -- small constructors ----------------------------------------------------


def field_category(field, obj="*") -> DgCategory:
    """The ground field as a one-object dg category in degree zero."""
    hom = {(obj, obj): Complex(field, {0: 1}, {})}

    def comp_fn(a, b, c, i, j):
        return Matrix.identity(field, 1)

    return DgCategory(field, [obj], hom, comp_fn, {obj: (field.one,)})


def algebra_category(field, dim: int, mult: Callable, unit, obj="*",
                     name_prefix=None) -> DgCategory:
    """A finite-dimensional algebra as a one-object dg category in degree 0.

    `mult(i, j)` returns the coordinate tuple of e_i * e_j.
    """
    hom = {(obj, obj): Complex(field, {0: dim}, {})}
    table = Matrix.zeros(field, dim, dim * dim)
    for i in range(dim):
        for j in range(dim):
            for r, v in enumerate(mult(i, j)):
                if not field.is_zero(v):
                    table.set(r, i * dim + j, v)
    comp = {(obj, obj, obj): {(0, 0): table}}
    return DgCategory(field, [obj], hom, comp, {obj: tuple(unit)})
