"""Cochain complexes over an exact field, on finite support windows.

A Complex stores per-degree dimensions and differentials d_k : C^k -> C^{k+1}
with d_{k+1} d_k = 0 enforced at construction.  The cone convention is the
block differential [[d_T, f], [0, -d_S]] with the source placed in the second
summand shifted by one; the shift negates the differential for odd shifts.
"""

from __future__ import annotations

from .linalg import Matrix, kron, quotient_maps


class ComplexError(ValueError):
    pass


class Complex:
    """A bounded cochain complex.  Immutable after construction."""

    __slots__ = ("field", "dims", "diffs", "lo", "hi")

    def __init__(self, field, dims: dict, diffs: dict, validate: bool = True):
        self.field = field
        self.dims = {k: d for k, d in dims.items() if d}
        self.diffs = {}
        for k, m in diffs.items():
            if m.is_zero():
                continue
            if m.shape != (self.dim(k + 1), self.dim(k)):
                raise ComplexError(
                    f"differential at degree {k} has shape {m.shape}, expected "
                    f"({self.dim(k + 1)},{self.dim(k)})")
            self.diffs[k] = m
        support = sorted(self.dims)
        self.lo = support[0] if support else 0
        self.hi = support[-1] if support else 0
        if validate:
            for k in list(self.diffs):
                nxt = self.d(k + 1) @ self.d(k)
                if not nxt.is_zero():
                    raise ComplexError(f"d^2 != 0 at degree {k}")

    @property
    def window(self):
        return (self.lo, self.hi)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def d(self, k: int) -> Matrix:
        m = self.diffs.get(k)
        if m is None:
            return Matrix.zeros(self.field, self.dim(k + 1), self.dim(k))
        return m

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        if self.field != other.field or self.dims != other.dims:
            return False
        return all(self.d(k) == other.d(k) for k in self.dims)

    def __repr__(self):
        dims = ", ".join(f"{k}:{d}" for k, d in sorted(self.dims.items()))
        return f"Complex({self.field.name}; {dims})"

    # -- basic operations -------------------------------------------------

    def shift(self, n: int) -> "Complex":
        """C[n]: dims'(k) = dims(k+n), diff'(k) = (-1)^n diff(k+n)."""
        sgn = self.field.one if n % 2 == 0 else self.field.neg(self.field.one)
        dims = {k - n: d for k, d in self.dims.items()}
        diffs = {k - n: m.scaled(sgn) for k, m in self.diffs.items()}
        return Complex(self.field, dims, diffs, validate=False)

    def cohomology(self) -> dict:
        """Map degree -> dim H^k, for the degrees where it is nonzero."""
        r = {k: self.d(k).rank() for k in range(self.lo - 1, self.hi + 1)}
        out = {}
        for k in range(self.lo, self.hi + 1):
            h = self.dim(k) - r[k] - r[k - 1]
            if h:
                out[k] = h
        return out

    def is_acyclic(self) -> bool:
        return not self.cohomology()

    def cocycles(self, k: int) -> Matrix:
        return self.d(k).kernel_basis()


def zero_complex(field) -> Complex:
    return Complex(field, {}, {})


def one_dim_complex(field, degree: int = 0) -> Complex:
    """The field placed in a single degree."""
    return Complex(field, {degree: 1}, {})


class GradedMap:
    """A degree-r graded map f: C -> D with components f_k: C^k -> D^{k+r}."""

    __slots__ = ("source", "target", "degree", "comps")

    def __init__(self, source: Complex, target: Complex, degree: int, comps: dict):
        self.source = source
        self.target = target
        self.degree = degree
        self.comps = {}
        for k, m in comps.items():
            if m.shape != (target.dim(k + degree), source.dim(k)):
                raise ComplexError(
                    f"component at {k} has shape {m.shape}, expected "
                    f"({target.dim(k + degree)},{source.dim(k)})")
            if not m.is_zero():
                self.comps[k] = m

    def comp(self, k: int) -> Matrix:
        m = self.comps.get(k)
        if m is None:
            return Matrix.zeros(self.source.field,
                                self.target.dim(k + self.degree), self.source.dim(k))
        return m

    def is_closed(self) -> bool:
        """d_T f == (-1)^|f| f d_S in every degree, i.e. d(f) = 0."""
        neg = self.source.field.neg(self.source.field.one)
        for k in range(self.source.lo - 1, self.source.hi + 1):
            rhs = self.comp(k + 1) @ self.source.d(k)
            if self.degree % 2:
                rhs = rhs.scaled(neg)
            if self.target.d(k + self.degree) @ self.comp(k) != rhs:
                return False
        return True

    def is_iso(self) -> bool:
        """Degreewise bijectivity (no chain condition)."""
        for k in set(self.source.dims) | {k - self.degree for k in self.target.dims}:
            m = self.comp(k)
            if m.nrows != m.ncols or m.rank() != m.nrows:
                return False
        return True

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ComplexError("composition mismatch")
        comps = {}
        for k in other.source.dims:
            comps[k] = self.comp(k + other.degree) @ other.comp(k)
        return GradedMap(other.source, self.target, self.degree + other.degree, comps)

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            return False
        keys = set(self.comps) | set(other.comps)
        return all(self.comp(k) == other.comp(k) for k in keys)

    @staticmethod
    def identity(c: Complex) -> "GradedMap":
        return GradedMap(c, c, 0, {k: Matrix.identity(c.field, d)
                                   for k, d in c.dims.items()})

    @staticmethod
    def zero(source: Complex, target: Complex, degree: int = 0) -> "GradedMap":
        return GradedMap(source, target, degree, {})


def cone(f: GradedMap) -> Complex:
    """Mapping cone of a closed degree-zero map.

    cone^k = T^k (+) S^{k+1} with differential [[d_T, f], [0, -d_S]].
    """
    if f.degree != 0:
        raise ComplexError("cone requires a degree-zero map")
    if not f.is_closed():
        raise ComplexError("cone requires a closed map")
    S, T = f.source, f.target
    field = S.field
    neg = field.neg(field.one)
    dims = {}
    for k in set(T.dims) | {k - 1 for k in S.dims}:
        d = T.dim(k) + S.dim(k + 1)
        if d:
            dims[k] = d
    diffs = {}
    for k in dims:
        diffs[k] = Matrix.block(
            field, [T.dim(k + 1), S.dim(k + 2)], [T.dim(k), S.dim(k + 1)],
            {(0, 0): T.d(k), (0, 1): f.comp(k + 1),
             (1, 1): S.d(k + 1).scaled(neg)})
    return Complex(field, dims, diffs, validate=False)


def tensor(c: Complex, d: Complex) -> Complex:
    """Tensor product with the Koszul sign (-1)^i on 1 (x) d_d at bidegree (i, j)."""
    if c.field != d.field:
        raise ComplexError("field mismatch")
    field = c.field
    pairs = {}
    for k in range(c.lo + d.lo, c.hi + d.hi + 1):
        pairs[k] = [(i, k - i) for i in range(c.lo, c.hi + 1) if c.dim(i) and d.dim(k - i)]
    dims = {k: sum(c.dim(i) * d.dim(j) for i, j in ps) for k, ps in pairs.items()}
    diffs = {}
    for k, ps in pairs.items():
        if not dims.get(k) or not dims.get(k + 1):
            continue
        tgt = pairs[k + 1]
        blocks = {}
        for bj, (i, j) in enumerate(ps):
            m1 = kron(c.d(i), Matrix.identity(field, d.dim(j)))
            if (i + 1, j) in tgt and not m1.is_zero():
                blocks[(tgt.index((i + 1, j)), bj)] = m1
            sgn = field.one if i % 2 == 0 else field.neg(field.one)
            m2 = kron(Matrix.identity(field, c.dim(i)), d.d(j)).scaled(sgn)
            if (i, j + 1) in tgt and not m2.is_zero():
                blocks[(tgt.index((i, j + 1)), bj)] = m2
        diffs[k] = Matrix.block(
            field, [c.dim(i) * d.dim(j) for i, j in tgt],
            [c.dim(i) * d.dim(j) for i, j in ps], blocks)
    return Complex(field, dims, diffs, validate=False)


def hom_complex(c: Complex, d: Complex) -> Complex:
    """Hom(C, D)^k = (+)_i Hom(C^i, D^{i+k}); differential f -> d f - (-1)^k f d.

    A map u: C^i -> D^{i+k} is flattened row-major: index q * dim C^i + p is
    the matrix unit sending basis p of C^i to basis q of D^{i+k}.
    """
    if c.field != d.field:
        raise ComplexError("field mismatch")
    field = c.field
    pieces = {}
    for k in range(d.lo - c.hi, d.hi - c.lo + 1):
        ps = [i for i in range(c.lo, c.hi + 1) if c.dim(i) and d.dim(i + k)]
        if ps:
            pieces[k] = ps
    dims = {k: sum(c.dim(i) * d.dim(i + k) for i in ps) for k, ps in pieces.items()}
    diffs = {}
    for k, ps in pieces.items():
        if not dims.get(k + 1):
            continue
        tgt = pieces[k + 1]
        sgn = field.one if k % 2 == 0 else field.neg(field.one)
        blocks = {}
        for bj, i in enumerate(ps):
            # post-composition with d_D: u -> d_D u, lands at the same i
            m1 = kron(d.d(i + k), Matrix.identity(field, c.dim(i)))
            if i in tgt and not m1.is_zero():
                blocks[(tgt.index(i), bj)] = m1
            # pre-composition: u -> u d_C, from block i to block i-1
            m2 = kron(Matrix.identity(field, d.dim(i + k)),
                      c.d(i - 1).transpose()).scaled(field.neg(sgn))
            if i - 1 in tgt and not m2.is_zero():
                blocks[(tgt.index(i - 1), bj)] = m2
        diffs[k] = Matrix.block(
            field, [c.dim(i) * d.dim(i + k + 1) for i in tgt],
            [c.dim(i) * d.dim(i + k) for i in ps], blocks)
    return Complex(field, dims, diffs, validate=False)


def hom_blocks(c: Complex, d: Complex, k: int):
    """Block layout of hom_complex(c, d)^k: list of (i, rows, cols, offset)."""
    out = []
    off = 0
    for i in range(c.lo, c.hi + 1):
        if c.dim(i) and d.dim(i + k):
            out.append((i, d.dim(i + k), c.dim(i), off))
            off += c.dim(i) * d.dim(i + k)
    return out


def vec_to_graded_map(c: Complex, d: Complex, k: int, vec) -> GradedMap:
    """Interpret hom-complex coordinates at degree k as a graded map."""
    field = c.field
    comps = {}
    for i, rows, cols, off in hom_blocks(c, d, k):
        m = Matrix.zeros(field, rows, cols)
        for q in range(rows):
            for p in range(cols):
                v = vec[off + q * cols + p]
                if not field.is_zero(v):
                    m.set(q, p, v)
        comps[i] = m
    return GradedMap(c, d, k, comps)


def graded_map_to_vec(f: GradedMap):
    vec = []
    for i, rows, cols, off in hom_blocks(f.source, f.target, f.degree):
        m = f.comp(i)
        for q in range(rows):
            for p in range(cols):
                vec.append(m.get(q, p))
    return tuple(vec)


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """f (x) g on tensor products, for closed degree-zero maps only."""
    if f.degree != 0 or g.degree != 0:
        raise ComplexError("tensor_map implemented for degree-zero maps")
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    field = src.field
    comps = {}
    for k in src.degrees():
        src_pairs = [(i, k - i) for i in range(f.source.lo, f.source.hi + 1)
                     if f.source.dim(i) and g.source.dim(k - i)]
        tgt_pairs = [(i, k - i) for i in range(f.target.lo, f.target.hi + 1)
                     if f.target.dim(i) and g.target.dim(k - i)]
        blocks = {}
        for bj, (i, j) in enumerate(src_pairs):
            m = kron(f.comp(i), g.comp(j))
            if (i, j) in tgt_pairs and not m.is_zero():
                blocks[(tgt_pairs.index((i, j)), bj)] = m
        comps[k] = Matrix.block(
            field, [f.target.dim(i) * g.target.dim(j) for i, j in tgt_pairs],
            [f.source.dim(i) * g.source.dim(j) for i, j in src_pairs], blocks)
    return GradedMap(src, tgt, 0, comps)


def cohomology_basis(c: Complex, k: int):
    """Representatives of a basis of H^k(C).

    Returns (reps, proj) where reps is a dim C^k x h matrix of cocycle
    representatives and proj maps a cocycle's coordinates to H^k-coordinates
    (composing proj with the inclusion of boundaries gives zero).  First-pivot
    echelon choices make the basis reproducible.
    """
    field = c.field
    cocycles = c.cocycles(k)
    boundaries = c.d(k - 1)
    # coordinates of boundaries inside the cocycle basis
    in_cyc = cocycles.solve(boundaries)
    if in_cyc is None:
        raise ComplexError("boundaries not contained in cocycles")
    proj_q, lift_q = quotient_maps(field, cocycles.ncols, in_cyc)
    reps = cocycles @ lift_q
    # proj: C^k supported on cocycles -> H-coordinates
    return reps, proj_q, cocycles


def induced_cohomology_map(f: GradedMap, k: int) -> Matrix:
    """Matrix of H^k(f): H^k(source) -> H^{k+|f|}(target) for closed f."""
    src, tgt = f.source, f.target
    reps_s, _, _ = cohomology_basis(src, k)
    reps_t, proj_t, cocycles_t = cohomology_basis(tgt, k + f.degree)
    image = f.comp(k) @ reps_s
    coords = cocycles_t.solve(image)
    if coords is None:
        raise ComplexError("image of a cocycle is not a cocycle; map not closed?")
    return proj_t @ coords


def is_quasi_iso(f: GradedMap, h_src: dict = None, h_tgt: dict = None) -> bool:
    """True iff the closed degree-zero map f induces isomorphisms on H^*.

    `h_src` and `h_tgt` are the cohomology tables of f's source and target,
    computed here when not given.  Unequal tables rule an isomorphism out,
    and a degree where both sides vanish needs no induced map, so H^k(f) is
    built only for the degrees k of `h_src`.
    """
    if h_src is None:
        h_src = f.source.cohomology()
    if h_tgt is None:
        h_tgt = f.target.cohomology()
    if h_src != h_tgt:
        return False
    for k in h_src:
        m = induced_cohomology_map(f, k)
        if m.nrows != m.ncols or m.rank() != m.nrows:
            return False
    return True
