"""Finite-length filtered Artinian algebras: truncations, graded modules,
Auslander algebras, truncated tensor products, Veronese/refinement, and the
dg-category squares that feed the gluing engine.

A filtration is a descending chain of ideals F^0 = A >= F^{-1} >= ... >=
F^{-n} = 0 with F^i F^j <= F^{i+j}.  Graded modules over the associated Rees
algebra are stored on the window [-n+1, 0]; degrees >= 0 are canonical copies
of degree 0, so the distinguished degree-one element only ever appears through
the transition maps.  All quotient spaces carry first-pivot complement bases,
making every construction reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

from .complexes import Complex
from .dgcat import DgCategory, DgFunctor, add_bilinear_block
from .linalg import LinAlgError, Matrix, kron, mul_kron, quotient_maps


class FiltError(ValueError):
    pass


class FilteredAlgebra:
    """A finite-dimensional commutative unital algebra with an ideal filtration.

    `mult` maps a pair of basis indices to the coordinate tuple of the
    product; `filtration[k]` is a matrix whose columns span F^{-k}, for
    k = 0..length (F^0 the whole algebra, F^{-length} = 0).
    """

    def __init__(self, field, dim: int, mult, unit, length: int,
                 filtration, basis_names=None):
        self.field = field
        self.dim = dim
        self.unit = tuple(unit)
        self.length = length
        self.basis_names = tuple(basis_names) if basis_names else \
            tuple(f"e{i}" for i in range(dim))
        if callable(mult):
            self._mult = {(i, j): tuple(mult(i, j))
                          for i in range(dim) for j in range(dim)}
        else:
            self._mult = {k: tuple(v) for k, v in mult.items()}
        self.filtration = [m for m in filtration]
        if len(self.filtration) != length + 1:
            raise FiltError("filtration must list F^0 .. F^{-length}")
        self._quot_cache = {}
        self._membership_cache = {}

    # -- algebra arithmetic -------------------------------------------

    def mul_basis(self, i, j):
        return self._mult[(i, j)]

    @cached_property
    def table(self) -> Matrix:
        """Structure constants: the dim x dim^2 matrix M whose column
        i * dim + j is e_i e_j, so that u v = M kron(u, v)."""
        field, dim = self.field, self.dim
        rows = [{} for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                for r, w in enumerate(self._mult[(i, j)]):
                    if field.is_zero(w):
                        continue
                    if r >= dim:
                        raise FiltError(f"product ({i},{j}) has more than "
                                        f"{dim} coordinates")
                    rows[r][i * dim + j] = field(w)
        return Matrix(field, dim, dim * dim, rows)

    def mul_vec(self, u, v):
        field = self.field
        return mul_kron(self.table, Matrix.column(field, u),
                        Matrix.column(field, v)).columns()[0]

    # -- filtration access ---------------------------------------------

    def fil(self, s: int) -> Matrix:
        """Basis matrix of F^s (whole algebra for s >= 0, zero for s <= -n)."""
        if s >= 0:
            return Matrix.identity(self.field, self.dim)
        if s <= -self.length:
            return Matrix.zeros(self.field, self.dim, 0)
        return self.filtration[-s]

    def in_fil(self, s: int, vec) -> bool:
        b = self.fil(s)
        return b.solve(Matrix.column(self.field, vec)) is not None

    def fil_coords(self, s: int, x: Matrix) -> Matrix:
        """Coordinates in the F^s basis B of the columns of x.

        As from `solve`: zero off the pivot columns P of B, unique on them.
        A call is L x and the membership check B (L x) == x, with B and L
        from `_membership`.
        """
        return span_coords(*self._membership(s), s, x)

    def _membership(self, s: int) -> tuple:
        """(B, L): the basis B of F^s and a left inverse L of B_P (zero rows
        off the pivot columns P of B), cached per clamped level."""
        level = max(min(s, 0), -self.length)
        cached = self._membership_cache.get(level)
        if cached is None:
            basis = self.fil(level)
            pivots = basis.column_space_pivots()
            cols = basis.transpose().rows
            piv_t = Matrix(self.field, len(pivots), self.dim,
                           [cols[j] for j in pivots])
            # B_P^T X = I makes X^T a left inverse of B_P
            inv = piv_t.solve(Matrix.identity(self.field, len(pivots)))
            rows = dict(zip(pivots, inv.transpose().rows))
            left = Matrix(self.field, basis.ncols, self.dim,
                          [rows.get(j, {}) for j in range(basis.ncols)])
            cached = self._membership_cache[level] = (basis, left)
        return cached

    def quot(self, s: int, t: int) -> "FiltQuot":
        """The quotient F^s / F^t with a deterministic complement basis."""
        key = (max(min(s, 0), -self.length), max(min(t, 0), -self.length))
        q = self._quot_cache.get(key)
        if q is not None:
            return q
        s, t = key
        bs, bt = self.fil(s), self.fil(t)
        inside = bs.solve(bt)
        if inside is None:
            raise FiltError(f"F^{t} is not contained in F^{s}")
        proj, lift = quotient_maps(self.field, bs.ncols, inside)
        q = FiltQuot(s, t, bs, self._membership(s)[1], proj, lift, proj.nrows,
                     bs @ lift)
        self._quot_cache[key] = q
        return q


def span_coords(basis: Matrix, left: Matrix, s: int, x: Matrix) -> Matrix:
    """`left @ x`, the coordinates of the columns of x in the F^s basis
    `basis` of which `left` is a left inverse, checked to be in F^s."""
    if x.nrows != left.ncols:
        raise LinAlgError("solve: row mismatch")  # as `solve` refuses it
    coords = left @ x
    if basis @ coords != x:
        raise FiltError(f"vector is not in F^{s}")
    return coords


@dataclass
class FiltQuot:
    """F^s / F^t with projection/lift relative to the F^s basis; the
    columns of `ambient` (basis @ lift) are the quotient basis in the algebra.
    It holds the F^s membership data (`left`) instead of its algebra, which
    caches it, so that the two form no reference cycle."""

    s: int
    t: int
    basis: Matrix
    left: Matrix
    proj: Matrix
    lift: Matrix
    dim: int
    ambient: Matrix

    def from_ambient(self, x: Matrix) -> Matrix:
        """Quotient coordinates of the columns of x, each in F^s."""
        return self.proj @ span_coords(self.basis, self.left, self.s, x)

    def to_ambient(self, coords):
        return self.ambient.apply(coords)


def validate_filtration(alg: FilteredAlgebra, max_report: int = 20) -> list:
    """Check all filtered-algebra axioms; returns a list of violations.

    Through the structure constants M, unit, commutativity and
    associativity are the identities M kron(1, I) = I, M P = M (P swaps the
    factors) and M kron(M, I) = M kron(I, M), and F^a F^b <= F^{a+b} is
    the membership of the columns of M kron(B_a, B_b) in F^{a+b}.  Only a
    failing identity is walked column by column to name its violations, so
    the list is that of checking every basis element.
    """
    bad = []
    field, n, M = alg.field, alg.dim, alg.table

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    eye = Matrix.identity(field, n)
    if len(alg.unit) != n:
        report("unit has wrong length")
    elif (left := mul_kron(M, Matrix.column(field, alg.unit), n)) != eye:
        cols = left.transpose().rows
        for i in range(n):
            if cols[i] != eye.rows[i]:
                report(f"unit fails on basis {i}")
    cols = M.transpose().rows
    lhs, rhs = mul_kron(M, M, n), mul_kron(M, n, M)
    if lhs != rhs or any(cols[i * n + j] != cols[j * n + i]
                         for i in range(n) for j in range(i)):
        lcols, rcols = lhs.transpose().rows, rhs.transpose().rows
        for i in range(n):
            for j in range(n):
                if cols[i * n + j] != cols[j * n + i]:
                    report(f"commutativity fails at ({i},{j})")
                for k in range(n):
                    if lcols[(i * n + j) * n + k] != rcols[(i * n + j) * n + k]:
                        report(f"associativity fails at ({i},{j},{k})")
    if alg.fil(0).ncols != alg.dim or alg.fil(0).rank() != alg.dim:
        report("F^0 is not the whole algebra")
    if not alg.filtration[alg.length].is_zero():
        report(f"F^{-alg.length} is not zero")
    # a level's column count is taken as its dimension
    for k in range(1, alg.length):
        if alg.filtration[k].rank() < alg.filtration[k].ncols:
            report(f"F^{-k} has linearly dependent columns")
    for k in range(alg.length):
        big, small = alg.fil(-k), alg.fil(-k - 1)
        if big.solve(small) is None:
            report(f"F^{-k - 1} not contained in F^{-k}")
    # each F^{-k} an ideal, and F^i F^j <= F^{i+j}
    for a in range(alg.length + 1):
        for b in range(alg.length + 1):
            prods = mul_kron(M, alg.fil(-a), alg.fil(-b))
            try:
                alg.fil_coords(-a - b, prods)
            except FiltError:
                for prod in prods.columns():
                    if not alg.in_fil(-a - b, prod):
                        report(f"F^{-a} * F^{-b} escapes F^{-a - b}")
    return bad


# -- graded modules ---------------------------------------------------------


class GradedModule:
    """A length-L graded module over the Rees algebra of a filtered algebra.

    dims[k] is the dimension of the component in degree -k (k = 0..L-1);
    tau[k]: degree -k -> degree -k+1 for k = 1..L-1.  act[(j, k)] is the
    bilinear action F^{-j} (x) M^{-k} -> M^{-k-j} as one dims[k+j] x
    (n_j dims[k]) matrix, n_j = dim F^{-j}: column s * dims[k] + c is the
    s-th F^{-j} basis vector acting on basis vector c.  A missing key is the
    zero action.
    """

    def __init__(self, alg: FilteredAlgebra, length: int, dims, tau: dict,
                 act: dict):
        self.alg = alg
        self.length = length
        self.dims = list(dims)
        if len(self.dims) != length:
            raise FiltError("need one component dimension per window degree")
        self.tau = dict(tau)
        self.act = dict(act)

    def dim_at(self, d: int) -> int:
        """Dimension of the degree-d component (canonical copies above 0)."""
        if d > 0:
            d = 0
        k = -d
        if k >= self.length:
            return 0
        return self.dims[k]

    def tau_at(self, d: int) -> Matrix:
        """Transition map from degree d to degree d+1."""
        if d >= 0:
            return Matrix.identity(self.alg.field, self.dim_at(0))
        k = -d
        if k >= self.length:
            return Matrix.zeros(self.alg.field, self.dim_at(d + 1), 0)
        m = self.tau.get(k)
        if m is None:
            return Matrix.zeros(self.alg.field, self.dim_at(d + 1), self.dims[k])
        return m

    def act_at(self, j: int, k: int) -> Matrix:
        """act[(j, k)], or the zero action; requires k + j < length."""
        mat = self.act.get((j, k))
        if mat is None:
            mat = Matrix.zeros(self.alg.field, self.dims[k + j],
                               self.alg.fil(-j).ncols * self.dims[k])
        return mat

    def act_elem(self, j: int, k: int, x: Matrix) -> Matrix:
        """Action of the ambient columns of x, each in F^{-j}: degree -k ->
        -k-j, column t * dims[k] + c for column t of x on basis vector c."""
        coords = self.alg.fil_coords(-j, x)
        if k + j >= self.length:
            return Matrix.zeros(self.alg.field, 0, x.ncols * self.dim_at(-k))
        return mul_kron(self.act_at(j, k), coords, self.dims[k])

    def act_deg(self, x: Matrix, deg: int, d_src: int) -> Matrix:
        """Action of the Rees elements (column of x, deg): degree d_src ->
        d_src + deg, column t * dim_at(d_src) + c for column t of x on basis
        vector c.

        Requires each column in F^{min(deg, 0)}.  Routes through the stored
        window and climbs with transition maps; identifications above degree
        zero are the canonical ones.
        """
        d_tgt = d_src + deg
        rows, cols = self.dim_at(d_tgt), x.ncols * self.dim_at(d_src)
        if rows == 0 or cols == 0:
            return Matrix.zeros(self.alg.field, rows, cols)
        j = max(0, -deg)
        cur = min(d_src, 0)
        m = self.act_elem(j, -cur, x)
        if m.nrows == 0:
            # action factored through a vanishing component
            return Matrix.zeros(self.alg.field, rows, cols)
        for cur in range(cur - j, d_tgt):
            m = self.tau_at(cur) @ m
        return m


def _bad_blocks(lhs: Matrix, rhs: Matrix, width: int) -> set:
    """Indices of the column blocks of the given width where lhs and rhs
    differ (empty when they are equal)."""
    if lhs == rhs:
        return set()
    lcols, rcols = lhs.transpose().rows, rhs.transpose().rows
    return {c // width for c in range(lhs.ncols) if lcols[c] != rcols[c]}


def validate_module(m: GradedModule, max_report: int = 20) -> list:
    """Check the Rees-module laws; returns a list of violations.

    Each law is one matrix identity per (a, b, k) or (j, k) between products
    of the action matrices A and the transitions t; associativity, for
    example, is A_{a+b,k} kron(mu_ab, I) = A_{a,k+b} kron(I, A_{b,k}), with
    mu_ab the F^{-a-b} coordinates of the products of the F^{-a} and F^{-b}
    bases.  Only a failing identity is walked, block by block, to name its
    violations, so the list is that of checking every basis element.
    """
    bad = []
    alg = m.alg
    field, L, dims = alg.field, m.length, m.dims

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    # unit acts as identity on every component
    unit = Matrix.column(field, alg.unit)
    for k in range(L):
        if m.act_elem(0, k, unit) != Matrix.identity(field, dims[k]):
            report(f"unit does not act as identity at degree {-k}")
    # the action of the F^{-j} basis columns: degree -k -> -k-j
    on_basis = cache(lambda j, k: m.act_elem(j, k, alg.fil(-j)))
    # associativity: (f g) m = f (g m) for filtration basis vectors
    for a in range(alg.length):
        for b in range(alg.length):
            ks = range(L - a - b)
            if not ks:
                continue
            na, nb = alg.fil(-a).ncols, alg.fil(-b).ncols
            prods = mul_kron(alg.table, alg.fil(-a), alg.fil(-b))
            fails = {k: _bad_blocks(
                m.act_elem(a + b, k, prods),
                mul_kron(on_basis(a, k + b), na, on_basis(b, k)), dims[k])
                for k in ks}
            for blk in range(na * nb):
                for k in ks:
                    if blk in fails[k]:
                        report(f"action associativity fails at "
                               f"(F^{-a},F^{-b},deg {-k})")
    # transition equivariance: f t^{-j+1} = t (f t^{-j}) and t-centrality
    for j in range(1, alg.length):
        fj = alg.fil(-j)
        equi, central = {}, {}
        for k in range(L):
            if k + j < L:
                rhs = m.tau_at(-k - j) @ on_basis(j, k)
                equi[k] = _bad_blocks(m.act_elem(j - 1, k, fj), rhs, dims[k])
                if k > 0:
                    lhs = mul_kron(on_basis(j, k - 1), fj.ncols, m.tau_at(-k))
                    central[k] = _bad_blocks(lhs, rhs, dims[k])
            elif k + j == L:
                lhs = m.act_elem(j - 1, k, fj)
                equi[k] = _bad_blocks(lhs, Matrix.zeros(field, *lhs.shape),
                                      dims[k])
        for s in range(fj.ncols):
            for k in range(L):
                if s in equi.get(k, ()):
                    report(f"transition equivariance fails (j={j}, k={k})"
                           if k + j < L else
                           f"boundary action not killed (j={j}, k={k})")
                if s in central.get(k, ()):
                    report(f"t-centrality fails (j={j}, k={k})")
    # degree-zero action commutes with transitions
    for k in range(1, L):
        lhs = mul_kron(on_basis(0, k - 1), alg.dim, m.tau_at(-k))
        for i in sorted(_bad_blocks(lhs, m.tau_at(-k) @ on_basis(0, k),
                                    dims[k])):
            report(f"degree-zero action not t-central (k={k}, basis {i})")
    return bad


def truncated_free(alg: FilteredAlgebra, i: int) -> GradedModule:
    """P_i: the truncated free module with components F^{i-k} / F^{i-n}."""
    n = alg.length
    if not (0 <= i < n):
        raise FiltError("generator index out of range")
    quots = [alg.quot(i - k, i - n) for k in range(n)]
    dims = [q.dim for q in quots]
    tau = {k: quots[k - 1].from_ambient(quots[k].ambient) for k in range(1, n)}
    # column s * d + c: the s-th F^{-j} basis vector times class c
    act = {(j, k): quots[k + j].from_ambient(
        mul_kron(alg.table, alg.fil(-j), quots[k].ambient))
        for j in range(n) for k in range(n - j)}
    return GradedModule(alg, n, dims, tau, act)


def free_generator_coords(alg: FilteredAlgebra, i: int):
    """Coordinates of the class of 1 in the degree -i component of P_i."""
    unit = Matrix.column(alg.field, alg.unit)
    return alg.quot(0, i - alg.length).from_ambient(unit).columns()[0]


def zero_module(alg: FilteredAlgebra, length=None) -> GradedModule:
    length = alg.length if length is None else length
    return GradedModule(alg, length, [0] * length, {}, {})


def direct_sum_modules(mods) -> GradedModule:
    mods = list(mods)
    alg = mods[0].alg
    field = alg.field
    length = mods[0].length
    if any(m.length != length for m in mods):
        raise FiltError("direct sum needs equal lengths")
    dims = [sum(m.dims[k] for m in mods) for k in range(length)]
    tau = {}
    for k in range(1, length):
        tau[k] = Matrix.block(field, [m.dims[k - 1] for m in mods],
                              [m.dims[k] for m in mods],
                              {(i, i): m.tau_at(-k) for i, m in enumerate(mods)})
    act = {}
    for j in range(alg.length):
        nj = alg.fil(-j).ncols
        for k in range(length - j):
            # summand i's column s * d_i + c lands in s * dims[k] + offset + c
            out = act[(j, k)] = Matrix.zeros(field, dims[k + j], nj * dims[k])
            row0 = col0 = 0
            for m in mods:
                add_bilinear_block(out, m.act_at(j, k), row0, 0, col0,
                                   m.dims[k], dims[k])
                row0, col0 = row0 + m.dims[k + j], col0 + m.dims[k]
    return GradedModule(alg, length, dims, tau, act)


def _intertwiners(field, dims1, dims2, laws) -> Matrix:
    """Kernel basis of the linear system on maps X_k: k^{dims1[k]} ->
    k^{dims2[k]} given by X_b P = Q kron(I_t, X_a) for each law
    (a, b, t, P, Q).

    P maps t copies of slot a to slot b of the source (column s * dims1[a]
    + c, as a module action), Q does so in the target.  The unknowns are
    the entries of X_0, X_1, .. in row-major order: row-major vec(X_b P) is
    kron(I, P^T) vec(X_b), and vec(Q kron(I_t, X_a)) is kron(Q', I) vec(X_a),
    where row r * t + s of Q' is the s-th column block of row r of Q.
    """
    sizes = [d2 * d1 for d1, d2 in zip(dims1, dims2)]
    heights, blocks = [], {}
    for e, (a, b, t, P, Q) in enumerate(laws):
        fold = [{} for _ in range(Q.nrows * t)]
        for r, row in enumerate(Q.rows):
            for col, v in row.items():
                s, u = divmod(col, dims2[a])
                fold[r * t + s][u] = v
        right = -kron(Matrix(field, Q.nrows * t, dims2[a], fold),
                      Matrix.identity(field, dims1[a]))
        left = kron(Matrix.identity(field, dims2[b]), P.transpose())
        if a == b:
            blocks[(e, b)] = left + right
        else:
            blocks[(e, b)], blocks[(e, a)] = left, right
        heights.append(left.nrows)
    return Matrix.block(field, heights, sizes, blocks).kernel_basis()


def module_hom(m1: GradedModule, m2: GradedModule):
    """Degree-zero Rees-linear maps m1 -> m2: (dimension, basis).

    Each basis element is a tuple of per-component matrices, from one exact
    linear system: every transition and every action (j, k) intertwined.
    """
    if m1.alg is not m2.alg and m1.alg != m2.alg:
        raise FiltError("modules over different algebras")
    if m1.length != m2.length:
        raise FiltError("modules of different lengths")
    alg = m1.alg
    field = alg.field
    L = m1.length
    laws = [(k, k - 1, 1, m1.tau_at(-k), m2.tau_at(-k)) for k in range(1, L)]
    laws += [(k, k + j, alg.fil(-j).ncols, m1.act_at(j, k), m2.act_at(j, k))
             for j in range(alg.length) for k in range(L - j)]
    basis = _intertwiners(field, m1.dims, m2.dims, laws)
    if basis.nrows == 0:
        return 0, []
    offsets = list(accumulate((d2 * d1 for d1, d2 in zip(m1.dims, m2.dims)),
                              initial=0))
    out = []
    for col in basis.transpose().rows:
        mats = [Matrix.zeros(field, m2.dims[k], m1.dims[k]) for k in range(L)]
        for idx, v in col.items():
            k = bisect_right(offsets, idx) - 1
            r, c = divmod(idx - offsets[k], m1.dims[k])
            mats[k].rows[r][c] = v
        out.append(tuple(mats))
    return basis.ncols, out


# -- projective generators and the Auslander algebra ------------------------


def proj_dgcat(alg: FilteredAlgebra) -> DgCategory:
    """The dg category of the truncated-free generators, in degree zero.

    Objects 0..n-1; hom(i, j) = F^{j-i} / F^{j-n} concentrated in degree 0,
    with composition the multiplication of representatives: the table of
    (i, j, k) is the quotient image of M kron(A_jk, A_ij), M the structure
    constants and A the representative matrices (`FiltQuot.ambient`).
    """
    n = alg.length
    field = alg.field
    objects = [str(i) for i in range(n)]
    quots = {}
    hom = {}
    for i in range(n):
        for j in range(n):
            q = alg.quot(j - i, j - n)
            quots[(i, j)] = q
            hom[(str(i), str(j))] = Complex(field, {0: q.dim}, {})

    def comp_fn(a, b, c, deg_i, deg_j):
        if deg_i != 0 or deg_j != 0:
            raise FiltError("projective generators live in degree zero")
        i, j, k = int(a), int(b), int(c)
        return quots[(i, k)].from_ambient(mul_kron(
            alg.table, quots[(j, k)].ambient, quots[(i, j)].ambient))

    unit = Matrix.column(field, alg.unit)
    ids = {str(i): quots[(i, i)].from_ambient(unit).columns()[0]
           for i in range(n)}
    return DgCategory(field, objects, hom, comp_fn, ids)


class AuslanderAlgebra:
    """The block-matrix algebra with block (i, j) = F^{i-j} / F^{i-n}.

    Basis elements are triples (i, j, s) with s indexing the deterministic
    quotient basis of the block; multiplication is matrix multiplication
    with products of representatives, stored as one structure-constant
    `table` (column t1 * dim + t2 is the product of basis elements t1, t2).
    """

    def __init__(self, alg: FilteredAlgebra):
        self.alg = alg
        self.n = alg.length
        self.field = alg.field
        self.blocks = {(i, j): alg.quot(i - j, i - self.n)
                       for i in range(self.n) for j in range(self.n)}
        self.basis = [(i, j, s) for i in range(self.n) for j in range(self.n)
                      for s in range(self.blocks[(i, j)].dim)]
        self.index = {b: t for t, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    def block_dim(self, i, j) -> int:
        return self.blocks[(i, j)].dim

    def total_dim(self) -> int:
        return self.dim

    def unit_vec(self):
        field = self.field
        out = [field.zero] * self.dim
        unit = Matrix.column(field, self.alg.unit)
        for i in range(self.n):
            q = self.blocks[(i, i)]
            for s, v in enumerate(q.from_ambient(unit).columns()[0]):
                out[self.index[(i, i, s)]] = v
        return tuple(out)

    @cached_property
    def table(self) -> Matrix:
        """Block (i, j) times block (j, k) is the quotient image in block
        (i, k) of M kron(A_ij, A_jk), placed by `add_bilinear_block`."""
        dim, blocks = self.dim, self.blocks
        off = {(i, j): self.index[(i, j, 0)] for (i, j) in blocks
               if blocks[(i, j)].dim}
        out = Matrix.zeros(self.field, dim, dim * dim)
        for (i, j), qa in blocks.items():
            for k in range(self.n):
                qb, qt = blocks[(j, k)], blocks[(i, k)]
                if not (qa.dim and qb.dim):
                    continue
                prod = qt.from_ambient(mul_kron(self.alg.table, qa.ambient,
                                                qb.ambient))
                if qt.dim:
                    add_bilinear_block(out, prod, off[(i, k)], off[(i, j)],
                                       off[(j, k)], qb.dim, dim)
        return out

    def mul_basis(self, t1, t2):
        """Product of basis elements; (i,j,s) * (j',k,u) is zero unless j = j'."""
        zero, col = self.field.zero, t1 * self.dim + t2
        return tuple(row.get(col, zero) for row in self.table.rows)

    def validate(self, max_report: int = 10) -> list:
        """Unit and associativity, as the identities T kron(1, I) = I =
        T kron(I, 1) and T kron(T, I) = T kron(I, T) of the table T; only a
        failing identity is walked column by column to name its violations."""
        bad = []
        T, n = self.table, self.dim
        one = Matrix.column(self.field, self.unit_vec())
        eye = Matrix.identity(self.field, n)
        left, right = mul_kron(T, one, n), mul_kron(T, n, one)
        if left != eye or right != eye:
            lcols, rcols = left.transpose().rows, right.transpose().rows
            bad = [f"unit fails on basis {self.basis[t]}" for t in range(n)
                   if lcols[t] != eye.rows[t] or rcols[t] != eye.rows[t]]
        lhs, rhs = mul_kron(T, T, n), mul_kron(T, n, T)
        if lhs == rhs:
            return bad
        lcols, rcols = lhs.transpose().rows, rhs.transpose().rows
        for t1 in range(n):
            for t2 in range(n):
                for t3 in range(n):
                    if lcols[(t1 * n + t2) * n + t3] != rcols[(t1 * n + t2) * n + t3]:
                        bad.append(f"associativity fails at "
                                   f"{self.basis[t1]},{self.basis[t2]},{self.basis[t3]}")
                        if len(bad) >= max_report:
                            return bad
        return bad


def auslander(alg: FilteredAlgebra) -> AuslanderAlgebra:
    return AuslanderAlgebra(alg)


@dataclass
class AuslanderModule:
    """A right module over the Auslander algebra: the row (M^0 ... M^{-n+1}).

    action[(i, j)] has one column s * dims[i] + c for the basis triple
    (i, j, s) acting on basis vector c of slot i."""

    aus: AuslanderAlgebra
    dims: list          # dims[i] = dim of row slot i (= M^{-i})
    action: dict        # block (i, j) -> Matrix slot i -> slot j


def auslander_E(aus: AuslanderAlgebra, m: GradedModule) -> AuslanderModule:
    """The row-module image of a graded module under the Morita equivalence."""
    if m.length != aus.n:
        raise FiltError("module length must match the algebra length")
    action = {(i, j): m.act_deg(q.ambient, i - j, -i)
              for (i, j), q in aus.blocks.items()}
    return AuslanderModule(aus, list(m.dims), action)


def auslander_module_hom(m1: AuslanderModule, m2: AuslanderModule):
    """Right-module maps between row modules: (dimension, basis).

    Independent of `module_hom`: solves the equivariance system over the
    Auslander basis directly, one law per block.
    """
    aus = m1.aus
    laws = [(i, j, aus.block_dim(i, j), m1.action[(i, j)], m2.action[(i, j)])
            for (i, j) in aus.blocks]
    basis = _intertwiners(aus.field, m1.dims, m2.dims, laws)
    if basis.nrows == 0:
        return 0, []
    return basis.ncols, basis


def end_algebra_iso_auslander(alg: FilteredAlgebra, max_report: int = 10) -> list:
    """Verify End((+)_i P_i) is isomorphic to the Auslander algebra.

    Identifies hom(P_i, P_j) with block (j, i) by evaluating at the free
    generator and checks that the identification is bijective and turns
    composition into matrix multiplication.  Returns a list of violations.
    """
    field = alg.field
    n = alg.length
    aus = auslander(alg)
    ps = [truncated_free(alg, i) for i in range(n)]
    gens = [free_generator_coords(alg, i) for i in range(n)]
    bad = []
    hom_bases = {}
    ev_maps = {}
    for i in range(n):
        for j in range(n):
            dim, basis = module_hom(ps[i], ps[j])
            blk = aus.blocks[(j, i)]
            if dim != blk.dim:
                bad.append(f"hom(P_{i},P_{j}) has dimension {dim}, "
                           f"block ({j},{i}) has {blk.dim}")
                continue
            hom_bases[(i, j)] = basis
            ev = Matrix.zeros(field, blk.dim, dim)
            for t, mats in enumerate(basis):
                img = mats[i].apply(gens[i])
                for r, v in enumerate(img):
                    if not field.is_zero(v):
                        ev.set(r, t, v)
            if not ev.is_invertible():
                bad.append(f"evaluation hom(P_{i},P_{j}) -> block ({j},{i}) "
                           f"is not bijective")
            ev_maps[(i, j)] = ev
    if bad:
        return bad[:max_report]

    def ev_of(i, j, mats):
        img = mats[i].apply(gens[i])
        return tuple(img)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                for mats_f in hom_bases[(i, j)]:
                    for mats_g in hom_bases[(j, k)]:
                        comp = tuple(mats_g[t] @ mats_f[t] for t in range(n))
                        lhs = ev_of(i, k, comp)
                        # product of blocks (k,j) * (j,i) in the Auslander algebra
                        bg = aus.blocks[(k, j)]
                        bf = aus.blocks[(j, i)]
                        g_amb = bg.to_ambient(ev_of(j, k, mats_g))
                        f_amb = bf.to_ambient(ev_of(i, j, mats_f))
                        prod = Matrix.column(field, alg.mul_vec(g_amb, f_amb))
                        rhs = aus.blocks[(k, i)].from_ambient(prod).columns()[0]
                        if lhs != rhs:
                            bad.append(f"multiplication tables differ at "
                                       f"({i},{j},{k})")
                            if len(bad) >= max_report:
                                return bad
    return bad


# -- truncation, shifts, Veronese -------------------------------------------


def shift_module(m: GradedModule, i: int) -> GradedModule:
    """M(i) for i >= 0, as a module of length (length + i)."""
    if i < 0:
        raise FiltError("only nonnegative shifts are materialized")
    alg = m.alg
    L = m.length + i
    dims = [m.dim_at(i - k) for k in range(L)]
    tau = {k: m.tau_at(i - k) for k in range(1, L)}
    act = {(j, k): m.act_deg(alg.fil(-j), -j, i - k)
           for j in range(alg.length) for k in range(L - j)}
    return GradedModule(alg, L, dims, tau, act)


def _quotient(m: GradedModule, subs) -> GradedModule:
    """The quotient of the first len(subs) components of m by the column
    spans of subs[k] <= M^{-k}, which the transitions and actions preserve.

    `proj[k]` and `lift[k]` (from `quotient_maps`) are kept on the result.
    """
    alg = m.alg
    n = len(subs)
    maps = [quotient_maps(alg.field, m.dims[k], sub)
            for k, sub in enumerate(subs)]
    projs, lifts = [p for p, _ in maps], [lift for _, lift in maps]
    tau = {k: projs[k - 1] @ (m.tau_at(-k) @ lifts[k]) for k in range(1, n)}
    act = {(j, k): projs[k + j] @ mul_kron(m.act_at(j, k), alg.fil(-j).ncols,
                                           lifts[k])
           for j in range(alg.length) for k in range(n - j)}
    out = GradedModule(alg, n, [p.nrows for p in projs], tau, act)
    out.proj, out.lift = projs, lifts
    return out


def truncate(m: GradedModule, n: int) -> GradedModule:
    """The left truncation to length n: components M^{-k} / tau^{n-k}(M^{-n})."""
    if m.length < n:
        raise FiltError("module is shorter than the truncation length")
    # the images of M^{-n} under the chains of transitions up to degree -k
    subs = [Matrix.identity(m.alg.field, m.dim_at(-n))]
    for k in reversed(range(n)):
        subs.append(m.tau_at(-k - 1) @ subs[-1])
    return _quotient(m, subs[:0:-1])


def veronese(m: GradedModule, d: int, target_alg: FilteredAlgebra) -> GradedModule:
    """The d-th Veronese: components M^{d i}, over the coarse algebra.

    `m` lives over a d-refinement of `target_alg` (same underlying algebra,
    filtration G with G^{di} = F^i)."""
    alg = m.alg
    if m.length != d * target_alg.length:
        raise FiltError("length mismatch in Veronese")
    L = target_alg.length
    field = alg.field
    dims = [m.dim_at(-d * k) for k in range(L)]
    tau = {}
    for k in range(1, L):
        mat = Matrix.identity(field, m.dim_at(-d * k))
        for cur in range(-d * k, -d * k + d):
            mat = m.tau_at(cur) @ mat
        tau[k] = mat
    act = {(j, k): m.act_deg(target_alg.fil(-j), -d * j, -d * k)
           for j in range(L) for k in range(L - j)}
    return GradedModule(target_alg, L, dims, tau, act)


def floor_refinement(alg: FilteredAlgebra, d: int) -> FilteredAlgebra:
    """The d-refinement G^i = F^{floor(i/d)} (left adjoint to the Veronese)."""
    n = alg.length
    filtration = []
    for k in range(d * n + 1):
        s = -((k + d - 1) // d)
        filtration.append(alg.fil(s))
    return FilteredAlgebra(alg.field, alg.dim, alg._mult, alg.unit,
                           d * n, filtration, alg.basis_names)


def epsilon(m: GradedModule, d: int, target_alg: FilteredAlgebra) -> GradedModule:
    """The left adjoint of the Veronese: components M^{floor(i/d)}.

    `target_alg` must be the floor refinement of m's algebra."""
    alg = m.alg
    L = d * m.length
    field = alg.field
    if target_alg.length != L:
        raise FiltError("epsilon target must have length d * length")
    # component i is M^{floor(i / d)}, for the (negative) degree i
    dims = [m.dim_at(-k // d) for k in range(L)]
    tau = {}
    for k in range(1, L):
        lo, hi = -k // d, (-k + 1) // d
        if lo == hi:
            tau[k] = Matrix.identity(field, m.dim_at(lo))
        else:
            tau[k] = m.tau_at(lo)
    act = {}
    for j in range(L):
        jf = -(-j // d)
        for k in range(L - j):
            src_deg = -k // d
            mat = m.act_deg(target_alg.fil(-j), -jf, src_deg)
            for cur in range(src_deg - jf, (-k - j) // d):
                mat = m.tau_at(cur) @ mat
            act[(j, k)] = mat
    return GradedModule(target_alg, L, dims, tau, act)


def free_hom_map(alg: FilteredAlgebra, a: int, b: int, coords):
    """Per-component matrices of the map P_a -> P_b with 1 -> coords.

    `coords` lives in the quotient F^{b-a} / F^{b-n}; the component at
    degree -c sends a class [g] to [f g].
    """
    n = alg.length
    f_amb = Matrix.column(alg.field, alg.quot(b - a, b - n).to_ambient(coords))
    out = []
    for c in range(n):
        prods = mul_kron(alg.table, f_amb, alg.quot(a - c, a - n).ambient)
        out.append(alg.quot(b - c, b - n).from_ambient(prods))
    return out


def module_cokernel(src: GradedModule, tgt: GradedModule, mats) -> GradedModule:
    """The cokernel of a module map given by per-component matrices."""
    return _quotient(tgt, [mats[c] for c in range(tgt.length)])


# -- presentations and the truncated tensor product -------------------------


def greedy_presentation(m: GradedModule):
    """Two steps of the greedy resolution by truncated frees.

    Returns (gens0, gens1, phi) where gens0/gens1 list generator degrees
    k (one P_k per entry) and phi[(r, s)] is the quotient-coordinate vector
    in F^{k_r - k_s} / F^{k_r - n} describing the block P_{k_s} -> P_{k_r}
    of the relation map.  The cokernel of phi is m.
    """
    alg = m.alg
    field = alg.field
    n = alg.length
    if m.length != n:
        raise FiltError("presentations need module length = algebra length")
    gens0 = [(k, col) for k in range(n)
             for col in Matrix.identity(field, m.dims[k]).columns()]

    def surjection_matrix(c):
        # the surjection P0 = (+)_r P_{k_r} -> m at degree -c: generator r
        # sends the classes of F^{k-c} / F^{k-n} to their action on its vector
        blocks = []
        for k in range(n):
            if m.dims[k]:
                q = alg.quot(k - c, k - n)
                act = m.act_deg(q.ambient, k - c, -k)
                blocks += [mul_kron(act, q.dim, Matrix.column(field, v))
                           for kk, v in gens0 if kk == k]
        return Matrix.hstack(blocks) if blocks else Matrix.zeros(field, m.dims[c], 0)

    gens1 = []
    phi = {}
    for c in range(n):
        for col in surjection_matrix(c).kernel_basis().columns():
            s = len(gens1)
            gens1.append((c, None))
            off = 0
            for r, (k, _) in enumerate(gens0):
                q = alg.quot(k - c, k - n)
                chunk = tuple(col[off:off + q.dim])
                off += q.dim
                if any(not field.is_zero(x) for x in chunk):
                    phi[(r, s)] = chunk
    return gens0, gens1, phi


def tensor_with_free(alg: FilteredAlgebra, i: int, m: GradedModule) -> GradedModule:
    """P_i (x)_n m = l^n(m(i)), with the truncation quotient data attached."""
    return truncate(shift_module(m, i), alg.length)


def induced_tensor_map(alg: FilteredAlgebra, a: int, b: int, coords,
                       m: GradedModule, ta: GradedModule, tb: GradedModule):
    """The map l^n(m(a)) -> l^n(m(b)) induced by a hom P_a -> P_b.

    `coords` are quotient coordinates in F^{b-a} / F^{b-n}; `ta`, `tb` the
    attached truncations of m(a), m(b).  Returns per-component matrices.
    """
    n = alg.length
    f_amb = Matrix.column(alg.field, alg.quot(b - a, b - n).to_ambient(coords))
    return [tb.proj[c] @ (m.act_deg(f_amb, b - a, a - c) @ ta.lift[c])
            for c in range(n)]


def tensor_n(m1: GradedModule, m2: GradedModule) -> GradedModule:
    """The truncated tensor product l^n(m1 (x) m2), via a presentation of m1."""
    alg = m1.alg
    n = alg.length
    gens0, gens1, phi = greedy_presentation(m1)
    # one P_k (x)_n m2 per generator degree k
    frees = {k: tensor_with_free(alg, k, m2)
             for k in sorted({k for k, _ in gens0 + gens1})}
    t0 = {r: frees[k] for r, (k, _) in enumerate(gens0)}
    t1 = {s: frees[c] for s, (c, _) in enumerate(gens1)}
    # the cokernel of the big map (+)_s T1_s -> (+)_r T0_r
    sum0 = direct_sum_modules([t0[r] for r in range(len(gens0))]) if gens0 else \
        zero_module(alg)
    comp_maps = {(r, s): induced_tensor_map(alg, gens1[s][0], gens0[r][0],
                                            coords, m2, t1[s], t0[r])
                 for (r, s), coords in phi.items()}
    imgs = [Matrix.block(alg.field, [t0[r].dims[c] for r in range(len(gens0))],
                         [t1[s].dims[c] for s in range(len(gens1))],
                         {rs: maps[c] for rs, maps in comp_maps.items()})
            for c in range(n)]
    out = _quotient(sum0, imgs)
    out.tensor_parts = (gens0, t0)
    return out


def tensor_unit_map(m: GradedModule):
    """The canonical comparison P_0 (x)_n m -> m; returns (tensor, matrices).

    Evaluation sends the generator of each presentation summand to its image
    in m; well-definedness on the cokernel follows from functoriality, so
    each map is read off through the cokernel's section `lift`.
    """
    alg = m.alg
    field = alg.field
    n = alg.length
    t = tensor_n(truncated_free(alg, 0), m)
    gens0, t0 = t.tensor_parts
    maps = []
    for c in range(n):
        # generator r is a quotient class of P_0 at degree -k; it acts on
        # the lifted component of m(k)^{-c} = m^{k-c}
        acts = {k: m.act_deg(alg.quot(-k, -n).ambient, -k, k - c)
                for k in {k for k, _ in gens0}}
        blocks = [mul_kron(acts[k], Matrix.column(field, v), m.dim_at(k - c))
                  @ t0[r].lift[c] for r, (k, v) in enumerate(gens0)]
        mat = Matrix.hstack(blocks) if blocks else \
            Matrix.zeros(field, m.dims[c], 0)
        maps.append(mat @ t.lift[c])
    return t, maps


# -- refinements -------------------------------------------------------------


def power_ideal(alg: FilteredAlgebra, gens: Matrix, d: int) -> Matrix:
    """Column basis of the d-th power of the ideal spanned by `gens`."""
    field = alg.field
    if d == 0:
        return Matrix.identity(field, alg.dim)
    cur = gens
    for _ in range(d - 1):
        cur = _span(field, alg.dim, mul_kron(alg.table, cur, gens).columns())
    return cur


def _span(field, dim, vectors) -> Matrix:
    if not vectors:
        return Matrix.zeros(field, dim, 0)
    vecs = Matrix.from_rows(field, vectors)     # row j is vectors[j]
    piv = vecs.transpose().column_space_pivots()
    return Matrix(field, len(piv), dim, [vecs.rows[j] for j in piv]).transpose()


def is_ideal(alg: FilteredAlgebra, gens: Matrix) -> bool:
    return gens.solve(mul_kron(alg.table, alg.dim, gens)) is not None


def refine(alg: FilteredAlgebra, ideal: Matrix, d: int) -> FilteredAlgebra:
    """The d-refinement G^i = F^j I^r + F^{j-1} for i = jd - r, 0 <= r < d."""
    field = alg.field
    if not is_ideal(alg, ideal):
        raise FiltError("refinement input does not span an ideal")
    for v in power_ideal(alg, ideal, d).columns():
        if not alg.in_fil(-1, v):
            raise FiltError("I^d is not contained in F^{-1}")
    n = alg.length
    filtration = [alg.fil(0)]
    powers = {r: power_ideal(alg, ideal, r) for r in range(d)}
    for k in range(1, d * n + 1):
        # G^{-k} = F^j I^r + F^{j-1} where -k = j d - r, j <= 0 <= r < d
        j = -(k // d)
        r = j * d + k
        cols = mul_kron(alg.table, alg.fil(j), powers[r]).columns()
        filtration.append(_span(field, alg.dim, cols + alg.fil(j - 1).columns()))
    out = FilteredAlgebra(field, alg.dim, alg._mult, alg.unit, d * n,
                          filtration, alg.basis_names)
    return out


@dataclass
class AlgebraMap:
    """A filtered algebra map; `matrix` sends source coordinates to target."""

    src: FilteredAlgebra
    tgt: FilteredAlgebra
    matrix: Matrix

    def apply(self, vec):
        return self.matrix.apply(vec)


def validate_algebra_map(f: AlgebraMap, max_report: int = 10) -> list:
    bad = []
    field = f.src.field
    if f.apply(f.src.unit) != tuple(f.tgt.unit):
        bad.append("map does not preserve the unit")
    for i in range(f.src.dim):
        ei = [field.zero] * f.src.dim
        ei[i] = field.one
        for j in range(f.src.dim):
            ej = [field.zero] * f.src.dim
            ej[j] = field.one
            lhs = f.apply(f.src.mul_vec(ei, ej))
            rhs = f.tgt.mul_vec(f.apply(ei), f.apply(ej))
            if lhs != rhs:
                bad.append(f"map is not multiplicative at ({i},{j})")
                if len(bad) >= max_report:
                    return bad
    for k in range(f.src.length + 1):
        for v in f.src.fil(-k).columns():
            if not f.tgt.in_fil(-k, f.apply(v)):
                bad.append(f"map does not respect F^{-k}")
                break
    return bad


def refinement_functor(alg: FilteredAlgebra, refined: FilteredAlgebra,
                       d: int, src_cat=None, tgt_cat=None) -> DgFunctor:
    """proj_dgcat(alg) -> proj_dgcat(refined): i -> d i, identity on classes."""
    n = alg.length
    if refined.length != d * n:
        raise FiltError("refined algebra must have length d n")
    src = src_cat if src_cat is not None else proj_dgcat(alg)
    tgt = tgt_cat if tgt_cat is not None else proj_dgcat(refined)
    obj_map = {str(i): str(d * i) for i in range(n)}
    hom_maps = {}
    for i in range(n):
        for j in range(n):
            classes = alg.quot(j - i, j - n).ambient
            qt = refined.quot(d * j - d * i, d * j - d * n)
            hom_maps[(str(i), str(j))] = {0: qt.from_ambient(classes)}
    return DgFunctor(src, tgt, obj_map, hom_maps)


def base_change_functor(f: AlgebraMap, src_cat=None, tgt_cat=None) -> DgFunctor:
    """proj_dgcat(src) -> proj_dgcat(tgt) along a filtered algebra map."""
    if f.src.length != f.tgt.length:
        raise FiltError("base change needs equal lengths")
    n = f.src.length
    src = src_cat if src_cat is not None else proj_dgcat(f.src)
    tgt = tgt_cat if tgt_cat is not None else proj_dgcat(f.tgt)
    obj_map = {str(i): str(i) for i in range(n)}
    hom_maps = {}
    for i in range(n):
        for j in range(n):
            images = f.matrix @ f.src.quot(j - i, j - n).ambient
            qt = f.tgt.quot(j - i, j - n)
            hom_maps[(str(i), str(j))] = {0: qt.from_ambient(images)}
    return DgFunctor(src, tgt, obj_map, hom_maps)


def generated_ideal(alg: FilteredAlgebra, vectors) -> Matrix:
    """The ideal generated by the given ambient vectors."""
    cols = []
    field = alg.field
    for v in vectors:
        for i in range(alg.dim):
            e = [field.zero] * alg.dim
            e[i] = field.one
            cols.append(alg.mul_vec(e, v))
    return _span(field, alg.dim, cols)


def refinement_square(alg: FilteredAlgebra, alg2: FilteredAlgebra,
                      f: AlgebraMap, ideal: Matrix, d: int, ideal2=None):
    """The 2-cube of projective-generator categories from compatible refinements.

    Direction 0 is base change along f, direction 1 is the refinement; the
    horizontal edges are hom-isomorphisms, so the square is acyclic.
    Returns the DgCube.
    """
    from .hypercube import DgCube
    if f.src is not alg or f.tgt is not alg2:
        raise FiltError("algebra map endpoints mismatch")
    if ideal2 is None:
        ideal2 = generated_ideal(alg2, [f.apply(v) for v in ideal.columns()])
    else:
        for v in ideal.columns():
            if ideal2.solve(Matrix.column(alg.field, f.apply(v))) is None:
                raise FiltError("ideals are not compatible with the map")
    ref1 = refine(alg, ideal, d)
    ref2 = refine(alg2, ideal2, d)
    fd = AlgebraMap(ref1, ref2, f.matrix)
    bad = validate_algebra_map(fd)
    if bad:
        raise FiltError(f"refined map invalid: {bad[0]}")
    c00 = proj_dgcat(alg)
    c10 = proj_dgcat(alg2)
    c01 = proj_dgcat(ref1)
    c11 = proj_dgcat(ref2)
    v_left = base_change_functor(f, c00, c10)
    e_bottom = refinement_functor(alg, ref1, d, c00, c01)
    e_top = refinement_functor(alg2, ref2, d, c10, c11)
    v_right = base_change_functor(fd, c01, c11)
    vertices = {frozenset(): c00, frozenset({0}): c10,
                frozenset({1}): c01, frozenset({0, 1}): c11}
    edges = {(frozenset(), 0): v_left, (frozenset(), 1): e_bottom,
             (frozenset({0}), 1): e_top, (frozenset({1}), 0): v_right}
    return DgCube(alg.field, 2, vertices, edges)


# -- graded pieces and induction ---------------------------------------------


def gr_piece(m: GradedModule, i: int) -> int:
    """Dimension of the degree -i component (the i-th graded piece)."""
    if not (0 <= i < m.length):
        raise FiltError("graded piece index out of range")
    return m.dims[i]


def induce(alg: FilteredAlgebra, v_dim: int, i: int) -> GradedModule:
    """v (x) P_i for a v_dim-dimensional space: a direct sum of copies of P_i."""
    if not (0 <= i < alg.length):
        raise FiltError("induction index out of range")
    p = truncated_free(alg, i)
    if v_dim == 0:
        return zero_module(alg)
    return direct_sum_modules([p] * v_dim)


# -- convenience constructors -------------------------------------------------


def poly_truncation_mult(field, m: int):
    """Multiplication table of k[x]/x^m on the basis 1, x, .., x^{m-1}."""
    def mult(i, j):
        out = [field.zero] * m
        if i + j < m:
            out[i + j] = field.one
        return tuple(out)
    return mult


def adic_filtration(field, dim, mult, unit, ideal: Matrix, length=None,
                    basis_names=None) -> FilteredAlgebra:
    """The I-adic filtration F^{-k} = I^k, of the ideal's nilpotency length."""
    probe = FilteredAlgebra(field, dim, mult, unit, 1,
                            [Matrix.identity(field, dim),
                             Matrix.zeros(field, dim, 0)], basis_names)
    ideal = generated_ideal(probe, ideal.columns())
    powers = [Matrix.identity(field, dim)]
    cur = ideal
    while cur.ncols and len(powers) < dim + 2:
        powers.append(cur)
        cur = power_ideal(probe, ideal, len(powers))
    n = length if length is not None else len(powers)
    filtration = []
    for k in range(n + 1):
        filtration.append(powers[k] if k < len(powers) else
                          Matrix.zeros(field, dim, 0))
    if filtration[-1].ncols != 0:
        raise FiltError("ideal is not nilpotent within the requested length")
    return FilteredAlgebra(field, dim, mult, unit, n, filtration, basis_names)


def truncated_polynomial_algebra(field, m: int, powers=None,
                                 length=None) -> FilteredAlgebra:
    """k[x]/x^m with the filtration F^{-k} = (x^{powers[k]}) (default x-adic)."""
    mult = poly_truncation_mult(field, m)
    unit = [field.zero] * m
    unit[0] = field.one
    names = tuple("1" if i == 0 else f"x^{i}" if i > 1 else "x" for i in range(m))
    if powers is None:
        x = Matrix.zeros(field, m, 1)
        x.set(1, 0, field.one)
        return adic_filtration(field, m, mult, unit, x, length, names)
    n = len(powers) - 1
    filtration = []
    for k, p in enumerate(powers):
        cols = max(0, m - p)
        mat = Matrix.zeros(field, m, cols)
        for c in range(cols):
            mat.set(p + c, c, field.one)
        filtration.append(mat)
    return FilteredAlgebra(field, m, mult, unit, n, filtration, names)
