"""Exact sparse matrices and Gaussian elimination over a configured field.

A matrix is a list of row dicts `{column: nonzero scalar}`; a zero is never
stored.  Hom complexes of glued categories blow up combinatorially while
staying very sparse, and small matrices lose little to the dict form.

Elimination is Gauss-Jordan on copies of the row dicts.  A column index
(column -> rows that hold it) finds the rows to touch without scanning every
row, and the arithmetic is inlined per field: `% p` on ints over F_p, `int`
and `Fraction` operators over Q.  Any row holding the current column may
serve as its pivot (the sparsest one is taken, to limit fill-in): the reduced
row echelon form of a matrix is unique, so its pivot columns and rows, and
with them every rank, kernel basis, solve and report, do not depend on that
choice.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from typing import Iterable


class LinAlgError(ValueError):
    pass


class Matrix:
    """An exact nrows x ncols matrix over `field`.

    `rows[i]` is a dict column -> nonzero scalar of row i.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows=None):
        if nrows < 0 or ncols < 0:
            raise LinAlgError("negative matrix dimension")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [{} for _ in range(nrows)] if rows is None else rows

    # -- construction -------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols) -> "Matrix":
        return Matrix(field, nrows, ncols)

    @staticmethod
    def identity(field, n) -> "Matrix":
        return Matrix(field, n, n, [{i: field.one} for i in range(n)])

    @staticmethod
    def from_rows(field, rows: Iterable[Iterable]) -> "Matrix":
        rows = [[field(x) for x in row] for row in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise LinAlgError("ragged rows")
        is_zero = field.is_zero
        return Matrix(field, nrows, ncols,
                      [{j: x for j, x in enumerate(row) if not is_zero(x)}
                       for row in rows])

    @staticmethod
    def column(field, vec) -> "Matrix":
        vec = [field(x) for x in vec]
        return Matrix(field, len(vec), 1,
                      [{} if field.is_zero(x) else {0: x} for x in vec])

    # -- element access ------------------------------------------------

    def get(self, i, j):
        return self.rows[i].get(j, self.field.zero)

    def set(self, i, j, v):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise LinAlgError(f"index ({i},{j}) out of range for {self.shape}")
        if self.field.is_zero(v):
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

    def add_at(self, i, j, v):
        self.set(i, j, self.field.add(self.get(i, j), v))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def items(self):
        """Iterate nonzero entries as ((i, j), value), in row-major order."""
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                yield (i, j), row[j]

    def to_lists(self):
        zero = self.field.zero
        return [[row.get(j, zero) for j in range(self.ncols)]
                for row in self.rows]

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.shape == other.shape and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Matrix":
        self._check_same_shape(other)
        out = Matrix(self.field, self.nrows, self.ncols,
                     [dict(row) for row in self.rows])
        for i, row in enumerate(other.rows):
            for j, v in row.items():
                out.add_at(i, j, v)
        return out

    def __sub__(self, other) -> "Matrix":
        return self + other.scaled(self.field.neg(self.field.one))

    def __neg__(self) -> "Matrix":
        return self.scaled(self.field.neg(self.field.one))

    def scaled(self, c) -> "Matrix":
        f = self.field
        if f.is_zero(c):
            return Matrix(f, self.nrows, self.ncols)
        mul = f.mul
        return Matrix(f, self.nrows, self.ncols,
                      [{j: mul(c, v) for j, v in row.items()}
                       for row in self.rows])

    def __matmul__(self, other) -> "Matrix":
        if self.ncols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
        p = self.field.modulus
        other_rows = other.rows
        out = []
        for arow in self.rows:
            acc = {}
            for k, a in arow.items():
                for j, b in other_rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if p is None:
                out.append({j: v for j, v in acc.items() if v})
            else:
                out.append({j: w for j, v in acc.items() if (w := v % p)})
        return Matrix(self.field, self.nrows, other.ncols, out)

    def transpose(self) -> "Matrix":
        out = Matrix(self.field, self.ncols, self.nrows)
        cols = out.rows
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return out

    def apply(self, vec):
        """Matrix times a coordinate vector (tuple/list), returning a tuple."""
        if len(vec) != self.ncols:
            raise LinAlgError("vector length mismatch")
        f = self.field
        out = [f.zero] * self.nrows
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                if not f.is_zero(vec[j]):
                    out[i] = f.add(out[i], f.mul(a, vec[j]))
        return tuple(out)

    # -- block assembly --------------------------------------------------

    @staticmethod
    def hstack(mats) -> "Matrix":
        mats = list(mats)
        nrows = mats[0].nrows
        out = Matrix(mats[0].field, nrows, sum(m.ncols for m in mats))
        off = 0
        for m in mats:
            if m.nrows != nrows:
                raise LinAlgError("hstack row mismatch")
            for dst, row in zip(out.rows, m.rows):
                for j, v in row.items():
                    dst[j + off] = v
            off += m.ncols
        return out

    @staticmethod
    def vstack(mats) -> "Matrix":
        mats = list(mats)
        ncols = mats[0].ncols
        rows = []
        for m in mats:
            if m.ncols != ncols:
                raise LinAlgError("vstack col mismatch")
            rows.extend(dict(row) for row in m.rows)
        return Matrix(mats[0].field, len(rows), ncols, rows)

    @staticmethod
    def block(field, row_dims, col_dims, blocks) -> "Matrix":
        """Assemble from `blocks`: dict (bi, bj) -> Matrix of the given block shape.

        Blocks that overlap are summed.
        """
        row_off = [0, *accumulate(row_dims)]
        col_off = [0, *accumulate(col_dims)]
        out = Matrix(field, sum(row_dims), sum(col_dims))
        for (bi, bj), m in blocks.items():
            if m.shape != (row_dims[bi], col_dims[bj]):
                raise LinAlgError(
                    f"block ({bi},{bj}) has shape {m.shape}, expected "
                    f"({row_dims[bi]},{col_dims[bj]})")
            r0, c0 = row_off[bi], col_off[bj]
            for i, row in enumerate(m.rows):
                dst = out.rows[r0 + i]
                for j, v in row.items():
                    if j + c0 in dst:
                        out.add_at(r0 + i, j + c0, v)
                    else:
                        dst[j + c0] = v
        return out

    def submatrix(self, row_range, col_range) -> "Matrix":
        r0, r1 = row_range
        c0, c1 = col_range
        return Matrix(self.field, r1 - r0, c1 - c0,
                      [{j - c0: v for j, v in row.items() if c0 <= j < c1}
                       for row in self.rows[r0:r1]])

    def columns(self):
        """Columns as coordinate tuples."""
        cols = [[self.field.zero] * self.nrows for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return [tuple(c) for c in cols]

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise LinAlgError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- elimination ----------------------------------------------------

    def _echelon(self, reduced=True):
        """Gauss-Jordan elimination.  Returns (rows, pivot_cols).

        rows[i] is the row dict whose leading 1 sits in column pivot_cols[i].
        With reduced=True the rows are those of the reduced row echelon form.
        With reduced=False rows above a pivot are left alone: the pivot
        columns (hence the rank) are the same, the rows are not reduced.
        """
        p = self.field.modulus
        rows = [dict(row) for row in self.rows if row]
        holders = defaultdict(set)      # column -> rows that have held it
        for r, row in enumerate(rows):
            for j in row:
                holders[j].add(r)
        used = [False] * len(rows)
        pivots = []
        order = []
        # Fill-in only lands in columns of a pivot row, which are already
        # keys of `holders`; so this snapshot of the keys sees every column.
        for col in sorted(holders):
            live = [r for r in holders[col] if col in rows[r]]
            free = [r for r in live if not used[r]]
            if not free:
                continue
            piv = min(free, key=lambda r: (len(rows[r]), r))
            prow = rows[piv]
            a = prow[col]
            if a != 1:
                if p is None:
                    inv = Fraction(1, a)    # a may be an int: 1 / a is a float
                    prow = {j: inv * v for j, v in prow.items()}
                else:
                    inv = pow(a, -1, p)
                    prow = {j: inv * v % p for j, v in prow.items()}
                rows[piv] = prow
            used[piv] = True
            for r in live:
                if r == piv or (used[r] and not reduced):
                    continue
                row = rows[r]
                c = row[col]
                if p is None:
                    for j, v in prow.items():
                        if j in row:
                            w = row[j] - c * v
                            if w:
                                row[j] = w
                            else:
                                del row[j]
                        else:
                            row[j] = -c * v
                            holders[j].add(r)
                else:
                    c = p - c
                    for j, v in prow.items():
                        if j in row:
                            w = (row[j] + c * v) % p
                            if w:
                                row[j] = w
                            else:
                                del row[j]
                        else:
                            row[j] = c * v % p
                            holders[j].add(r)
            pivots.append(col)
            order.append(piv)
            if len(pivots) == len(rows):
                break
        return [rows[r] for r in order], pivots

    def rank(self) -> int:
        return len(self._echelon(reduced=False)[1])

    def kernel_basis(self) -> "Matrix":
        """Columns span ker(self); column count = ncols - rank."""
        f = self.field
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        free = {j: k for k, j in enumerate(
            j for j in range(self.ncols) if j not in pivot_set)}
        out = Matrix(f, self.ncols, len(free))
        for j, k in free.items():
            out.rows[j][k] = f.one
        for row, j_piv in zip(rows, pivots):
            dst = out.rows[j_piv]
            for j, v in row.items():
                k = free.get(j)
                if k is not None:
                    dst[k] = f.neg(v)
        return out

    def solve(self, rhs: "Matrix"):
        """One solution of self @ X = rhs, or None if inconsistent."""
        if rhs.nrows != self.nrows:
            raise LinAlgError("solve: row mismatch")
        n = self.ncols
        rows, pivots = Matrix.hstack([self, rhs])._echelon()
        if pivots and pivots[-1] >= n:
            return None
        out = Matrix(self.field, n, rhs.ncols)
        for row, pc in zip(rows, pivots):
            out.rows[pc] = {j - n: v for j, v in row.items() if j >= n}
        return out

    def column_space_pivots(self):
        """Indices of the first-pivot column basis of the column space."""
        return self._echelon(reduced=False)[1]

    def inverse(self) -> "Matrix":
        """The inverse of a square matrix: a solution X of A X = I, which
        exists exactly when A is invertible (and is then A^-1)."""
        if self.nrows != self.ncols:
            raise LinAlgError("inverse of non-square matrix")
        sol = self.solve(Matrix.identity(self.field, self.nrows))
        if sol is None:
            raise LinAlgError("matrix is singular")
        return sol

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i, j) of a x (k, l) of b -> (i*b.nrows + k, ...)."""
    mul = a.field.mul
    rows = []
    for arow in a.rows:
        for brow in b.rows:
            rows.append({j * b.ncols + l: mul(u, v)
                         for j, u in arow.items() for l, v in brow.items()})
    return Matrix(a.field, a.nrows * b.nrows, a.ncols * b.ncols, rows)


def mul_kron(c: Matrix, x, y) -> Matrix:
    """c @ kron(x, y), without building the Kronecker product.

    Column h * m + f of c (m the row count of y) meets row h of x and row f
    of y, so an entry v there adds v x[h, r] y[f, q] to column r * yc + q.
    `x` or `y` may be an int n standing for the n x n identity, which then
    costs index arithmetic only.
    """
    x_eye, y_eye = isinstance(x, int), isinstance(y, int)
    xr, xc = (x, x) if x_eye else x.shape
    m, yc = (y, y) if y_eye else y.shape
    if c.ncols != xr * m:
        raise LinAlgError(f"shape mismatch {c.shape} @ kron({xr}x{xc}, {m}x{yc})")
    if x_eye and y_eye:
        return Matrix(c.field, c.nrows, c.ncols, [dict(row) for row in c.rows])
    p = c.field.modulus
    xrows = None if x_eye else x.rows
    yrows = None if y_eye else y.rows
    out = []
    for crow in c.rows:
        acc = {}
        for k, v in crow.items():
            h, f = divmod(k, m)
            if y_eye:
                for r, a in xrows[h].items():
                    j = r * yc + f
                    acc[j] = acc.get(j, 0) + a * v
            elif x_eye:
                base = h * yc
                for q, w in yrows[f].items():
                    acc[base + q] = acc.get(base + q, 0) + v * w
            else:
                yrow = yrows[f].items()
                for r, a in xrows[h].items():
                    av, base = a * v, r * yc
                    for q, w in yrow:
                        acc[base + q] = acc.get(base + q, 0) + av * w
        if p is None:
            out.append({j: v for j, v in acc.items() if v})
        else:
            out.append({j: w for j, v in acc.items() if (w := v % p)})
    return Matrix(c.field, c.nrows, xc * yc, out)


def quotient_maps(field, ambient_dim: int, subspace: Matrix):
    """Projection/section pair for the quotient k^ambient / col(subspace).

    Returns (proj, lift) with proj: ambient -> q, lift: q -> ambient,
    proj @ lift = id_q and ker(proj) = col(subspace).  The complement is the
    first-pivot extension of the subspace by standard basis vectors, so the
    construction is deterministic.
    """
    if subspace.nrows != ambient_dim:
        raise LinAlgError("subspace ambient mismatch")
    ext = Matrix.hstack([subspace, Matrix.identity(field, ambient_dim)])
    pivots = ext.column_space_pivots()
    n_sub = sum(1 for j in pivots if j < subspace.ncols)
    lift = Matrix.zeros(field, ambient_dim, ambient_dim - n_sub)
    for k, j in enumerate(pivots[n_sub:]):
        lift.rows[j - subspace.ncols][k] = field.one
    # The pivot columns of ext, the independent subspace columns and then
    # lift's, are a basis; proj reads off the lift-coordinates of a vector.
    cols = ext.transpose().rows
    basis = Matrix(field, ambient_dim, ambient_dim, [cols[j] for j in pivots])
    proj = basis.transpose().inverse().submatrix((n_sub, ambient_dim),
                                                 (0, ambient_dim))
    return proj, lift
