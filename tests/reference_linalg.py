"""Reference elimination kernel for differential tests of `dgglue.linalg`.

This is the first elimination kernel the package shipped, kept verbatim in
behaviour: the pivot of each column is the topmost unused row holding it,
every row is rescanned for each pivot, and every entry goes through the
field's generic `add`/`sub`/`mul`/`inv`/`is_zero`.  Matrices are passed as
their row dicts `{column: nonzero}` and results come back as plain lists and
dicts, so nothing here depends on the kernel under test.
"""


def echelon(field, ncols, row_dicts):
    """Reduced row echelon form.  Returns (rows, pivot_cols): every row, the
    first len(pivot_cols) of them the RREF rows in pivot order."""
    f = field
    rows = [dict(r) for r in row_dicts]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if col in rows[i]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = {j: f.mul(inv, v) for j, v in rows[rank].items()}
        for i in range(len(rows)):
            if i != rank and col in rows[i]:
                c = rows[i][col]
                new_row = dict(rows[i])
                for j, v in rows[rank].items():
                    w = f.sub(new_row.get(j, f.zero), f.mul(c, v))
                    if f.is_zero(w):
                        new_row.pop(j, None)
                    else:
                        new_row[j] = w
                rows[i] = new_row
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def kernel_basis(field, ncols, row_dicts):
    """Kernel basis as an ncols x nullity list of lists."""
    f = field
    rows, pivots = echelon(field, ncols, row_dicts)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    out = [[f.zero] * len(free) for _ in range(ncols)]
    for k, j_free in enumerate(free):
        out[j_free][k] = f.one
        for i, j_piv in enumerate(pivots):
            v = rows[i].get(j_free, f.zero)
            if not f.is_zero(v):
                out[j_piv][k] = f.neg(v)
    return out


def solve(field, a_rows, a_ncols, b_rows, b_ncols):
    """One solution of A X = B as an a_ncols x b_ncols list of lists, or
    None if inconsistent."""
    f = field
    aug = [dict(a) for a in a_rows]
    for row, b in zip(aug, b_rows):
        row.update({a_ncols + j: v for j, v in b.items()})
    rows, pivots = echelon(field, a_ncols + b_ncols, aug)
    if any(pc >= a_ncols for pc in pivots):
        return None
    out = [[f.zero] * b_ncols for _ in range(a_ncols)]
    for i, pc in enumerate(pivots):
        for j, v in rows[i].items():
            if j >= a_ncols:
                out[pc][j - a_ncols] = v
    return out


def matmul(field, a, b, ncols):
    """Product of two matrices given as lists of lists; b has ncols columns."""
    f = field
    inner = len(b)
    out = []
    for arow in a:
        acc = [f.zero] * ncols
        for k in range(inner):
            for j in range(ncols):
                acc[j] = f.add(acc[j], f.mul(arow[k], b[k][j]))
        out.append(acc)
    return out
