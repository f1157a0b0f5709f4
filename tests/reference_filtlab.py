"""Reference filtered-algebra tables and checks for differential tests of
`dgglue.filtlab`.

These are the builders and validators the package shipped before its tables
became structure-constant products.  Each multiplies one pair of basis
vectors at a time: it lifts quotient classes to the algebra, multiplies the
representatives with `mul_vec`, and reads the product back through a solve
per vector.  They are kept verbatim in behaviour, so every table, product
and violation list of the matrix path must equal theirs exactly.
"""

from dgglue.filtlab import FiltError
from dgglue.linalg import Matrix


def mul_vec(alg, u, v):
    """The product of two coordinate vectors of `alg`."""
    field = alg.field
    out = [field.zero] * alg.dim
    for i, a in enumerate(u):
        if field.is_zero(a):
            continue
        for j, b in enumerate(v):
            if field.is_zero(b):
                continue
            c = field.mul(a, b)
            for r, w in enumerate(alg.mul_basis(i, j)):
                if not field.is_zero(w):
                    out[r] = field.add(out[r], field.mul(c, w))
    return tuple(out)


def in_fil(alg, s, vec):
    return alg.fil(s).solve(Matrix.column(alg.field, vec)) is not None


def fil_coords(alg, s, vec):
    """Coordinates of an ambient vector in the F^s basis of `alg`."""
    return _basis_coords(alg.fil(s), s, vec)


def _basis_coords(basis, s, vec):
    sol = basis.solve(Matrix.column(basis.field, vec))
    if sol is None:
        raise FiltError(f"vector is not in F^{s}")
    return tuple(x for row in sol.to_lists() for x in row)


def to_ambient(q, coords):
    return q.basis.apply(q.lift.apply(coords))


def from_ambient(q, vec):
    return q.proj.apply(_basis_coords(q.basis, q.s, vec))


def _unit(field, n, i):
    e = [field.zero] * n
    e[i] = field.one
    return e


# -- proj_dgcat ---------------------------------------------------------------


def proj_comp_table(alg, i, j, k):
    """The composition table hom(j, k) (x) hom(i, j) -> hom(i, k) of
    `proj_dgcat(alg)`, with hom(i, j) = F^{j-i} / F^{j-n}."""
    field, n = alg.field, alg.length
    qg, qf, qt = (alg.quot(j2 - i2, j2 - n)
                  for i2, j2 in ((j, k), (i, j), (i, k)))
    out = Matrix.zeros(field, qt.dim, qg.dim * qf.dim)
    for gi in range(qg.dim):
        g_amb = to_ambient(qg, _unit(field, qg.dim, gi))
        for fi in range(qf.dim):
            prod = mul_vec(alg, g_amb, to_ambient(qf, _unit(field, qf.dim, fi)))
            for r, v in enumerate(from_ambient(qt, prod)):
                if not field.is_zero(v):
                    out.set(r, gi * qf.dim + fi, v)
    return out


# -- the Auslander algebra ----------------------------------------------------


def auslander_mul_basis(aus, t1, t2):
    """Product of basis elements; (i,j,s) * (j',k,u) is zero unless j = j'."""
    field = aus.field
    i, j, s = aus.basis[t1]
    j2, k, u = aus.basis[t2]
    out = [field.zero] * aus.dim
    if j != j2:
        return tuple(out)
    qa, qb = aus.blocks[(i, j)], aus.blocks[(j, k)]
    prod = mul_vec(aus.alg, to_ambient(qa, _unit(field, qa.dim, s)),
                   to_ambient(qb, _unit(field, qb.dim, u)))
    qt = aus.blocks[(i, k)]
    for r, v in enumerate(from_ambient(qt, prod)):
        out[aus.index[(i, k, r)]] = v
    return tuple(out)


def auslander_validate(aus, max_report=10):
    bad = []
    field = aus.field
    one = aus.unit_vec()

    def mul(u, v):
        out = [field.zero] * aus.dim
        for t1, a in enumerate(u):
            if field.is_zero(a):
                continue
            for t2, b in enumerate(v):
                if field.is_zero(b):
                    continue
                c = field.mul(a, b)
                for r, w in enumerate(auslander_mul_basis(aus, t1, t2)):
                    if not field.is_zero(w):
                        out[r] = field.add(out[r], field.mul(c, w))
        return tuple(out)

    for t in range(aus.dim):
        e = tuple(_unit(field, aus.dim, t))
        if mul(one, e) != e or mul(e, one) != e:
            bad.append(f"unit fails on basis {aus.basis[t]}")
    for t1 in range(aus.dim):
        for t2 in range(aus.dim):
            p12 = auslander_mul_basis(aus, t1, t2)
            for t3 in range(aus.dim):
                lhs = mul(p12, _unit(field, aus.dim, t3))
                rhs = mul(_unit(field, aus.dim, t1),
                          auslander_mul_basis(aus, t2, t3))
                if lhs != rhs:
                    bad.append(f"associativity fails at "
                               f"{aus.basis[t1]},{aus.basis[t2]},{aus.basis[t3]}")
                    if len(bad) >= max_report:
                        return bad
    return bad


# -- filtered algebras --------------------------------------------------------


def validate_filtration(alg, max_report=20):
    """Check all filtered-algebra axioms; returns a list of violations."""
    bad = []
    field = alg.field

    def report(msg):
        if len(bad) < max_report:
            bad.append(msg)

    one = alg.unit
    for i in range(alg.dim):
        e = _unit(field, alg.dim, i)
        if mul_vec(alg, one, e) != tuple(e):
            report(f"unit fails on basis {i}")
    for i in range(alg.dim):
        for j in range(alg.dim):
            ei, ej = _unit(field, alg.dim, i), _unit(field, alg.dim, j)
            if mul_vec(alg, ei, ej) != mul_vec(alg, ej, ei):
                report(f"commutativity fails at ({i},{j})")
            for k in range(alg.dim):
                ek = _unit(field, alg.dim, k)
                lhs = mul_vec(alg, mul_vec(alg, ei, ej), ek)
                rhs = mul_vec(alg, ei, mul_vec(alg, ej, ek))
                if lhs != rhs:
                    report(f"associativity fails at ({i},{j},{k})")
    if alg.fil(0).ncols != alg.dim or alg.fil(0).rank() != alg.dim:
        report("F^0 is not the whole algebra")
    if alg.fil(-alg.length).ncols != 0:
        report(f"F^{-alg.length} is not zero")
    for k in range(alg.length):
        big, small = alg.fil(-k), alg.fil(-k - 1)
        if big.solve(small) is None:
            report(f"F^{-k - 1} not contained in F^{-k}")
    for a in range(alg.length + 1):
        for b in range(alg.length + 1):
            fa, fb = alg.fil(-a), alg.fil(-b)
            for ca in fa.columns():
                for cb in fb.columns():
                    if not in_fil(alg, -a - b, mul_vec(alg, ca, cb)):
                        report(f"F^{-a} * F^{-b} escapes F^{-a - b}")
    return bad
