import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_linalg as ref

from dgglue.fields import MR_BOUND, QQ, PrimeField, FieldError, _is_prime
from dgglue.linalg import LinAlgError, Matrix, kron, quotient_maps
from dgglue.samples import random_invertible, random_matrix, rng


def test_prime_field_rejects_composites():
    with pytest.raises(FieldError):
        PrimeField(6)


@pytest.mark.parametrize("p", [
    3825123056546413051,            # strong pseudoprime to bases 2..23
    318665857834031151167461,       # strong pseudoprime to bases 2..37
    1000000000039 * 1000000000061,
    2 ** 89 - 1,                    # prime, but above MR_BOUND
], ids=["spsp-23", "spsp-37", "semiprime", "above-bound"])
def test_prime_field_rejects_large_p(p):
    with pytest.raises(FieldError):
        PrimeField(p)


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [p for p in range(10 ** 5) if _is_prime(p)] == \
        [p for p in range(10 ** 5) if _trial_division(p)]
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert MR_BOUND > 2 ** 61


def test_rational_parse_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    assert QQ.format(Fraction(5)) == "5"


def test_rank_identity_and_zero():
    assert Matrix.identity(QQ, 3).rank() == 3
    assert Matrix.zeros(QQ, 2, 5).rank() == 0


def test_rank_dependent_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert Matrix.identity(QQ, 4).kernel_basis().ncols == 0


def test_kernel_zero_map():
    k = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert k.ncols == 3 and k.rank() == 3


def test_kernel_one_relation():
    k = Matrix.from_rows(QQ, [[1, 1]]).kernel_basis()
    assert k.ncols == 1
    col = k.columns()[0]
    assert col[0] == -col[1] != 0


@pytest.mark.parametrize("p", [2, 5, 7])
def test_rank_kernel_random_modp(p):
    field = PrimeField(p)
    r = rng(p)
    for _ in range(25):
        m = random_matrix(field, r, r.randrange(5), r.randrange(5))
        k = m.kernel_basis()
        assert (m @ k).is_zero()
        assert k.ncols == m.ncols - m.rank()


def test_solve_consistency():
    r = rng(3)
    field = PrimeField(5)
    for _ in range(25):
        a = random_matrix(field, r, 4, 3)
        x = random_matrix(field, r, 3, 2)
        b = a @ x
        sol = a.solve(b)
        assert sol is not None and a @ sol == b


def test_solve_inconsistent_returns_none():
    a = Matrix.from_rows(QQ, [[1], [0]])
    b = Matrix.from_rows(QQ, [[0], [1]])
    assert a.solve(b) is None


def test_inverse_roundtrip():
    r = rng(11)
    for field in (QQ, PrimeField(7)):
        for _ in range(10):
            n = r.randrange(1, 5)
            m = random_invertible(field, r, n)
            assert m @ m.inverse() == Matrix.identity(field, n)


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["F7", "Q"])
def test_inverse_matches_reference_solve(field):
    """inverse() is the reference kernel's solution of A X = I, and a
    singular or non-square matrix raises."""
    r = rng(23)
    for _ in range(25):
        n = r.randrange(0, 9)
        m = random_invertible(field, r, n)
        inv = m.inverse()
        eye = Matrix.identity(field, n)
        assert inv.to_lists() == ref.solve(field, m.rows, n, eye.rows, n)
        assert m @ inv == eye and inv @ m == eye
    singular = [Matrix.zeros(field, 1, 1), Matrix.from_rows(field, [[1, 2], [2, 4]]),
                random_matrix(field, r, 4, 3) @ random_matrix(field, r, 3, 4)]
    for m in singular:
        with pytest.raises(LinAlgError, match="^matrix is singular$"):
            m.inverse()
    for shape in ((2, 3), (3, 2), (0, 1)):
        with pytest.raises(LinAlgError, match="non-square"):
            Matrix.zeros(field, *shape).inverse()


def test_block_and_stack():
    a = Matrix.identity(QQ, 2)
    b = Matrix.zeros(QQ, 2, 1)
    h = Matrix.hstack([a, b])
    assert h.shape == (2, 3)
    v = Matrix.vstack([a, Matrix.zeros(QQ, 1, 2)])
    assert v.shape == (3, 2)
    blk = Matrix.block(QQ, [2, 1], [2], {(0, 0): a, (1, 0): Matrix.zeros(QQ, 1, 2)})
    assert blk.shape == (3, 2)


def test_kron_shape_and_values():
    a = Matrix.from_rows(QQ, [[2]])
    b = Matrix.from_rows(QQ, [[1, 0], [0, 3]])
    k = kron(a, b)
    assert k.shape == (2, 2) and k.get(1, 1) == 6


def test_quotient_maps():
    sub = Matrix.from_rows(QQ, [[1], [1], [0]])
    proj, lift = quotient_maps(QQ, 3, sub)
    assert (proj @ sub).is_zero()
    assert proj @ lift == Matrix.identity(QQ, 2)


def test_quotient_maps_full_and_zero():
    proj, lift = quotient_maps(QQ, 2, Matrix.identity(QQ, 2))
    assert proj.nrows == 0
    proj, lift = quotient_maps(QQ, 2, Matrix.zeros(QQ, 2, 0))
    assert proj.nrows == 2 and proj @ lift == Matrix.identity(QQ, 2)


@st.composite
def matrices(draw, field, nrows=None, max_dim=40):
    """A matrix of any shape up to max_dim x max_dim, sparse or dense, and
    of full or deficient rank (a product through a narrow inner dimension)."""
    # hypothesis favours small integers; the sampled sizes keep large
    # matrices as common as small ones
    dims = st.integers(0, max_dim) | st.sampled_from([max_dim // 2, max_dim])
    if nrows is None:
        nrows = draw(dims)
    ncols = draw(dims)
    density = draw(st.sampled_from([0.05, 0.2, 0.6, 1.0]))
    inner = draw(st.sampled_from([None, 0, 1, 3, 8]))
    r = random.Random(draw(st.integers(0, 2 ** 32)))

    def scalar():
        if field == QQ:
            # integral values as ints and as Fraction(k, 1), beside proper
            # fractions: parsed Q matrices hold ints, eliminated ones both
            num, den = r.randint(-4, 4), r.randint(1, 3)
            return r.choice((num, Fraction(num), Fraction(num, den)))
        return r.randrange(field.p)

    def rand(n, m):
        out = Matrix.zeros(field, n, m)
        for i in range(n):
            for j in range(m):
                if r.random() < density:
                    out.set(i, j, scalar())
        return out

    if inner is None:
        return rand(nrows, ncols)
    return rand(nrows, inner) @ rand(inner, ncols)


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["F7", "Q"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference(field, data):
    """RREF, pivots, kernel, solve and product agree with the reference
    kernel, on every shape from 0x0 to 40x40, sparse and dense."""
    m = data.draw(matrices(field))
    x = data.draw(matrices(field, nrows=m.ncols, max_dim=4))
    y = data.draw(matrices(field, nrows=m.nrows, max_dim=4))
    rows, pivots = m._echelon()
    ref_rows, ref_pivots = ref.echelon(field, m.ncols, m.rows)
    assert pivots == ref_pivots
    assert rows == ref_rows[:len(ref_pivots)]
    assert m.rank() == len(ref_pivots)
    assert m.column_space_pivots() == ref_pivots
    k = m.kernel_basis()
    assert k.to_lists() == ref.kernel_basis(field, m.ncols, m.rows)
    assert m.rank() + k.ncols == m.ncols
    assert (m @ k).is_zero()
    for rhs in (m @ x, y):  # consistent; usually not
        sol = m.solve(rhs)
        expect = ref.solve(field, m.rows, m.ncols, rhs.rows, rhs.ncols)
        assert (sol is None) == (expect is None)
        if sol is not None:
            assert sol.to_lists() == expect
            assert m @ sol == rhs
    assert (m @ x).to_lists() == ref.matmul(field, m.to_lists(),
                                             x.to_lists(), x.ncols)
