"""The complex-cube decision path against reference definitions.

`GradedMap.is_closed` compares d_T f with (-1)^|f| f d_S degree by degree;
the reference builds the whole difference d(f) and tests it for zero.
`Complex.cohomology` ranks each differential once; the reference ranks
d(k) and d(k-1) afresh for every degree.  `io.matrix_in` reads a row of
plain ints in [1, p) over F_p at C speed; the reference reads every entry
through one comprehension.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dgglue import io as dio
from dgglue.complexes import GradedMap
from dgglue.fields import QQ, FieldError, PrimeField
from dgglue.linalg import Matrix
from dgglue.samples import (random_complex, random_matrix, random_tensor_cube,
                            rng)

F7 = PrimeField(7)
FIELDS = pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
SEEDS = st.integers(0, 2 ** 32 - 1)


def reference_boundary(f: GradedMap) -> GradedMap:
    """d(f) = d_T f - (-1)^|f| f d_S, a graded map of degree |f| + 1."""
    field = f.source.field
    sgn = field.one if f.degree % 2 == 0 else field.neg(field.one)
    comps = {}
    for k in range(f.source.lo - 1, f.source.hi + 1):
        m = f.target.d(k + f.degree) @ f.comp(k) - \
            (f.comp(k + 1) @ f.source.d(k)).scaled(sgn)
        if not m.is_zero():
            comps[k] = m
    return GradedMap(f.source, f.target, f.degree + 1, comps)


def reference_is_closed(f: GradedMap) -> bool:
    return not reference_boundary(f).comps


def random_graded_map(rnd, source, target, degree, density=0.6):
    field = source.field
    return GradedMap(source, target, degree, {
        k: random_matrix(field, rnd, target.dim(k + degree), source.dim(k),
                         density)
        for k in source.degrees()})


def perturbed(rnd, f: GradedMap) -> GradedMap:
    """f plus one random nonzero matrix unit, where f has room for one."""
    field = f.source.field
    slots = [k for k in f.source.degrees() if f.target.dim(k + f.degree)]
    if not slots:
        return f
    k = rnd.choice(slots)
    m = Matrix(field, *f.comp(k).shape, [dict(r) for r in f.comp(k).rows])
    i, j = rnd.randrange(m.nrows), rnd.randrange(m.ncols)
    m.set(i, j, field.add(m.get(i, j), field.one))
    comps = dict(f.comps)
    comps[k] = m
    return GradedMap(f.source, f.target, f.degree, comps)


@FIELDS
@settings(max_examples=40)
@given(seed=SEEDS, degree=st.sampled_from([-1, 0, 1]))
def test_is_closed_matches_boundary_definition(field, seed, degree):
    rnd = rng(seed)
    s = random_complex(field, rnd, -1, 1, 3)
    t = random_complex(field, rnd, -1, 1, 3)
    # closed: the boundary of a random map of degree - 1
    b = reference_boundary(random_graded_map(rnd, s, t, degree - 1))
    assert b.degree == degree
    assert b.is_closed() and reference_is_closed(b)
    # a random map, closed or not, and a closed map knocked off by one entry
    for f in (random_graded_map(rnd, s, t, degree, rnd.random()),
              perturbed(rnd, b)):
        assert f.is_closed() == reference_is_closed(f)


@FIELDS
@settings(max_examples=10)
@given(seed=SEEDS)
def test_is_closed_on_tensor_cube_edges(field, seed):
    rnd = rng(seed)
    cube = random_tensor_cube(field, rnd, 2)
    for e in cube.edges.values():
        assert e.is_closed() and reference_is_closed(e)
        f = perturbed(rnd, e)
        assert f.is_closed() == reference_is_closed(f)


@FIELDS
def test_is_closed_sees_both_verdicts(field):
    # the differential tests above compare verdicts; make sure both occur
    verdicts = set()
    for seed in range(20):
        rnd = rng(seed)
        s = random_complex(field, rnd, -1, 1, 3)
        t = random_complex(field, rnd, -1, 1, 3)
        for degree in (-1, 0, 1):
            f = random_graded_map(rnd, s, t, degree)
            verdicts.add(f.is_closed())
            assert f.is_closed() == reference_is_closed(f)
    assert verdicts == {True, False}


@FIELDS
@settings(max_examples=40)
@given(seed=SEEDS, acyclic=st.sampled_from([None, True, False]))
def test_cohomology_ranks_each_differential_once(field, seed, acyclic):
    c = random_complex(field, rng(seed), -2, 2, 4, acyclic=acyclic)
    rank = Matrix.rank
    expected = {}
    for k in range(c.lo, c.hi + 1):
        h = c.dim(k) - rank(c.d(k)) - rank(c.d(k - 1))
        if h:
            expected[k] = h
    ranked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "rank",
                   lambda self: ranked.append(self) or rank(self))
        assert c.cohomology() == expected
    # one call per differential d(lo - 1) .. d(hi), each stored one once
    assert len(ranked) <= c.hi - c.lo + 2
    stored = [id(m) for m in ranked if any(m is d for d in c.diffs.values())]
    assert len(stored) == len(set(stored)) == len(c.diffs)
    assert c.is_acyclic() == (not expected)


def reference_matrix_in(field, rows, shape=None) -> Matrix:
    """`io.matrix_in` with every entry read through one comprehension."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise dio.DocumentError("a matrix must be a list of rows, each a list")
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise dio.DocumentError("ragged rows")
    p, parse = field.modulus, field.parse
    m = Matrix(field, len(rows), ncols, [
        {j: x for j, v in enumerate(row)
         if (x := v % p if p and type(v) is int else parse(v))}
        for row in rows])
    if shape is not None and m.shape != shape and m.nrows * m.ncols == 0:
        m = Matrix.zeros(field, *shape)
    if shape is not None and m.shape != shape:
        raise dio.DocumentError(f"matrix shape {m.shape} != expected {shape}")
    return m


def _outcome(fn, field, rows):
    try:
        m = fn(field, rows)
    except (dio.DocumentError, FieldError) as exc:
        return type(exc), str(exc)
    return m.shape, m.rows


ODD = st.one_of(
    st.integers(-8, 20), st.integers(-2 ** 80, 2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1", "0/5", "-0", "3/4", "12", "x", ""]),
    st.booleans())
SHORT_ROWS = st.lists(st.lists(st.one_of(st.integers(0, 6), ODD), max_size=6),
                      max_size=4)


@st.composite
def wide_rows(draw):
    """Rows long enough for the C-speed read: zeros and small ints, with an
    odd scalar in some rows and now and then a ragged last row."""
    n = draw(st.integers(dio.WIDE_ROW - 1, dio.WIDE_ROW + 4))
    rows = [draw(st.lists(st.one_of(st.just(0), st.integers(0, 6)),
                          min_size=n, max_size=n))
            for _ in range(draw(st.integers(0, 3)))]
    for row in rows:
        if draw(st.booleans()):
            row[draw(st.integers(0, n - 1))] = draw(ODD)
    if rows and draw(st.integers(0, 9)) == 0:
        rows[-1].append(0)
    return rows


@pytest.mark.parametrize("field", [QQ, F7, PrimeField(2 ** 61 - 1)],
                         ids=["Q", "F7", "Fmersenne61"])
@settings(max_examples=100)
@given(rows=st.one_of(SHORT_ROWS, wide_rows()))
def test_matrix_in_matches_reference(field, rows):
    got = _outcome(dio.matrix_in, field, rows)
    assert got == _outcome(reference_matrix_in, field, rows)
    if any(type(v) is bool for row in rows for v in row) and \
            len({len(row) for row in rows}) == 1:
        assert got[0] is FieldError


# Q rows as documents write them, mostly the string "0" that `matrix_in`
# drops without a parse call, among other spellings of zero and bad scalars
Q_ROWS = st.integers(0, 6).flatmap(lambda n: st.lists(st.lists(
    st.one_of(st.just("0"), st.sampled_from(
        ["0/5", "-0", 0, "3/4", "-2", 5, "x", "1/0", "", True, False, 1.5,
         None])), min_size=n, max_size=n), max_size=4))


@settings(max_examples=200)
@given(rows=Q_ROWS)
def test_matrix_in_zero_skip_matches_reference(rows):
    got = _outcome(dio.matrix_in, QQ, rows)
    assert got == _outcome(reference_matrix_in, QQ, rows)
    bad = [v for row in rows for v in row
           if type(v) not in (int, str) or v in ("x", "1/0", "")]
    assert (got[0] is FieldError) == bool(bad)


EDGE_ROWS = [
    [[0, 0, 0], [0, 0, 0]], [[1, 2, 6]], [[7, 14, -1]], [[-1, 0, 3]],
    [[0, -7, 0]], [[0, 2 ** 90, 3]],
    [[1.0, 0, 1]], [[0.0, 1, 0]], [["0/5", "-0", 2]], [[1, 0], [0]],
    [[True, 1]], [[0, False]], [[]], []]


@FIELDS
@pytest.mark.parametrize("wide", [False, True], ids=["short", "wide"])
@pytest.mark.parametrize("rows", EDGE_ROWS)
def test_matrix_in_edge_rows(field, rows, wide):
    if wide:        # the same rows, padded with zeros past WIDE_ROW
        rows = [row + [0] * dio.WIDE_ROW for row in rows]
    got = _outcome(dio.matrix_in, field, rows)
    assert got == _outcome(reference_matrix_in, field, rows)
    if any(type(v) is bool for row in rows for v in row):
        assert got[0] is FieldError


@FIELDS
def test_parse_rejects_booleans(field):
    for b in (True, False):
        with pytest.raises(FieldError):
            field.parse(b)
    assert field.parse(1) == field.one and field.parse("0") == field.zero
