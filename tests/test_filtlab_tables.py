"""Differential tests: `mul_kron` against the Kronecker product it avoids,
and the structure-constant tables and checks of `filtlab` against the
one-vector-at-a-time references in `reference_filtlab.py`, on random
filtered algebras and on the same algebras with corrupted multiplication."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_filtlab as ref
from dgglue.fields import QQ, PrimeField
from dgglue.filtlab import (FilteredAlgebra, auslander, proj_dgcat,
                            truncated_polynomial_algebra, validate_filtration)
from dgglue.linalg import LinAlgError, Matrix, kron, mul_kron
from dgglue.samples import (random_filtered_algebra, random_matrix,
                            random_scalar)

FIELDS = pytest.mark.parametrize("field", [PrimeField(7), QQ],
                                 ids=["F7", "Q"])


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:    # compared by type and message
        return type(exc), str(exc)


# -- mul_kron -----------------------------------------------------------------


@FIELDS
@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.tuples(*[st.integers(0, 4)] * 5),
       eye=st.sampled_from(["", "x", "y", "xy"]))
def test_mul_kron_matches_kron(field, seed, shape, eye):
    rnd = random.Random(seed)
    xr, xc, yr, yc, r = shape
    if "x" in eye:
        xc = xr
    if "y" in eye:
        yc = yr
    x = random_matrix(field, rnd, xr, xc)
    y = random_matrix(field, rnd, yr, yc)
    c = random_matrix(field, rnd, r, xr * yr)
    expect = c @ kron(Matrix.identity(field, xr) if "x" in eye else x,
                      Matrix.identity(field, yr) if "y" in eye else y)
    got = mul_kron(c, xr if "x" in eye else x, yr if "y" in eye else y)
    assert got == expect
    assert all(0 not in row.values() for row in got.rows)


@FIELDS
def test_mul_kron_empty_factors_and_shape_check(field):
    rnd = random.Random(0)
    for xr, yr in ((0, 3), (3, 0), (0, 0)):
        x, y = random_matrix(field, rnd, xr, 2), random_matrix(field, rnd, yr, 2)
        c = Matrix.zeros(field, 2, 0)
        assert mul_kron(c, x, y) == c @ kron(x, y)
        assert mul_kron(c, xr, y) == c @ kron(Matrix.identity(field, xr), y)
        assert mul_kron(c, x, yr) == c @ kron(x, Matrix.identity(field, yr))
    with pytest.raises(LinAlgError):
        mul_kron(Matrix.zeros(field, 2, 5), 2, 2)


# -- filtered algebras ----------------------------------------------------------


def _corrupt(alg, rnd, count):
    """`alg` with `count` products bumped; half of them stay commutative."""
    field, dim = alg.field, alg.dim
    mult = {(i, j): list(alg.mul_basis(i, j))
            for i in range(dim) for j in range(dim)}
    for _ in range(count):
        i, j, r = (rnd.randrange(dim) for _ in range(3))
        mult[(i, j)][r] = field.add(mult[(i, j)][r],
                                    random_scalar(field, rnd, nonzero=True))
        if rnd.random() < 0.5:
            mult[(j, i)] = list(mult[(i, j)])
    return FilteredAlgebra(field, dim, {k: tuple(v) for k, v in mult.items()},
                           alg.unit, alg.length, alg.filtration,
                           alg.basis_names)


def _algebra(field, seed, corrupt, **size):
    rnd = random.Random(seed)
    alg = random_filtered_algebra(field, rnd, **size)
    return _corrupt(alg, rnd, corrupt) if corrupt else alg


@FIELDS
@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), corrupt=st.sampled_from([0, 1, 3, 12]))
def test_validate_filtration_matches_reference(field, seed, corrupt):
    alg = _algebra(field, seed, corrupt)
    full = ref.validate_filtration(alg, max_report=10 ** 6)
    assert validate_filtration(alg, max_report=10 ** 6) == full
    assert validate_filtration(alg) == full[:20]
    if not corrupt:
        assert full == []


@FIELDS
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), corrupt=st.sampled_from([0, 1, 4]))
def test_proj_dgcat_tables_match_reference(field, seed, corrupt):
    alg = _algebra(field, seed, corrupt, max_dim=5)
    cat = proj_dgcat(alg)
    objs = range(alg.length)
    for i in objs:
        for j in objs:
            for k in objs:
                assert _outcome(cat.comp_matrix, str(i), str(j), str(k), 0, 0) \
                    == _outcome(ref.proj_comp_table, alg, i, j, k)


@FIELDS
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), corrupt=st.sampled_from([0, 1, 4, 20]))
def test_auslander_matches_reference(field, seed, corrupt):
    alg = _algebra(field, seed, corrupt, max_dim=3, max_len=3)
    # the table is built whole, so compare where every product stays in its
    # filtration level, as the `auslander` command checks first
    if any("escapes" in v or "contained" in v
           for v in validate_filtration(alg, max_report=10 ** 6)):
        return
    aus = auslander(alg)
    for t1 in range(aus.dim):
        for t2 in range(aus.dim):
            assert aus.mul_basis(t1, t2) == ref.auslander_mul_basis(aus, t1, t2)
    assert aus.validate(max_report=10 ** 6) == \
        ref.auslander_validate(aus, max_report=10 ** 6)
    assert aus.validate() == ref.auslander_validate(aus)


def test_unit_of_wrong_length_is_a_violation():
    alg = _algebra(QQ, 5, 0)
    for unit in (alg.unit[:-1], (*alg.unit, 0)):
        short = FilteredAlgebra(QQ, alg.dim, alg.mul_basis, unit, alg.length,
                                alg.filtration, alg.basis_names)
        assert validate_filtration(short) == ["unit has wrong length"]


@FIELDS
def test_one_sided_unit_failure_matches_reference(field):
    # x * 1 = 2x while 1 * x = x: only the right unit law fails, and every
    # product still lies in its filtration level
    alg = truncated_polynomial_algebra(field, 2)
    mult = {(i, j): alg.mul_basis(i, j) for i in range(2) for j in range(2)}
    mult[(1, 0)] = (field.zero, field(2))
    bad = FilteredAlgebra(field, 2, mult, alg.unit, alg.length,
                          alg.filtration, alg.basis_names)
    assert validate_filtration(bad) == ref.validate_filtration(bad) == \
        ["commutativity fails at (0,1)", "commutativity fails at (1,0)",
         "associativity fails at (1,0,0)"]
    aus = auslander(bad)
    assert aus.validate() == ref.auslander_validate(aus)
    assert aus.validate()[:2] == ["unit fails on basis (0, 0, 1)",
                                  "unit fails on basis (0, 1, 0)"]
