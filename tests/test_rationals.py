"""Integral rationals are ints: no Q result ever holds a float, and cohomology
over Q of integral inputs never exceeds that of their reduction mod 7."""

import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from dgglue.complexes import Complex, GradedMap, cohomology_basis
from dgglue.fields import QQ, PrimeField
from dgglue.filtlab import proj_dgcat
from dgglue.glue import gac
from dgglue.hypercube import ComplexCube, totalize
from dgglue.linalg import Matrix, kron
from dgglue.samples import (random_complex, random_dg_cube,
                            random_filtered_algebra, random_invertible,
                            random_tensor_cube, rng)

F7 = PrimeField(7)


def test_integral_scalars_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for x in (3, "3", "-6/2", Fraction(4, 2), True):
        assert type(QQ(x)) is int
    for s in (3, "3", "-6/2", "0"):
        assert type(QQ.parse(s)) is int
    assert QQ("1/2") == QQ.parse("1/2") == Fraction(1, 2)
    assert QQ.inv(2) == Fraction(1, 2) and QQ.inv(Fraction(-1, 3)) == -3
    assert type(QQ.inv(2)) is Fraction and type(QQ.inv(-1)) in (int, Fraction)
    assert QQ.format(QQ.parse("-6/2")) == "-3"


def _entries(m):
    return [v for row in m.rows for v in row.values()]


def _assert_exact(*mats):
    for m in mats:
        for v in _entries(m):
            assert type(v) in (int, Fraction), (m, v)


def _q_matrix(r, nrows, ncols, density):
    """Entries mixing ints, Fraction(k, 1) and proper fractions."""
    m = Matrix.zeros(QQ, nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if r.random() < density:
                num, den = r.randint(-4, 4), r.randint(1, 3)
                m.set(i, j, r.choice((num, Fraction(num), Fraction(num, den))))
    return m


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nrows=st.integers(0, 12),
       ncols=st.integers(0, 12), density=st.sampled_from([0.2, 0.6, 1.0]))
def test_linalg_results_hold_no_float(seed, nrows, ncols, density):
    r = random.Random(seed)
    m = _q_matrix(r, nrows, ncols, density)
    x = _q_matrix(r, ncols, 3, density)
    y = _q_matrix(r, nrows, 2, density)
    rref, _ = m._echelon()
    _assert_exact(Matrix(QQ, len(rref), ncols, rref), m.kernel_basis(),
                  m @ x, kron(m, x))
    for rhs in (m @ x, y):
        sol = m.solve(rhs)
        if sol is not None:
            _assert_exact(sol)
    inv = random_invertible(QQ, r, nrows)
    _assert_exact(inv, inv.inverse())
    for v in _entries(m):
        assert type(QQ.inv(v)) in (int, Fraction)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_tables_and_cohomology_hold_no_float(seed):
    r = rng(seed)
    for cat in (gac(random_dg_cube(QQ, r, 2)).category,
                proj_dgcat(random_filtered_algebra(QQ, r, max_dim=4))):
        for a in cat.objects:
            for b in cat.objects:
                for c in cat.objects:
                    for i in cat.hom(b, c).degrees():
                        for j in cat.hom(a, b).degrees():
                            _assert_exact(cat.comp_matrix(a, b, c, i, j))
    cx = random_complex(QQ, r)
    for k in range(cx.lo - 1, cx.hi + 2):
        _assert_exact(*cohomology_basis(cx, k))


# -- dim H over F_7 >= dim H over Q on integral inputs -----------------------


def _denominators(mats):
    return lcm(1, *(getattr(v, "denominator", 1)
                    for m in mats for v in _entries(m)))


def _scaled(field, m, scale):
    """scale * m as ints over Q, or reduced mod 7 over F_7."""
    p = field.modulus
    rows = [{j: w for j, v in row.items()
             if (w := int(scale * v) % p if p else int(scale * v))}
            for row in m.rows]
    return Matrix(field, m.nrows, m.ncols, rows)


def _integral_complex(field, c, scale, seven=None):
    """`c` with every differential times `scale`, and the one at degree
    `seven` times 7 more: d^2 = 0 still holds, the Q-ranks stay, and mod 7
    that differential vanishes."""
    return Complex(field, c.dims,
                   {k: _scaled(field, m, scale * (7 if k == seven else 1))
                    for k, m in c.diffs.items()})


def _integral_cube(field, cube, scale, edge_factor):
    """`cube` with every differential times `scale` and every edge times
    `scale * edge_factor`.  The identities of a strict cube are homogeneous in
    the differentials and in the edges, so the result is a strict cube over Q
    and mod 7.  Over Q it is isomorphic to `cube` (rescale the summand of
    vertex I by scale^|I| edge_factor^|I|), so its totalization has the same
    cohomology."""
    vertices = {I: _integral_complex(field, v, scale)
                for I, v in cube.vertices.items()}
    edges = {(I, l): GradedMap(vertices[I], vertices[I | {l}], 0,
                               {k: _scaled(field, m, scale * edge_factor)
                                for k, m in e.comps.items()})
             for (I, l), e in cube.edges.items()}
    return ComplexCube(field, cube.top, cube.shape, vertices, edges)


def _assert_fp_at_least_q(h_q, h_fp):
    for k in set(h_q) | set(h_fp):
        assert h_fp.get(k, 0) >= h_q.get(k, 0)
    # the dimensions agree, so the Euler characteristics do
    euler = lambda h: sum((-1) ** k * d for k, d in h.items())
    assert euler(h_q) == euler(h_fp)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       acyclic=st.sampled_from([None, True, False]),
       seven=st.sampled_from([None, -2, -1, 0, 1]))
def test_integral_complex_cohomology_mod_7(seed, acyclic, seven):
    c = random_complex(QQ, rng(seed), max_dim=4, acyclic=acyclic)
    scale = _denominators(c.diffs.values())
    h = _integral_complex(QQ, c, scale, seven).cohomology()
    assert h == c.cohomology()
    _assert_fp_at_least_q(
        h, _integral_complex(F7, c, scale, seven).cohomology())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       acyclic=st.sampled_from([None, True, False]),
       edge_factor=st.sampled_from([1, 7]))
def test_integral_tensor_cube_cohomology_mod_7(seed, n, acyclic, edge_factor):
    cube = random_tensor_cube(QQ, rng(seed), n, acyclic=acyclic)
    scale = _denominators(
        [m for v in cube.vertices.values() for m in v.diffs.values()] +
        [m for e in cube.edges.values() for m in e.comps.values()])
    h = totalize(_integral_cube(QQ, cube, scale, edge_factor)).cohomology()
    assert h == totalize(cube).cohomology()
    _assert_fp_at_least_q(h, totalize(
        _integral_cube(F7, cube, scale, edge_factor)).cohomology())
