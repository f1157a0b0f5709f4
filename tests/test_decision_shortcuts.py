"""The quasi-isomorphism test decides from cohomology dimensions first, and
functor composition skips products through identity factors.

Differential tests compare both with the versions in `reference_decision.py`;
counting tests check that the skipped work is really skipped.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_decision as ref
from dgglue import complexes
from dgglue.complexes import Complex, GradedMap, is_quasi_iso, zero_complex
from dgglue.dgcat import (DgFunctor, compose_functors, functors_equal,
                          identity_functor)
from dgglue.fields import QQ, PrimeField
from dgglue.io import category_in, category_out
from dgglue.linalg import Matrix
from dgglue.samples import (random_chain_map, random_complex, random_dg_cube,
                            random_invertible)

FIELDS = pytest.mark.parametrize("field", [PrimeField(7), QQ],
                                 ids=["F7", "Q"])


# -- quasi-isomorphisms ---------------------------------------------------------


def _window(rnd):
    lo = rnd.randrange(-3, 2)
    return lo, lo + rnd.randrange(0, 3)


def _conjugate(c, rnd):
    """An isomorphic copy of c, and the invertible P_k with d' = P d P^-1."""
    conj = {k: random_invertible(c.field, rnd, c.dim(k)) for k in c.degrees()}
    d = Complex(c.field, dict(c.dims),
                {k: conj[k + 1] @ (c.d(k) @ conj[k].inverse())
                 for k in c.dims if not c.d(k).is_zero()})
    return d, conj


def _direct_sum(c, a):
    field = c.field
    dims = {k: c.dim(k) + a.dim(k) for k in set(c.dims) | set(a.dims)}
    return Complex(field, dims, {
        k: Matrix.block(field, [c.dim(k + 1), a.dim(k + 1)],
                        [c.dim(k), a.dim(k)], {(0, 0): c.d(k), (1, 1): a.d(k)})
        for k in dims})


def _summand_maps(c, a):
    """The inclusion c -> c (+) a and the projection c (+) a -> c."""
    s = _direct_sum(c, a)
    field = c.field
    inc, proj = {}, {}
    for k in c.degrees():
        eye = {(0, 0): Matrix.identity(field, c.dim(k))}
        inc[k] = Matrix.block(field, [c.dim(k), a.dim(k)], [c.dim(k)], eye)
        proj[k] = Matrix.block(field, [c.dim(k)], [c.dim(k), a.dim(k)], eye)
    return GradedMap(c, s, 0, inc), GradedMap(s, c, 0, proj)


def _closed_map(field, rnd, kind):
    """A closed degree-zero map; kinds "iso" and "plus_acyclic" are always
    quasi-isomorphisms, and their source and target windows may differ."""
    if kind == "iso":
        c = random_complex(field, rnd, *_window(rnd), max_dim=3)
        d, conj = _conjugate(c, rnd)
        return GradedMap(c, d, 0, conj)
    if kind == "plus_acyclic":
        c = random_complex(field, rnd, *_window(rnd), max_dim=3)
        a = random_complex(field, rnd, *_window(rnd), max_dim=3, acyclic=True)
        inc, proj = _summand_maps(c, a)
        s2, conj = _conjugate(inc.target, rnd)
        if rnd.random() < 0.5:
            return GradedMap(c, s2, 0, {k: conj[k] @ inc.comp(k)
                                        for k in c.degrees()})
        return GradedMap(s2, c, 0, {k: proj.comp(k) @ conj[k].inverse()
                                    for k in s2.degrees()})
    if kind == "random":
        c = random_complex(field, rnd, *_window(rnd), max_dim=3)
        d = random_complex(field, rnd, *_window(rnd), max_dim=3)
        return random_chain_map(rnd, c, d)
    c = random_complex(field, rnd, *_window(rnd), max_dim=3)
    return rnd.choice([GradedMap.zero(c, c), GradedMap.zero(zero_complex(field), c),
                       GradedMap.zero(c, zero_complex(field)),
                       GradedMap.zero(zero_complex(field), zero_complex(field))])


@FIELDS
@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["iso", "plus_acyclic", "random", "zero"]))
def test_is_quasi_iso_matches_reference(field, seed, kind):
    f = _closed_map(field, random.Random(seed), kind)
    assert f.is_closed()
    expected = ref.is_quasi_iso(f)
    assert is_quasi_iso(f) == expected
    assert is_quasi_iso(f, f.source.cohomology(),
                        f.target.cohomology()) == expected
    if kind in ("iso", "plus_acyclic"):
        assert expected


def _count_induced_maps(monkeypatch):
    degrees = []
    induced = complexes.induced_cohomology_map

    def counted(f, k):
        degrees.append(k)
        return induced(f, k)
    monkeypatch.setattr(complexes, "induced_cohomology_map", counted)
    return degrees


@FIELDS
def test_induced_maps_only_where_cohomology_is_nonzero(field, monkeypatch):
    degrees = _count_induced_maps(monkeypatch)
    rnd = random.Random(11)
    for _ in range(6):
        c = random_complex(field, rnd, -2, 2, max_dim=3, acyclic=False)
        a = random_complex(field, rnd, -3, 3, max_dim=2, acyclic=True)
        inc, _ = _summand_maps(c, a)
        h = c.cohomology()
        del degrees[:]
        assert is_quasi_iso(inc)
        assert degrees == list(h)
        del degrees[:]
        assert is_quasi_iso(inc, h, inc.target.cohomology())
        assert degrees == list(h)


@FIELDS
def test_no_induced_map_when_dimensions_differ(field, monkeypatch):
    degrees = _count_induced_maps(monkeypatch)
    rnd = random.Random(13)
    c = random_complex(field, rnd, -1, 1, max_dim=3, acyclic=False)
    assert not is_quasi_iso(GradedMap.zero(c, zero_complex(field)))
    assert not is_quasi_iso(GradedMap.zero(zero_complex(field), c))
    c2 = _direct_sum(c, c)
    inc, proj = _summand_maps(c, c)
    assert not is_quasi_iso(inc) and not is_quasi_iso(proj)
    assert degrees == []
    # equal tables: the zero map is built on, and fails in, the first degree
    assert not is_quasi_iso(GradedMap.zero(c2, c2))
    assert degrees == [min(c2.cohomology())]


# -- functor composition ----------------------------------------------------


def _edges(cube):
    return [e for _, e in sorted(cube.edges.items(),
                                 key=lambda kv: (sorted(kv[0][0]), kv[0][1]))]


def _near_identity(cat, rnd):
    """The identity functor of cat with one diagonal entry doubled."""
    ident = identity_functor(cat)
    sites = [(p, k) for p, maps in sorted(ident.hom_maps.items())
             for k, m in sorted(maps.items()) if m.nrows]
    p, k = rnd.choice(sites)
    maps = {q: dict(ms) for q, ms in ident.hom_maps.items()}
    m = maps[p][k]
    m = Matrix(cat.field, m.nrows, m.ncols, [dict(row) for row in m.rows])
    m.set(0, 0, cat.field(2))
    maps[p][k] = m
    return DgFunctor(cat, cat, ident.obj_map, maps)


@FIELDS
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), side=st.sampled_from(["left", "right"]),
       kind=st.sampled_from(["identity", "near", "equal_copy"]))
def test_compose_with_identity_factor_matches_products(field, seed, side, kind):
    rnd = random.Random(seed)
    e = rnd.choice(_edges(random_dg_cube(field, rnd, 2)))
    cat = e.target if side == "left" else e.source
    if kind == "equal_copy":      # equal tables, a distinct category object
        cat = category_in(field, category_out(cat))
    one = _near_identity(cat, rnd) if kind == "near" else identity_functor(cat)
    assert one.is_identity == (kind != "near")
    g, f = (one, e) if side == "left" else (e, one)
    out = compose_functors(g, f)
    assert out is not e and out.source is f.source and out.target is g.target
    assert functors_equal(out, ref.compose_functors(g, f))


@FIELDS
def test_identity_factor_composes_without_products(field, monkeypatch):
    products = []
    matmul = Matrix.__matmul__

    def counted(x, y):
        products.append(1)
        return matmul(x, y)
    edges = _edges(random_dg_cube(field, random.Random(17), 2))
    monkeypatch.setattr(Matrix, "__matmul__", counted)
    for e in edges:
        for g, f in ((identity_functor(e.target), e),
                     (e, identity_functor(e.source))):
            out = compose_functors(g, f)
            assert out is not e and functors_equal(out, e)
    assert products == []
    near = _near_identity(edges[0].source, random.Random(1))
    compose_functors(edges[0], near)
    assert products
