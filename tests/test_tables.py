"""Differential tests: composition and action tables built by block algebra
against the per-element builders in `reference_tables.py`.

Tables are compared as exact Matrix rows.  The graded cubes (identity edges
over a directed category with homs in degrees -1..1) put odd-degree
morphisms into the Gac, so its Koszul signs matter; the sampled cubes push
along nontrivial edge functors.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_tables as ref
from dgglue import dgcat
from dgglue.dgcat import (HomElt, cats_equal, directed_assemble,
                          h0_category, identity_functor, restricted_diagonal)
from dgglue.fields import QQ, PrimeField
from dgglue.glue import gac, hom_iso_check, pi_comparison_map, pi_object
from dgglue.hypercube import DgCube, subsets
from dgglue.samples import (random_commutative_algebra_category,
                            random_dg_cube, random_directed_env,
                            random_scalar, random_twisted_complex)
from dgglue.twisted import tw_category

FIELDS = pytest.mark.parametrize("field", [PrimeField(7), QQ],
                                 ids=["F7", "Q"])
SEEDS = st.integers(0, 2 ** 32 - 1)


def graded_cube(field, rnd, n):
    """An n-cube of identity functors on a random directed category."""
    cat = random_directed_env(field, rnd, rnd.choice([2, 3]))[0]
    ident = identity_functor(cat)
    vertices = {I: cat for I in subsets(range(n))}
    edges = {(I, l): ident for I in vertices for l in range(n) if l not in I}
    return DgCube(field, n, vertices, edges)


def make_cube(kind, field, rnd, n):
    return graded_cube(field, rnd, n) if kind == "graded" \
        else random_dg_cube(field, rnd, n)


def make_category(kind, field, rnd):
    if kind == "algebra":
        return random_commutative_algebra_category(field, rnd)
    if kind == "directed":
        return random_directed_env(field, rnd, rnd.choice([2, 3]))[0]
    return gac(make_cube(rnd.choice(["sampled", "graded"]), field, rnd,
                         2)).category


def random_elt(cat, rnd, a, b):
    """A random homogeneous element of hom(a, b) (of some degree)."""
    h = cat.hom(a, b)
    k = rnd.choice(h.degrees() or [0])
    return HomElt(a, b, k, tuple(random_scalar(cat.field, rnd)
                                 for _ in range(h.dim(k))))


def action_tables(bimod):
    """Every left and right action table of a bimodule, by key."""
    A, B = bimod.cat_a, bimod.cat_b
    left = {(b, a1, a2, i, j): bimod.left_act(b, a1, a2, i, j)
            for b in B.objects for a1 in A.objects for a2 in A.objects
            for i in A.hom(a1, a2).degrees()
            for j in bimod.values(b, a1).degrees()}
    right = {(b2, b1, a, i, j): bimod.right_act(b2, b1, a, i, j)
             for b2 in B.objects for b1 in B.objects for a in A.objects
             for i in bimod.values(b1, a).degrees()
             for j in B.hom(b2, b1).degrees()}
    return left, right


@FIELDS
@settings(max_examples=10)
@given(kind=st.sampled_from(["sampled", "graded"]), n=st.integers(1, 3),
       seed=SEEDS)
def test_gac_and_pi_match_reference(field, kind, n, seed):
    rnd = random.Random(seed)
    cube = make_cube(kind, field, rnd, n)
    g, g_ref = gac(cube), ref.gac(cube)
    assert cats_equal(g.category, g_ref.category)
    objs = cube.initial().objects
    pairs = [(a, b) for a in objs for b in objs]
    for a, b in rnd.sample(pairs, min(len(pairs), 3)):
        cm, cm_ref = pi_comparison_map(g, a, b), ref.pi_comparison_map(g, a, b)
        assert cm.target == cm_ref.target
        assert cm.comps == cm_ref.comps
        assert hom_iso_check(cube, a, b, g) == ref.hom_iso_check(cube, a, b, g)


@FIELDS
@settings(max_examples=6)
@given(over=st.sampled_from(["gac", "directed"]), seed=SEEDS)
def test_tw_category_matches_reference(field, over, seed):
    rnd = random.Random(seed)
    if over == "gac":
        cube = make_cube(rnd.choice(["sampled", "graded"]), field, rnd, 2)
        g = gac(cube)
        cat = g.category
        objs = {f"pi{k}": pi_object(g, a)
                for k, a in enumerate(cube.initial().objects[:2])}
    else:
        cat = random_directed_env(field, rnd, rnd.choice([2, 3]))[0]
        objs = {}
    for k in range(3 - len(objs)):
        objs[f"t{k}"] = random_twisted_complex(cat, rnd, depth=1)
    assert cats_equal(tw_category(cat, objs), ref.tw_category(cat, objs))


@FIELDS
@settings(max_examples=10)
@given(kind=st.sampled_from(["algebra", "directed", "gac"]), seed=SEEDS)
def test_mult_and_action_match_reference(field, kind, seed):
    rnd = random.Random(seed)
    cat = make_category(kind, field, rnd)
    objs = cat.objects
    for _ in range(4):
        a, b, c = (rnd.choice(objs) for _ in range(3))
        g, f = random_elt(cat, rnd, b, c), random_elt(cat, rnd, a, b)
        assert cat.left_mult(g, a).comps == ref.left_mult(cat, g, a).comps
        assert cat.right_mult(f, c).comps == ref.right_mult(cat, f, c).comps
    ident = identity_functor(cat)
    phi = restricted_diagonal(cat, ident, ident)
    for _ in range(4):
        a, b, c = (rnd.choice(objs) for _ in range(3))
        u, v = random_elt(cat, rnd, a, b), random_elt(cat, rnd, b, c)
        for k in cat.hom(c, a).degrees():
            assert phi.act_left(u, c, k) == ref.act_left(phi, u, c, k)
        for k in cat.hom(c, a).degrees():
            assert phi.act_right(v, a, k) == ref.act_right(phi, v, a, k)


@FIELDS
@settings(max_examples=6)
@given(kind=st.sampled_from(["cube", "directed"]), seed=SEEDS)
def test_restricted_diagonal_and_assembly_match_reference(field, kind, seed):
    rnd = random.Random(seed)
    if kind == "cube":
        # pushes into one vertex J, from the initial vertex and from a face
        cube = random_dg_cube(field, rnd, 2)
        J = rnd.choice([frozenset({0}), frozenset({1}), cube.top])
        F = cube.push_functor(frozenset(), J)
        G = cube.push_functor(rnd.choice(sorted(subsets(J), key=sorted)), J)
        cat = cube.vertices[J]
    else:
        cat = random_directed_env(field, rnd, rnd.choice([2, 3]))[0]
        F = G = identity_functor(cat)
    phi, phi_ref = restricted_diagonal(cat, F, G), \
        ref.restricted_diagonal(cat, F, G)
    assert action_tables(phi) == action_tables(phi_ref)
    components = [G.source, F.source]
    assert cats_equal(directed_assemble(components, {(1, 0): phi}),
                      ref.directed_assemble(components, {(1, 0): phi_ref}))
    # the multiplication maps of a three-block directed category
    calls = []
    with mock.patch.object(dgcat, "directed_assemble",
                           side_effect=lambda *args: calls.append(args) or
                           directed_assemble(*args)):
        env = random_directed_env(field, rnd, 3)[0]
    assert cats_equal(env, ref.directed_assemble(*calls[0]))


@FIELDS
@settings(max_examples=8)
@given(kind=st.sampled_from(["algebra", "directed", "gac"]), seed=SEEDS)
def test_h0_category_matches_reference(field, kind, seed):
    cat = make_category(kind, field, random.Random(seed))
    assert h0_category(cat) == ref.h0_category(cat)
