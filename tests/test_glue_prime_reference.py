"""The glue-prime calculus on convolutions against its block-by-block
reference (`reference_glue_prime.py`)."""

import pytest
from hypothesis import given, settings, strategies as st

import reference_glue_prime as ref
from conftest import F7
from dgglue.dgcat import HomElt
from dgglue.fields import QQ
from dgglue.samples import random_directed_env, random_glue_prime_object, rng
from dgglue.twisted import (GluePrimeObject, TwError, TwMorphism,
                            glue_prime_hom, gp_add, gp_compose, gp_d,
                            tw_morphism_to_vec, vec_to_gp_morphism)


def canon(f):
    """The nonzero cells of a glue-prime morphism, by (i, j, q, p)."""
    field = f.src.cat.field
    return f.degree, {(i, j, q, p): e.vec
                      for (i, j), fij in f.entries.items()
                      for (q, p), e in fij.entries.items()
                      if not e.is_zero(field)}


def old_coords(f):
    """f in the coordinates of the reference hom complex: its blocks by
    (i, j), each as in tw_hom(M_i, N_j)."""
    pairs = [(i, j) for i in range(f.src.n) for j in range(f.tgt.n) if i <= j]
    return tuple(v for i, j in pairs for v in tw_morphism_to_vec(f.entry(i, j)))


def random_morphism(r, x, y, h, degree):
    field = x.cat.field
    vec = [field(r.choice([-1, 0, 0, 1, 2])) for _ in range(h.dim(degree))]
    f = vec_to_gp_morphism(x, y, degree, vec)
    assert old_coords(f) == tuple(vec)
    return f


@settings(max_examples=60)
@given(st.sampled_from(["Q", "F7"]), st.integers(1, 3),
       st.integers(0, 10 ** 6))
def test_glue_prime_calculus_matches_reference(field_name, n, seed):
    field = QQ if field_name == "Q" else F7
    cat, block_of = random_directed_env(field, rng(seed), n)
    r = rng(seed + 1)
    x = random_glue_prime_object(cat, block_of, n, r)
    y = random_glue_prime_object(cat, block_of, n, r)
    hxy, hyy = glue_prime_hom(x, y), glue_prime_hom(y, y)
    assert hxy == ref.glue_prime_hom(x, y)
    assert hyy == ref.glue_prime_hom(y, y)
    for m in hxy.degrees():
        f = random_morphism(r, x, y, hxy, m)
        f2 = random_morphism(r, x, y, hxy, m)
        assert canon(gp_d(f)) == canon(ref.gp_d(f))
        assert canon(gp_add(f, f2)) == canon(ref.gp_add(f, f2))
        for k in hyy.degrees():
            g = random_morphism(r, y, y, hyy, k)
            assert canon(gp_compose(g, f)) == canon(ref.gp_compose(g, f))
    if x.mu:
        # one cell of one mu entry scaled by 2
        (i, j), f = sorted(x.mu.items())[r.randrange(len(x.mu))]
        (q, p), e = sorted(f.entries.items())[r.randrange(len(f.entries))]
        bad = dict(f.entries)
        bad[(q, p)] = HomElt(e.src, e.tgt, e.degree,
                             tuple(field.mul(field(2), v) for v in e.vec))
        mu = dict(x.mu)
        mu[(i, j)] = TwMorphism(f.src, f.tgt, f.degree, bad)
        z = GluePrimeObject(cat, block_of, n, x.comps, mu, validate=False)
        assert (z.mu_defect() is None) == (ref.mu_defect(z) is None)
    assert x.mu_defect() is None and ref.mu_defect(x) is None


def test_term_without_block_is_tw_error():
    cat, block_of = random_directed_env(QQ, rng(0), 2)
    x = random_glue_prime_object(cat, block_of, 2, rng(1))
    missing = next(iter(x.comps[0].terms))[0]
    partial = {k: v for k, v in block_of.items() if k != missing}
    with pytest.raises(TwError, match="outside block 0"):
        GluePrimeObject(cat, partial, 2, x.comps, x.mu)
