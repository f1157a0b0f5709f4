"""The Gac on the pushes of the initial objects against the whole Gac.

`gac(cube, sources)` keeps only the labels `i:V_{i} a` for `a` in
`sources`.  On random valid cubes over Q and F_7 (n = 1..4, with cubes
extended by an identity face), every hom complex and composition table
among those labels equals the whole Gac's and the per-element reference's,
and every pair decision made on it equals the one made on the whole Gac.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_tables as ref
from dgglue import cli, glue
from dgglue.fields import QQ, PrimeField
from dgglue.glue import _label, decide_cube, gac, hom_iso_check, pair_result
from dgglue.samples import _extend_by_identity, random_dg_cube

FIELDS = pytest.mark.parametrize("field", [PrimeField(7), QQ],
                                 ids=["F7", "Q"])
SEEDS = st.integers(0, 2 ** 32 - 1)


def make_cube(field, seed, n, extend):
    """A random valid n-cube; `extend` adds its last direction as the
    identity on the target face of a random (n-1)-cube."""
    rnd = random.Random(seed)
    if extend and n > 1:
        return _extend_by_identity(random_dg_cube(field, rnd, n - 1))
    return random_dg_cube(field, rnd, n)


def push_labels(cube, sources):
    return {_label(i, cube.push_object(frozenset(), a, {i}))
            for a in sources for i in range(cube.n)}


def assert_tables_agree(cat, whole, reference):
    """Every hom and composition table of `cat` equals those of the two
    categories, whose objects include `cat`'s."""
    objs = cat.objects
    for a in objs:
        assert tuple(cat.ids[a]) == tuple(whole.ids[a])
        for b in objs:
            assert cat.hom(a, b) == whole.hom(a, b) == reference.hom(a, b)
    for a in objs:
        for b in objs:
            for c in objs:
                for i in cat.hom(b, c).degrees():
                    for j in cat.hom(a, b).degrees():
                        table = cat.comp_matrix(a, b, c, i, j)
                        assert table == whole.comp_matrix(a, b, c, i, j)
                        assert table == reference.comp_matrix(a, b, c, i, j)


@FIELDS
@settings(max_examples=20)
@given(n=st.integers(1, 4), extend=st.booleans(), seed=SEEDS)
def test_restricted_gac_matches_whole(field, n, extend, seed):
    cube = make_cube(field, seed, n, extend)
    init = cube.initial().objects
    whole = gac(cube)
    g = gac(cube, init)
    labels = push_labels(cube, init)
    assert list(g.category.objects) == [x for x in whole.category.objects
                                        if x in labels]
    assert set(g.category.objects) == labels
    assert_tables_agree(g.category, whole.category, ref.gac(cube).category)
    for a in init:
        for b in init:
            assert pair_result("qff", cube, a, b, g) == \
                pair_result("qff", cube, a, b, whole)
            assert hom_iso_check(cube, a, b, g) == \
                hom_iso_check(cube, a, b, whole)
    # one pair alone builds the Gac on the pushes of its two objects
    a, b = init[0], init[-1]
    assert set(gac(cube, (a, b)).category.objects) == push_labels(cube,
                                                                  (a, b))
    assert pair_result("qff", cube, a, b) == \
        pair_result("qff", cube, a, b, whole)


def _pairs_out(results):
    return {f"{a}|{b}": cli._pair_out("qff", res)
            for (a, b), res in results.items()}


@FIELDS
@settings(max_examples=4)
@given(n=st.integers(1, 4), extend=st.booleans(), seed=SEEDS)
def test_decide_cube_matches_serial_and_parallel_cli(tmp_path_factory, field,
                                                    n, extend, seed):
    cube = make_cube(field, seed, n, extend)
    ok, results = decide_cube("qff", cube)
    whole = gac(cube)
    assert ok == glue.cube_verdict("qff", [
        pair_result("qff", cube, a, b, whole) for a, b in results])
    tmp = tmp_path_factory.mktemp("doc")
    doc = cli._dg_cube_document(cube)
    doc["params"] = {"cube": next(iter(doc["dg_cubes"]))}
    (tmp / "cube.json").write_text(json.dumps(doc))
    for parallel in ("1", "2"):
        assert cli.main(["check-qff", "--in", str(tmp / "cube.json"),
                         "--parallel", parallel,
                         "--out", str(tmp / "report.json")]) == 0
        rep = json.loads((tmp / "report.json").read_text())
        assert rep["verdict"] is ok
        assert rep["pairs"] == _pairs_out(results)


def test_decide_cube_builds_each_pi_object_once(monkeypatch):
    cube = make_cube(PrimeField(7), 1, 3, extend=False)
    init = cube.initial().objects
    assert len(init) > 1
    built = []
    twisted = glue.TwistedComplex

    def counting(cat, terms, delta, **kwargs):
        built.append(tuple(terms))
        return twisted(cat, terms, delta, **kwargs)
    monkeypatch.setattr(glue, "TwistedComplex", counting)
    gacs = []
    monkeypatch.setattr(glue, "gac", lambda *args: gacs.append(args) or
                        gac(*args))
    ok, results = decide_cube("qff", cube)
    assert len(results) == len(init) ** 2
    assert len(gacs) == 1 and gacs[0][1] == init
    assert len(built) == len(set(built)) == len(init)
