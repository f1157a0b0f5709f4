"""Differential tests: the matrix-identity axiom checks and the cached
`fil_coords` against the element-walk and solve-per-call references in
`reference_dgcat.py`, on valid inputs and on the same inputs corrupted."""

import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_dgcat as ref
from dgglue import dgcat
from dgglue.complexes import Complex
from dgglue.dgcat import (DgCategory, DgError, DgFunctor, identity_functor,
                          validate_category, validate_functor)
from dgglue.fields import QQ, PrimeField
from dgglue.filtlab import FilteredAlgebra, proj_dgcat
from dgglue.glue import gac
from dgglue.linalg import Matrix, mul_kron
from dgglue.samples import (random_commutative_algebra_category,
                            random_dg_cube, random_directed_env,
                            random_filtered_algebra, random_matrix,
                            random_refinement_square, random_scalar)

FIELDS = pytest.mark.parametrize("field", [PrimeField(7), QQ],
                                 ids=["F7", "Q"])
KINDS = ["algebra", "directed", "gac", "proj", "square"]


def _copy(m):
    return Matrix(m.field, m.nrows, m.ncols, [dict(row) for row in m.rows])


def _bump(m, rnd):
    """Add a nonzero scalar to one random entry of a copy of m."""
    m = _copy(m)
    m.add_at(rnd.randrange(m.nrows), rnd.randrange(m.ncols),
             random_scalar(m.field, rnd, nonzero=True))
    return m


def make_category(kind, field, rnd):
    if kind == "algebra":
        return random_commutative_algebra_category(field, rnd)
    if kind == "directed":
        return random_directed_env(field, rnd, rnd.choice([2, 3]))[0]
    if kind == "gac":
        return gac(random_dg_cube(field, rnd, 2)).category
    if kind == "proj":
        return proj_dgcat(random_filtered_algebra(field, rnd))
    cube = random_refinement_square(field, rnd)
    return rnd.choice([cube.vertices[I] for I in sorted(cube.vertices,
                                                        key=sorted)])


def make_functor(kind, field, rnd):
    if kind == "identity":
        return identity_functor(make_category(
            rnd.choice(["algebra", "directed", "gac", "proj"]), field, rnd))
    cube = (random_refinement_square(field, rnd) if kind == "square"
            else random_dg_cube(field, rnd, 2))
    return cube.edges[rnd.choice(sorted(cube.edges,
                                        key=lambda e: (sorted(e[0]), e[1])))]


def corrupt_category(cat, rnd, table_edits, id_edits):
    """A copy of cat with entries of its composition tables and identities
    changed."""
    field, objs = cat.field, cat.objects
    keys = [(a, b, c, i, j) for a in objs for b in objs for c in objs
            for i in cat.hom(b, c).degrees() for j in cat.hom(a, b).degrees()
            if cat.hom(a, c).dim(i + j) and cat.hom(b, c).dim(i)
            and cat.hom(a, b).dim(j)]
    tables = {}
    for _ in range(table_edits if keys else 0):
        key = rnd.choice(keys)
        tables[key] = _bump(tables.get(key, cat.comp_matrix(*key)), rnd)
    ids = dict(cat.ids)
    for _ in range(id_edits):
        a = rnd.choice(objs)
        if ids[a]:
            vec = list(ids[a])
            k = rnd.randrange(len(vec))
            vec[k] = field.add(vec[k], random_scalar(field, rnd, nonzero=True))
            ids[a] = tuple(vec)

    def comp(*key):
        return tables[key] if key in tables else cat.comp_matrix(*key)

    hom = {(a, b): cat.hom(a, b) for a in objs for b in objs}
    return DgCategory(field, objs, hom, comp, ids)


def corrupt_functor(F, rnd, map_edits, side_edits):
    """A copy of F with entries of its hom matrices changed, and with its
    source or target category corrupted `side_edits` times."""
    src, tgt = F.source, F.target
    pairs = [(a, b) for a in src.objects for b in src.objects]
    maps = {p: {k: F.hom_matrix(*p, k) for k in src.hom(*p).degrees()}
            for p in pairs}
    sites = [(p, k) for p in pairs for k, m in maps[p].items()
             if m.nrows and m.ncols]
    for _ in range(map_edits if sites else 0):
        p, k = rnd.choice(sites)
        maps[p][k] = _bump(maps[p][k], rnd)
    if side_edits:
        if rnd.random() < 0.5:
            src = corrupt_category(src, rnd, side_edits, 0)
        else:
            tgt = corrupt_category(tgt, rnd, side_edits, 0)
    return DgFunctor(src, tgt, F.obj_map, maps)


EDITS = st.sampled_from([0, 0, 1, 2, 5, 40])


def validate_counting_walks(validate, obj, cats):
    """validate(obj), and how many element compositions it made in `cats`."""
    walks = []
    compose = DgCategory.compose

    def counted(self, g, f):
        if any(self is c for c in cats):
            walks.append((g, f))
        return compose(self, g, f)

    with mock.patch.object(DgCategory, "compose", counted):
        return validate(obj), len(walks)


@FIELDS
@settings(max_examples=30)
@given(kind=st.sampled_from(["algebra", "directed", "gac", "proj", "square"]),
       seed=st.integers(0, 2 ** 32 - 1), edits=EDITS,
       id_edits=st.sampled_from([0, 0, 1, 3]))
def test_validate_category_matches_reference(field, kind, seed, edits,
                                             id_edits):
    rnd = random.Random(seed)
    cat = corrupt_category(make_category(kind, field, rnd), rnd, edits,
                           id_edits)
    expected = ref.validate_category(cat)
    got, walks = validate_counting_walks(validate_category, cat, [cat])
    assert got == expected
    # identities that hold on a valid category leave nothing to walk
    assert walks == 0 or expected


@FIELDS
@settings(max_examples=60)
@given(kind=st.sampled_from(["identity", "square", "cube"]),
       seed=st.integers(0, 2 ** 32 - 1), edits=EDITS,
       side_edits=st.sampled_from([0, 0, 1, 4]))
def test_validate_functor_matches_reference(field, kind, seed, edits,
                                            side_edits):
    rnd = random.Random(seed)
    F = corrupt_functor(make_functor(kind, field, rnd), rnd, edits,
                        side_edits)
    expected = ref.validate_functor(F)
    got, walks = validate_counting_walks(validate_functor, F,
                                         [F.source, F.target])
    assert got == expected
    assert walks == 0 or expected


@FIELDS
def test_heavy_corruption_hits_the_report_cap(field):
    rnd = random.Random(5)
    cat = corrupt_category(make_category("gac", field, rnd), rnd, 60, 2)
    full = ref.validate_category(cat, max_report=10 ** 6)
    assert len(full) > 20
    assert validate_category(cat, max_report=10 ** 6) == full
    assert validate_category(cat) == full[:20]
    cat = gac(random_dg_cube(field, random.Random(1), 3)).category
    F = corrupt_functor(identity_functor(cat), rnd, 80, 80)
    full = ref.validate_functor(F, max_report=10 ** 6)
    assert len(full) > 20
    assert validate_functor(F, max_report=10 ** 6) == full
    assert validate_functor(F) == full[:20]


def _with(cat, hom=None, comp=None, ids=None):
    """A copy of cat with some hom complexes, its composition or its
    identities replaced."""
    objs = cat.objects
    homs = {(a, b): cat.hom(a, b) for a in objs for b in objs}
    homs.update(hom or {})
    return DgCategory(cat.field, objs, homs, comp or cat.comp_matrix,
                      ids or cat.ids)


@FIELDS
@pytest.mark.parametrize("kind", KINDS)
def test_valid_category_is_decided_by_the_identities(field, kind):
    """A valid category is decided by at most six products, whatever its
    size, and walks no element."""
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_kron(*args)

    for seed in range(3):
        cat = make_category(kind, field, random.Random(seed))
        calls.clear()
        with mock.patch.object(dgcat, "mul_kron", counted):
            got, walks = validate_counting_walks(validate_category, cat, [cat])
        assert got == [] and walks == 0
        assert len(calls) <= 6


@FIELDS
@pytest.mark.parametrize("kind", KINDS)
def test_corrupted_category_is_decided_by_the_identities(field, kind):
    """A corrupted category takes the same six products as a valid one:
    the failing columns name the tuples to walk, with no per-tuple
    identities."""
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_kron(*args)

    seen = 0
    for seed in range(4):
        rnd = random.Random(seed)
        cat = corrupt_category(make_category(kind, field, rnd), rnd, 2, 1)
        expected = ref.validate_category(cat)
        calls.clear()
        with mock.patch.object(dgcat, "mul_kron", counted):
            assert validate_category(cat) == expected
        assert len(calls) <= 6
        seen += bool(expected)
    assert seen


@FIELDS
@pytest.mark.parametrize("kind", ["identity", "square", "cube"])
def test_validate_functor_walks_no_element(field, kind):
    """Composition is read off the failing columns of each triple's
    identity; no element is composed."""
    seen = 0
    for seed in range(6):
        rnd = random.Random(seed)
        F = corrupt_functor(make_functor(kind, field, rnd), rnd, 3,
                            rnd.choice([0, 2]))
        expected = ref.validate_functor(F)
        got, walks = validate_counting_walks(validate_functor, F,
                                             [F.source, F.target])
        assert got == expected and walks == 0
        seen += any("breaks composition" in msg for msg in expected)
    assert seen


@FIELDS
@pytest.mark.parametrize("kind", ["identity", "square", "cube"])
def test_functor_with_a_wide_source_table_matches_reference(field, kind):
    """A source composition table one column too wide raises the same
    DgError as the element walk."""
    F = make_functor(kind, field, random.Random(2))
    src = F.source
    key = next((a, b, c, i, j) for a, b, c in product(src.objects, repeat=3)
               for i in src.hom(b, c).degrees()
               for j in src.hom(a, b).degrees()
               if src.hom(a, c).dim(i + j) and src.hom(b, c).dim(i)
               and src.hom(a, b).dim(j))
    m = src.comp_matrix(*key)

    def comp(*k):
        if k == key:
            return Matrix.zeros(field, m.nrows, m.ncols + 1)
        return src.comp_matrix(*k)

    wide = DgFunctor(_with(src, comp=comp), F.target, F.obj_map, F.hom_maps)
    outcome = _outcome(validate_functor, wide)
    assert outcome == _outcome(ref.validate_functor, wide)
    assert outcome[0] is DgError


@FIELDS
def test_leibniz_only_corruption_matches_reference(field):
    """Scaling one hom complex's differential by 2 keeps d^2 = 0, the units
    and associativity, and breaks only Leibniz, which the identity path
    must hand to the walk."""
    two = field.add(field.one, field.one)
    seen = 0
    for seed in range(40):
        if seen >= 3:
            break
        # three components, so that hom(0, 2) receives compositions
        cat = random_directed_env(field, random.Random(seed), 3)[0]
        for (a, b) in [(a, b) for a in cat.objects for b in cat.objects
                       if cat.hom(a, b).diffs]:
            h = cat.hom(a, b)
            scaled = Complex(field, h.dims,
                             {k: m.scaled(two) for k, m in h.diffs.items()})
            bad = _with(cat, hom={(a, b): scaled})
            expected = ref.validate_category(bad)
            assert validate_category(bad) == expected
            assert all(msg.startswith("Leibniz fails") for msg in expected)
            seen += bool(expected)
    assert seen


@FIELDS
@pytest.mark.parametrize("rows, fails", [
    ([[1, 0, 0, 0], [0, 1, 0, 0]], "right"),
    ([[1, 0, 0, 0], [0, 0, 1, 0]], "left"),
], ids=["g f = g0 f", "g f = g f0"])
def test_one_sided_unit_matches_reference(field, rows, fails):
    """On k^2 in degree 0, g f = g_0 f and g f = g f_0 are associative, and
    e = (1, 0) is a unit on one side only: neither unit identity follows
    from the others."""
    hom = Complex(field, {0: 2}, {})
    cat = DgCategory(field, ["*"], {("*", "*"): hom},
                     {("*", "*", "*"): {(0, 0): Matrix.from_rows(field, rows)}},
                     {"*": (field.one, field.zero)})
    expected = [f"{fails} unit fails on hom('*','*') deg 0"]
    assert validate_category(cat) == ref.validate_category(cat) == expected


@FIELDS
@pytest.mark.parametrize("kind", KINDS)
def test_malformed_category_matches_reference(field, kind):
    """An identity of the wrong length is reported, not raised; a
    composition table of the wrong shape raises the walk's own error."""
    cat = make_category(kind, field, random.Random(3))
    a = cat.objects[0]
    # on an object with no morphisms the reference reaches no composition
    lone = DgCategory(field, (*cat.objects, "z"),
                      {(x, y): cat.hom(x, y) for x in cat.objects
                       for y in cat.objects},
                      cat.comp_matrix, {**cat.ids, "z": (field.one,)})
    assert validate_category(lone) == ref.validate_category(lone) == \
        ["identity of 'z' has wrong length"]
    # on a live object the reference raises; the per-tuple walk reports it
    longer = _with(cat, ids={**cat.ids, a: (*cat.ids[a], field.one)})
    got = validate_category(longer)
    assert got[0] == f"identity of {a!r} has wrong length"
    assert not any(msg.startswith(("left unit", "right unit"))
                   and f"hom({a!r}," in msg for msg in got)
    key = (a, a, a, 0, 0)
    m = cat.comp_matrix(*key)

    def comp(*k):
        if k == key:
            return Matrix.zeros(field, m.nrows, m.ncols + 1)
        return cat.comp_matrix(*k)

    wide = _with(cat, comp=comp)
    outcome = _outcome(validate_category, wide)
    assert outcome == _outcome(ref.validate_category, wide)
    assert outcome[0] is DgError


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:    # compared by type and message
        return type(exc), str(exc)


def _with_dependent_columns(alg, rnd):
    """The same algebra with each proper filtration basis preceded by
    combinations of its own columns, so pivots are not the first columns."""
    field = alg.field
    filtration = [alg.filtration[0]]
    for m in alg.filtration[1:]:
        if m.ncols:
            extra = m @ random_matrix(field, rnd, m.ncols, rnd.randrange(1, 3))
            m = Matrix.hstack([extra, m])
        filtration.append(m)
    return FilteredAlgebra(field, alg.dim, alg.mul_basis, alg.unit,
                           alg.length, filtration, alg.basis_names)


def _fil_coords_of_vector(alg, s, v):
    """`fil_coords` on the one-column matrix of v, as a coordinate tuple."""
    return alg.fil_coords(s, Matrix.column(alg.field, v)).columns()[0]


@FIELDS
@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), dependent=st.booleans())
def test_fil_coords_matches_reference(field, seed, dependent):
    rnd = random.Random(seed)
    alg = random_filtered_algebra(field, rnd)
    if dependent:
        alg = _with_dependent_columns(alg, rnd)
    n = alg.dim
    for s in range(-alg.length - 2, 3):
        inside = alg.fil(s) @ random_matrix(field, rnd, alg.fil(s).ncols, 1)
        vecs = [inside.columns()[0], (field.zero,) * n,
                tuple(random_scalar(field, rnd) for _ in range(n)),
                *alg.fil(s + 1).columns(), (field.one,) * (n + 1)]
        for v in vecs:
            assert _outcome(_fil_coords_of_vector, alg, s, v) == \
                _outcome(ref.fil_coords, alg, s, v)
        # all columns at once: the coordinates of each, or the first error
        block = Matrix.hstack([Matrix.column(field, v) for v in vecs[:-1]])
        expect = [_outcome(ref.fil_coords, alg, s, v) for v in vecs[:-1]]
        got = _outcome(alg.fil_coords, s, block)
        if all(kind == "ok" for kind, _ in expect):
            assert got == ("ok", Matrix.hstack(
                [Matrix.column(field, c) for _, c in expect]))
        else:
            assert got == next(e for e in expect if e[0] != "ok")
