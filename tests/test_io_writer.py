"""Differential tests of the report and document writer in `dgglue.io`.

`dump_json` must write exactly the bytes of `json.dumps(obj, sort_keys=True,
separators=(",", ": "), indent=1)`, and `matrix_out` exactly the dense rows of
the per-entry comprehension it replaced.
"""

import json
from fractions import Fraction

from hypothesis import given, strategies as st

from dgglue import io as dio
from dgglue.fields import QQ, PrimeField
from dgglue.linalg import Matrix

F7 = PrimeField(7)


def reference_dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def reference_matrix_out(field, m):
    return [[dio.scalar_out(field, v) for v in row] for row in m.to_lists()]


# strings that JSON must escape, or that look like its own punctuation
texts = st.text(alphabet=st.one_of(
    st.sampled_from(list(',[]{}:"\\/\n\r\t\x00\x1f\x7fé☃\U0001f600')),
    st.characters()), max_size=8)
ints = st.one_of(st.integers(-10, 10), st.integers(), st.integers(-2**80, 2**80))
leaves = st.one_of(
    ints, st.booleans(), st.none(), texts,
    st.floats(allow_nan=True, allow_infinity=True))
# homogeneous lists take the writer's join paths; bools mixed with ints or
# alone must not
flat_lists = st.one_of(
    st.lists(ints, min_size=1, max_size=6),
    st.lists(texts, min_size=1, max_size=6),
    st.lists(st.one_of(ints, st.booleans()), min_size=1, max_size=6),
    st.lists(st.booleans(), min_size=1, max_size=3))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(ints, children, max_size=4))


json_trees = st.recursive(st.one_of(leaves, flat_lists), _containers,
                          max_leaves=40)


@given(json_trees)
def test_dump_json_matches_json_dumps(obj):
    assert dio.dump_json(obj) == reference_dump(obj)


def test_dump_json_edge_cases():
    deep = [0]
    for i in range(60):
        deep = [deep, 1] if i % 2 else {"d": deep}
    cases = [
        True, None, float("nan"), float("-inf"), 1.5, -0, 2**100, "", "\n",
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [True, 1], [1, True],
        [False], [1.0, 1], [None], {1: "a", 2: [1, 2]}, {"b": 1, "a": [2]},
        ['a,b', "[", "]", '"', "\\", "\x00", "é"], {',[]"': [',[]"']},
        [[1, 2], ["x", "y"], [[3]], []], deep,
    ]
    for obj in cases:
        assert dio.dump_json(obj) == reference_dump(obj), obj


@st.composite
def sparse_matrices(draw, field):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    if field is QQ:
        scalars = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    else:
        scalars = st.integers(0, 6)
    rows = []
    for _ in range(nrows):
        row = draw(st.dictionaries(st.integers(0, max(ncols - 1, 0)), scalars,
                                   max_size=ncols))
        rows.append({j: v for j, v in row.items() if v})
    return Matrix(field, nrows, ncols, rows)


@given(st.sampled_from([QQ, F7]).flatmap(
    lambda f: st.tuples(st.just(f), sparse_matrices(f))))
def test_matrix_out_matches_comprehension(case):
    field, m = case
    out = dio.matrix_out(field, m)
    assert out == reference_matrix_out(field, m)
    # same types too, so that the written bytes agree
    assert dio.dump_json(out) == reference_dump(reference_matrix_out(field, m))


def test_matrix_out_empty_shapes():
    for field in (QQ, F7):
        for shape in ((0, 3), (3, 0), (0, 0)):
            m = Matrix.zeros(field, *shape)
            assert dio.matrix_out(field, m) == reference_matrix_out(field, m)
