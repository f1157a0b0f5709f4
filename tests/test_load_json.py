"""`io.load_json` decodes exactly as `json.loads`, and gives repeated
categories and functors one dict.

It walks the top-level object and the members of "categories" and
"functors" itself and reuses a member object whose text repeats an earlier
one, so every other text, and every error, must come out as json's own.
"""

import json
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import collapse_square
from dgglue import cli
from dgglue import io as dio
from dgglue.fields import QQ
from dgglue.samples import _extend_by_identity

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "documents"


def _outcome(load, text):
    """What `load(text)` returns, or the type and message it raises."""
    try:
        return "value", load(text)
    except Exception as exc:    # compared with json's, not handled
        return type(exc), str(exc)


def _agrees(text):
    got = _outcome(dio.load_json, text)
    assert got == _outcome(json.loads, text)
    return got


def _ladder_doc():
    """The bundled refinement square extended by the identity to a 3-cube."""
    square = dio.parse_document(json.loads(
        (DOCS / "refinement_square.json").read_text())).dg_cubes["square"]
    return cli._dg_cube_document(_extend_by_identity(square),
                                 params={"cube": "cube3"})


def _collapse_doc():
    return cli._dg_cube_document(_extend_by_identity(collapse_square(QQ)),
                                 params={"cube": "cube3"})


@pytest.mark.parametrize("path", sorted(DOCS.glob("*.json")),
                         ids=lambda p: p.name)
def test_bundled_documents(path):
    assert _agrees(path.read_text())[0] == "value"


@pytest.mark.parametrize("build", [_ladder_doc, _collapse_doc],
                         ids=["ladder", "collapse"])
@pytest.mark.parametrize("dump", [dio.dump_json, json.dumps],
                         ids=["dump_json", "json.dumps"])
def test_cube_documents(build, dump):
    assert _agrees(dump(build()))[0] == "value"


@pytest.mark.parametrize("build", [_ladder_doc, _collapse_doc],
                         ids=["ladder", "collapse"])
def test_equal_member_texts_decode_to_one_dict(build):
    text = dio.dump_json(build())
    doc, ref = dio.load_json(text), json.loads(text)
    for section in ("categories", "functors"):
        groups = defaultdict(list)
        for name, value in ref[section].items():
            groups[dio.dump_json(value)].append(doc[section][name])
        assert any(len(g) > 1 for g in groups.values())
        for group in groups.values():
            assert all(value is group[0] for value in group)
        # members of different texts never share a dict
        assert len({id(g[0]) for g in groups.values()}) == len(groups)


def test_changed_later_copy_keeps_its_face_defect(tmp_path):
    """The cube names "edge_0,1_2" and "edge_0,2_1", of equal JSON; a change
    to the later copy must survive decoding, parsing and the face check."""
    doc = _ladder_doc()
    edges = doc["dg_cubes"]["cube3"]["edges"].values()
    assert {"edge_0,1_2", "edge_0,2_1"} <= set(edges)
    funs = doc["functors"]
    assert funs["edge_0,1_2"] == funs["edge_0,2_1"]
    p = tmp_path / "cube3.json"
    p.write_text(dio.dump_json(doc))
    assert cli.main(["check-acyclic", "--in", str(p), "--out",
                     str(tmp_path / "clean.json")]) == 0
    maps = funs["edge_0,2_1"]["hom_maps"]
    rows = maps[sorted(maps)[0]]["0"]
    rows[0][0] = "2" if rows[0][0] != "2" else "3"
    p.write_text(dio.dump_json(doc))
    out = tmp_path / "report.json"
    assert cli.main(["check-acyclic", "--in", str(p), "--out", str(out)]) == 1
    assert "does not strictly commute" in json.loads(out.read_text())["error"]


# -- generated texts ------------------------------------------------------------

# objects some of whose texts are prefixes of others' up to their last
# character ('{"a": 1' of '{"a": 12}'), or equal under other layouts
OBJECTS = [{}, {"a": 1}, {"a": 12}, {"a": 1, "b": [1, 2]}, {"a": [1]},
           {"a": [12]}, {"b": {"c": None}}, {"b": {"c": None, "d": "e"}},
           {"a": 'x"}y'}, {"a": "é\\"}]
LAYOUTS = [{}, {"indent": 1}, {"separators": (",", ":")},
           {"indent": 2, "sort_keys": True}]
# numbers are not self-delimiting: "1" is a prefix of "12"
SCALARS = ["1", "12", "1.5", "-0", "1e5", "true", "false", "null", '"s"',
           '"{}"', "[1, 2]", "[]", '[{"a": 1}]']
KEYS = ["a", "b", "categories", "functors", "field", 'c"d\\e']

space = st.text(alphabet=" \t\n\r", max_size=3)
objects = st.builds(lambda v, layout: json.dumps(v, **layout),
                    st.sampled_from(OBJECTS), st.sampled_from(LAYOUTS))
values = st.one_of(objects, objects, st.sampled_from(SCALARS))


@st.composite
def object_texts(draw, value, keys=KEYS, min_size=0):
    """An object's text: duplicate keys and odd whitespace are likely."""
    members = draw(st.lists(
        st.tuples(space, st.sampled_from(keys), space, space, value, space),
        min_size=min_size, max_size=6))
    body = ",".join(f'{a}{json.dumps(k)}{b}:{c}{v}{d}'
                    for a, k, b, c, v, d in members)
    return "{" + (body or draw(space)) + "}"


members = st.one_of(object_texts(values), values)
# mostly objects whose "categories" and "functors" are walked member-wise
documents = st.builds(lambda a, t, b: a + t + b, space, st.one_of(
    object_texts(st.one_of(object_texts(values, min_size=2), values),
                 ["categories", "functors", "field", 'c"d\\e'], 1),
    object_texts(members), members), space)


@given(documents)
def test_generated_documents(text):
    assert _agrees(text)[0] == "value"


@given(object_texts(values, min_size=2), object_texts(values, min_size=2),
       space)
def test_generated_sections(categories, functors, gap):
    text = f'{{"categories":{gap}{categories}, "functors": {functors}{gap}}}'
    assert _agrees(text)[0] == "value"


@given(object_texts(st.sampled_from(SCALARS + [
    json.dumps(v) for v in OBJECTS])))
def test_generated_sections_share_repeats(section):
    text = f'{{"categories": {section}, "functors": {section}}}'
    doc = _agrees(text)[1]
    for name in ("categories", "functors"):
        for value in doc[name].values():
            if isinstance(value, dict):
                assert all(other is value for other in doc[name].values()
                           if other == value)


BAD = ['"\\q"', '"\\u12x"', '"a\x01"', '{"a": 1,}', "[1,]", "tru", "01",
       "-", '{"a" 1}', "{1: 2}", '{"a": 1 "b": 2}']


@given(documents, st.data())
def test_truncated_documents_decode_as_json_does(text, data):
    cut = data.draw(st.integers(0, max(len(text.rstrip()) - 1, 0)))
    _agrees(text[:cut])


@given(documents, st.sampled_from([" x", "{}", ",", "]", "}", " 1", "\x00"]))
def test_trailing_data_raises_as_json_does(text, junk):
    assert _agrees(text + junk)[0] != "value"


@given(object_texts(st.one_of(members, st.sampled_from(BAD))))
def test_bad_members_raise_as_json_does(section):
    _agrees(section)
    _agrees(f'{{"categories": {section}, "functors": {{"f": {section}}}}}')
