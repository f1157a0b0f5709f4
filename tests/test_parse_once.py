"""Equal JSON in one document is parsed once, and every name keeps its own
object: reports that write a cube back out name its vertices and edges by
object identity."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import collapse_square
from dgglue import cli
from dgglue import io as dio
from dgglue.cli import _dg_cube_document
from dgglue.fields import QQ, PrimeField
from dgglue.io import parse_document
from dgglue.samples import _extend_by_identity

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "documents"
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402


def _collapse_doc():
    """The collapse square twice over.  Its document repeats the JSON of
    "cat_1" as "cat_o", of "cat_0,1" as "cat_0" and of "edge_1_0" as
    "edge_o_0"; the cubes name only the first of each pair.  Each category
    name gets its own dict, as `json.loads` reads them, so that a test may
    change one of a repeated pair; the two cubes are one dict."""
    doc = json.loads(json.dumps(_dg_cube_document(collapse_square(QQ))))
    doc["dg_cubes"]["square2"] = doc["dg_cubes"]["square"]
    return doc


def _rewired_doc():
    """The collapse square with its vertices "" and "0" renamed to the
    repeats "cat_o" and "cat_0", so that the cubes name two categories of
    equal JSON (and edge "|0" the functor "edge_o_0" between them)."""
    doc = _collapse_doc()
    sq = doc["dg_cubes"]["square"]
    sq["vertices"].update({"": "cat_o", "0": "cat_0"})
    sq["edges"]["|0"] = "edge_o_0"
    funs = doc["functors"]
    funs["edge_o_0"].update(source="cat_o", target="cat_0")
    funs["edge_o_1"]["source"] = "cat_o"
    funs["edge_0_1"]["source"] = "cat_0"
    return doc


def _ladder_doc():
    """The bundled refinement square extended by the identity to a 3-cube:
    the cube names "edge_0,1_2" and "edge_0,2_1", of equal JSON."""
    raw = json.loads((DOCS / "refinement_square.json").read_text())
    cube = parse_document(raw).dg_cubes["square"]
    return _dg_cube_document(_extend_by_identity(cube))


def test_documents_repeat_json():
    doc = _collapse_doc()
    cats, funs = doc["categories"], doc["functors"]
    assert cats["cat_o"] == cats["cat_1"] and cats["cat_0"] == cats["cat_0,1"]
    assert funs["edge_o_0"] == funs["edge_1_0"]
    cube = _rewired_doc()["dg_cubes"]["square"]["vertices"]
    assert {cube[""], cube["1"]} == {"cat_o", "cat_1"}
    ladder = _ladder_doc()
    edges = ladder["dg_cubes"]["cube3"]["edges"].values()
    assert {"edge_0,1_2", "edge_0,2_1"} <= set(edges)
    assert ladder["functors"]["edge_0,1_2"] == ladder["functors"]["edge_0,2_1"]


def test_repeated_entries_share_parsed_tables():
    doc = parse_document(_collapse_doc())
    for one, two in (("cat_o", "cat_1"), ("cat_0", "cat_0,1")):
        c1, c2 = doc.categories[one], doc.categories[two]
        assert c1 is not c2
        assert c1.objects == c2.objects and c1.ids == c2.ids
        assert c1.hom("*", "*") is c2.hom("*", "*")
        assert c1.comp_matrix("*", "*", "*", 0, 0) is \
            c2.comp_matrix("*", "*", "*", 0, 0)
    f1, f2 = doc.functors["edge_o_0"], doc.functors["edge_1_0"]
    assert f1 is not f2
    assert f1.source is f2.source and f1.target is f2.target
    assert f1.hom_matrix("*", "*", 0) is f2.hom_matrix("*", "*", 0)


def test_changed_entry_stops_sharing():
    raw = _collapse_doc()
    raw["categories"]["cat_0"]["comp"]["*|*|*"]["0,0"][1][3] = "2"
    raw["functors"]["edge_o_0"]["hom_maps"]["*->*"]["0"][1][0] = "5"
    doc = parse_document(raw)
    c1, c2 = doc.categories["cat_0"], doc.categories["cat_0,1"]
    assert c1.hom("*", "*") is not c2.hom("*", "*")
    m1 = c1.comp_matrix("*", "*", "*", 0, 0)
    m2 = c2.comp_matrix("*", "*", "*", 0, 0)
    assert m1 != m2 and m1.get(1, 3) == 2 and m2.get(1, 3) == 0
    f1, f2 = doc.functors["edge_o_0"], doc.functors["edge_1_0"]
    assert f1.hom_matrix("*", "*", 0).get(1, 0) == 5
    assert f2.hom_matrix("*", "*", 0).get(1, 0) == 0
    # the unchanged repeat still shares
    assert doc.categories["cat_o"].hom("*", "*") is \
        doc.categories["cat_1"].hom("*", "*")


def test_roundtrip_writes_each_vertex_table_once(monkeypatch):
    """The benchmark's ladder-F7-m4-n3 document names 8 vertex categories
    over 4 distinct tables; the document sent to a pool writes each table
    once, and its repeated names share that dict."""
    cube = _extend_by_identity(inputs.ladder_square(PrimeField(7), 4))
    text = dio.dump_json(inputs._dg_cube_doc(cube))
    doc = parse_document(dio.load_json(text))
    calls = []
    category_out = dio.category_out
    monkeypatch.setattr(dio, "category_out",
                        lambda cat: calls.append(cat) or category_out(cat))
    raw = cli._document_roundtrip(doc, "cube3")
    cats = raw["categories"]
    assert len(cats) == 8 and len(calls) == 4
    assert len({id(c) for c in cats.values()}) == 4
    assert dio.dump_json(raw["categories"]) == \
        dio.dump_json(json.loads(text)["categories"])


def _run(args, doc, tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    return subprocess.run([sys.executable, "-m", "dgglue.cli", *args,
                           "--in", str(p)], capture_output=True, cwd=ROOT)


@pytest.mark.parametrize("which", ["both", "later"])
@pytest.mark.parametrize("section", ["categories", "functors"])
def test_malformed_repeat_exits_1(tmp_path, which, section):
    raw = _collapse_doc()
    first, later, path = {
        "categories": ("cat_0", "cat_0,1", ("comp", "*|*|*", "0,0")),
        "functors": ("edge_o_0", "edge_1_0", ("hom_maps", "*->*", "0")),
    }[section]
    assert list(raw[section]).index(first) < list(raw[section]).index(later)
    for key in (first, later) if which == "both" else (later,):
        rows = raw[section][key]
        for part in path:
            rows = rows[part]
        rows[0][0] = "1/0"
    res = _run(["check-qff", "--param", "cube=square"], raw, tmp_path)
    assert res.returncode == 1
    assert "error" in json.loads(res.stdout)
    assert b"Traceback" not in res.stderr


# recorded before parsing shared tables between names
@pytest.mark.parametrize("build, args, code, sha256", [
    (_collapse_doc, ["stack", "--param", "first=square",
                     "--param", "second=square2"], 0,
     "5700a01088219ca3bcec642c1191fd9b2d288b3d219dd5c47341c31d87d789c7"),
    (_collapse_doc, ["extend", "--param", "first=square",
                     "--param", "second=square2"], 0,
     "868e8a71c03288b7fb4c2479d6abb93e10622377008f35528446c90d6b6f1ebb"),
    (_rewired_doc, ["stack", "--param", "first=square",
                    "--param", "second=square2"], 0,
     "5e1831f4de5460d3c87b8c7aff432b1f8f8fad3cf891907e5451d5be2c13e23a"),
    # the faces are equal, and an edge's endpoint is another vertex object
    # of equal tables: the cube is accepted (it was rejected, exit 1, while
    # endpoints were compared by identity)
    (_rewired_doc, ["extend", "--param", "first=square",
                    "--param", "second=square2"], 0,
     "6b511ef6bed3c6eab11ecf4c2ef8a96b7756181d5c0c9eaa7021d8658bb38891"),
    (_rewired_doc, ["check-qff", "--param", "cube=square", "--parallel", "2"],
     0, "ada2313b200202772ff4f0d115d11a8f73afb647deb89348d548c8bde00aaf87"),
    (_ladder_doc, ["check-qff", "--param", "cube=cube3", "--parallel", "2"],
     0, "b9f15d915f0c4a657e3e9c4cfc30aae99fa5ddcf7303b33ffde9f446fcb661f3"),
], ids=["collapse-stack", "collapse-extend", "rewired-stack",
        "rewired-extend", "rewired-qff-par2", "ladder-qff-par2"])
def test_report_bytes_pinned_with_repeats(tmp_path, build, args, code, sha256):
    res = _run(args, build(), tmp_path)
    assert res.returncode == code
    assert hashlib.sha256(res.stdout).hexdigest() == sha256
