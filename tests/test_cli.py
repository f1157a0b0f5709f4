import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dgglue import io as dio
from dgglue.fields import QQ, PrimeField
from dgglue.glue import check_qff, gac
from dgglue.hypercube import check_acyclic_dgcube
from dgglue.linalg import Matrix

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "documents"


def run_cli(args, stdin_text=None, tmp_path=None):
    cmd = [sys.executable, "-m", "dgglue.cli"] + args
    return subprocess.run(cmd, input=stdin_text, capture_output=True,
                          text=True, cwd=ROOT)


def test_auslander_bundled_document():
    res = run_cli(["auslander", "--in", str(DOCS / "dual_numbers.json")])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["total_dim"] == 5
    assert rep["blocks"] == {"0,0": 2, "0,1": 1, "1,0": 1, "1,1": 1}


def test_totalize_bundled_one_cube():
    res = run_cli(["totalize", "--in", str(DOCS / "one_cube.json")])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["cohomology"] == {"-1": 1, "-2": 1}
    res2 = run_cli(["check-acyclic", "--in", str(DOCS / "one_cube.json")])
    rep2 = json.loads(res2.stdout)
    assert rep2["kind"] == "complex_cube" and rep2["verdict"] is False


def test_refine_square_pipeline(tmp_path):
    res = run_cli(["refine-square", "--in", str(DOCS / "refine_square_input.json")])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    doc = rep["document"]
    square_doc = tmp_path / "square.json"
    square_doc.write_text(json.dumps(doc))
    res2 = run_cli(["check-qff", "--in", str(square_doc)])
    assert res2.returncode == 0
    rep2 = json.loads(res2.stdout)
    assert rep2["verdict"] is True


def test_check_qff_bundled_square():
    res = run_cli(["check-qff", "--in", str(DOCS / "refinement_square.json")])
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"] is True


def test_reports_byte_identical():
    out1 = run_cli(["check-qff", "--in", str(DOCS / "refinement_square.json")])
    out2 = run_cli(["check-qff", "--in", str(DOCS / "refinement_square.json")])
    assert out1.stdout == out2.stdout


def _glue_square_document():
    """refinement_square.json with twisted complexes over its Gac: the bare
    objects of `test_glue_command` and pi of object "0", whose delta is
    nonzero."""
    doc = json.loads((DOCS / "refinement_square.json").read_text())
    doc["twisted_complexes"] = {
        "t0": {"terms": [["0:0", 0]], "delta": {}},
        "t1": {"terms": [["1:0", 0]], "delta": {}},
        "t2": {"terms": [["1:0", 0], ["0:0", 1]], "delta": {"0,1": ["1", "0"]},
               "category": "gac:square"},
    }
    return doc


def _module_document(corrupt=False):
    """k[x]/x^3 over F_7 with its truncated free module P_1 as "m"; `corrupt`
    makes x send the first basis vector of degree 0 to the second as well."""
    from dgglue.filtlab import truncated_free, truncated_polynomial_algebra
    alg = truncated_polynomial_algebra(PrimeField(7), 3)
    mdata = dio.module_out(truncated_free(alg, 1))
    if corrupt:
        mdata["act"]["0,0"][1][0][1] = 1
    return {"field": {"Fp": 7}, "params": {"target": "m"},
            "filtered_algebras": {"a": dio.algebra_out(alg)},
            "modules": {"m": dict(mdata, algebra="a")}}


# (command, document, sha256 of stdout, --param values, exit code)
PINNED_REPORTS = [
    ("refine-square", "refine_square_input.json",
     "7a58daf9d990fb875cb30ba4a83cabf8f0d88906556e09f866494dca9f1eca63", (), 0),
    ("totalize", "one_cube.json",
     "d3c88505feb5bbfa328659c88c062d4ffe29f72a53050db2ba61d936ecd8b7fe", (), 0),
    ("check-acyclic", "one_cube.json",
     "e7438fb39f8c7c6545c58cfb113d5c48772dd65331f760eae83f3de12d4e9380", (), 0),
    ("auslander", "dual_numbers.json",
     "5f52b5421a1ef1158e44fb0ef45acb68579600c6c4c40d013d9f7d0c80ec51e8", (), 0),
    ("check-qff", "refinement_square.json",
     "1fff3e6885026a9b1aba8910d736b73b776e4436b23aecdeba25d16d008c8598", (), 0),
    ("check-acyclic", "refinement_square.json",
     "0de2f2905639bc1bf011643426246139d0043d8444cdebb8f2c4296a41d8083c", (), 0),
    ("gac-hom", "refinement_square.json",
     "14f5889294897299ea117596b2efb20c135c32d2113804188163f2c43e2889ec",
     ("source=0:0", "target=1:0"), 0),
    ("hom-iso", "refinement_square.json",
     "45019fa61fd1473983277a51ca12fe2185e9e260b88da754204b71eb79487752", (), 0),
    # the axioms of the cube's Gac (an error report, exit 1, before `validate`
    # read the gac: prefix)
    ("validate", "refinement_square.json",
     "3bef4691915e1006506a3bd969e84e0e3f4508f32dd553914e63d58e41f609df",
     ("target=gac:square",), 0),
    ("glue", "glue_square",
     "43723a85e83401c0bab2c4cca09a39d9077cc278c0b803989a7a77d42ad71808",
     ("objects=t0,t1,t2",), 0),
    ("validate", "glue_square",
     "9ab9f30958d40203a8dfca6b094e2e0bfe4265e8972aa2eb7f19aa2466101680",
     ("target=t2",), 0),
    # the module laws of P_1 over k[x]/x^3, and with one action entry changed
    ("validate", "module",
     "c7eb7192ca10dbb5f4f949c7f23eda87c206808f868983c38318f35a741adab2",
     ("target=m",), 0),
    ("validate", "corrupted_module",
     "a4bcb45f58e61da53fec2806b269effe889c25e971471e33dafdc355bb8d1596",
     ("target=m",), 0),
]


@pytest.mark.parametrize("command, document, sha256, params, code", [
    pytest.param(*case, id="-".join([case[0], *case[3], case[1], case[2]]))
    for case in PINNED_REPORTS])
def test_report_bytes_pinned(tmp_path, command, document, sha256, params,
                             code):
    # reports are byte-identical for a fixed document across versions, not
    # only across two runs of one version
    path = DOCS / document
    generated = {"glue_square": _glue_square_document,
                 "module": _module_document,
                 "corrupted_module": lambda: _module_document(corrupt=True)}
    if document in generated:
        path = tmp_path / f"{document}.json"
        path.write_text(json.dumps(generated[document]()))
    argv = [sys.executable, "-m", "dgglue.cli", command, "--in", str(path)]
    for kv in params:
        argv += ["--param", kv]
    res = subprocess.run(argv, capture_output=True, cwd=ROOT)
    assert res.returncode == code
    assert hashlib.sha256(res.stdout).hexdigest() == sha256


def test_timing_flag_adds_field():
    res = run_cli(["auslander", "--in", str(DOCS / "dual_numbers.json"),
                   "--timing"])
    assert "timing" in json.loads(res.stdout)


def test_exit_code_on_false_verdict(tmp_path):
    # a negative verdict still exits 0
    from conftest import unit_inclusion_cube
    from dgglue.cli import _dg_cube_document
    cube = unit_inclusion_cube(QQ)
    doc = _dg_cube_document(cube, params={"cube": "cube1"})
    doc["dg_cubes"] = {"cube1": list(doc["dg_cubes"].values())[0]}
    p = tmp_path / "bad_cube.json"
    p.write_text(json.dumps(doc))
    res = run_cli(["check-qff", "--in", str(p)])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["verdict"] is False
    assert rep["pairs"]["*|*"]["source"] == {"0": 1}
    assert rep["pairs"]["*|*"]["glue"] == {"0": 2}
    res2 = run_cli(["check-acyclic", "--in", str(p)])
    assert json.loads(res2.stdout)["verdict"] is False


def test_exit_code_on_malformed_input(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    res = run_cli(["cohomology", "--in", str(p)])
    assert res.returncode == 1
    p2 = tmp_path / "noref.json"
    p2.write_text(json.dumps({"field": "Q", "params": {"complex": "missing"}}))
    res2 = run_cli(["cohomology", "--in", str(p2)])
    assert res2.returncode == 1
    assert "error" in json.loads(res2.stdout)


def _assert_input_error(res):
    assert res.returncode == 1
    assert "error" in json.loads(res.stdout)
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("field, diff", [
    ({"Fp": 7}, [["x"]]),       # not an integer
    ("Q", [["1/0"]]),           # zero denominator
    ("Q", [5]),                 # a row that is a number
    ("Q", "ab"),                # a matrix that is a string
], ids=["F7-word", "Q-zero-denominator", "number-row", "string-matrix"])
def test_malformed_matrix_exits_1(tmp_path, field, diff):
    p = tmp_path / "bad_matrix.json"
    p.write_text(json.dumps({
        "field": field, "params": {"complex": "c"},
        "complexes": {"c": {"dims": {"0": 1, "1": 1}, "diff": {"0": diff}}}}))
    _assert_input_error(run_cli(["cohomology", "--in", str(p)]))


def test_missing_input_file_exits_1(tmp_path):
    _assert_input_error(
        run_cli(["cohomology", "--in", str(tmp_path / "absent.json")]))


def test_parallel_below_one_exits_1():
    _assert_input_error(
        run_cli(["check-qff", "--in", str(DOCS / "refinement_square.json"),
                 "--parallel", "0"]))


@pytest.mark.parametrize("doc", [
    {"field": "Q", "complexes": {"c": {"dims": [1]}},
     "params": {"complex": "c"}},
    {"field": "Q", "categories": {"c": {"objects": ["x"], "hom": [],
                                        "ids": {"x": ["1"]}}},
     "params": {"complex": "c"}},
], ids=["list-dims", "list-hom"])
def test_non_object_section_exits_1(tmp_path, doc):
    p = tmp_path / "bad_section.json"
    p.write_text(json.dumps(doc))
    _assert_input_error(run_cli(["cohomology", "--in", str(p)]))


def test_internal_failure_exits_2(tmp_path, monkeypatch, capsys):
    from dgglue import cli

    def broken(*args, **kwargs):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "validate_category", broken)
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(_path_category({"x": ["1"], "y": ["1"]})))
    assert cli.main(["validate", "--in", str(p)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "validate",
                   "internal_error": "RuntimeError: broken invariant"}


def _path_category(ids, xyy="1"):
    """A validate document for the path category of x -> y over Q; `xyy` is
    the table entry for id_y composed with the arrow."""
    one = [["1"]]
    return {"field": "Q", "params": {"target": "c"}, "categories": {"c": {
        "objects": ["x", "y"],
        "hom": {p: {"dims": {"0": 1}} for p in ("x->x", "x->y", "y->y")},
        "comp": {"x|x|x": {"0,0": one}, "y|y|y": {"0,0": one},
                 "x|x|y": {"0,0": one}, "x|y|y": {"0,0": [[xyy]]}},
        "ids": ids}}}


@pytest.mark.parametrize("xyy, violations", [
    ("1", ["identity of 'x' has wrong length"]),
    ("2", ["identity of 'x' has wrong length",
           "left unit fails on hom('x','y') deg 0",
           "associativity fails at ('x','y','y','y')"]),
], ids=["valid-tables", "bad-left-unit"])
def test_validate_wrong_length_identity(tmp_path, xyy, violations):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(_path_category({"x": [], "y": ["1"]}, xyy)))
    res = run_cli(["validate", "--in", str(p)])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["verdict"] is False and rep["violations"] == violations


def test_validate_functor_wrong_length_source_identity(tmp_path):
    doc = _path_category({"x": [], "y": ["1"]})
    cats = {"s": doc["categories"]["c"],
            "t": _path_category({"x": ["1"], "y": ["1"]})["categories"]["c"]}
    doc.update(params={"target": "F"}, categories=cats, functors={"F": {
        "source": "s", "target": "t", "obj_map": {"x": "x", "y": "y"},
        "hom_maps": {p: {"0": [["1"]]} for p in ("x->x", "x->y", "y->y")}}})
    p = tmp_path / "functor.json"
    p.write_text(json.dumps(doc))
    res = run_cli(["validate", "--in", str(p)])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["verdict"] is False
    assert rep["violations"] == ["identity of 'x' has wrong length"]


def _one_complex(dims):
    return {"field": "Q", "params": {"complex": "c"},
            "complexes": {"c": {"dims": dims}}}


def _one_edge_cube(edge_key):
    v = {"dims": {"0": 1}}
    return {"field": "Q", "params": {"cube": "q"}, "complex_cubes": {"q": {
        "top": [0], "vertices": {"": v, "0": v},
        "edges": {edge_key: {"comps": {"0": [["1"]]}}}}}}


def _path_category_key(old, new, section):
    doc = _path_category({"x": ["1"], "y": ["1"]})
    table = doc["categories"]["c"][section]
    table[new] = table.pop(old)
    return doc


def _square_input(**params):
    doc = json.loads((DOCS / "refine_square_input.json").read_text())
    doc["params"].update(params)
    return doc


@pytest.mark.parametrize("command, doc", [
    ("validate", _path_category_key("x->y", "xy", "hom")),
    ("validate", _path_category_key("x|x|y", "x|y", "comp")),
    ("totalize", _one_edge_cube("0")),
    ("cohomology", _one_complex({"a": 1})),
    ("cohomology", _one_complex({"0": "one"})),
    ("refine-square", _square_input(ideal=5)),
    ("refine-square", _square_input(d="x")),
    ("totalize", {"field": "Q", "params": {"cube": "q"}, "complex_cubes": {
        "q": {"top": [0], "shape": [0], "vertices": {}, "edges": {}}}}),
    ("cohomology", _one_complex({"0": 1.9})),
    ("cohomology", _one_complex({"1": True})),
], ids=["hom-key", "comp-key", "edge-key", "degree-key", "dims-value",
        "scalar-ideal", "word-d", "number-in-shape", "float-dims",
        "bool-dims"])
def test_malformed_key_or_integer_exits_1(tmp_path, command, doc):
    p = tmp_path / "bad_key.json"
    p.write_text(json.dumps(doc))
    _assert_input_error(run_cli([command, "--in", str(p)]))


@pytest.mark.parametrize("command, term", [
    ("validate", ["nope", 0]),      # no object of the category
    ("glue", ["nope", 0]),
    ("validate", 5),
    ("validate", [["x"], 0]),       # an unhashable name
    ("glue", [["x"], 0]),
    ("validate", "1:0"),            # a string, not a pair
    ("validate", {"shift": 0}),     # no "obj"
    ("validate", ["0:0"]),
    ("validate", ["0:0", 0, 1]),
], ids=["unknown-name", "glue-unknown-name", "number", "list-name",
        "glue-list-name", "string", "no-obj", "short-pair", "long-pair"])
def test_malformed_twisted_term_exits_1(tmp_path, command, term):
    doc = json.loads((DOCS / "refinement_square.json").read_text())
    doc["twisted_complexes"] = {"t": {"terms": [term], "delta": {},
                                      "category": "gac:square"}}
    doc["params"].update(target="t", objects="t")
    p = tmp_path / "bad_term.json"
    p.write_text(json.dumps(doc))
    res = run_cli([command, "--in", str(p)])
    _assert_input_error(res)
    assert "twisted-complex term" in json.loads(res.stdout)["error"]


@pytest.mark.parametrize("command", ["validate", "glue"])
@pytest.mark.parametrize("delta", [[], ["1", "0", "0"]], ids=["short", "long"])
def test_twisted_delta_of_wrong_length(tmp_path, command, delta):
    # the hom from "0:0" to "1:0" of the square's Gac has dimension 2 in
    # degree 0; an entry of another length is refused, even when zero
    doc = _glue_square_document()
    doc["twisted_complexes"]["t2"]["delta"] = {"0,1": delta}
    doc["params"].update(target="t2", objects="t2")
    p = tmp_path / "bad_delta.json"
    p.write_text(json.dumps(doc))
    res = run_cli([command, "--in", str(p)])
    rep = json.loads(res.stdout)
    if command == "validate":
        assert res.returncode == 0 and rep["verdict"] is False
        assert rep["violations"] == [f"delta entry (0,1) has {len(delta)} "
                                     f"coordinates, its hom has dimension 2"]
    else:
        _assert_input_error(res)
        assert "delta entry (0,1)" in rep["error"]


@pytest.mark.parametrize("section, key, value", [
    ("tau", "9", [[1]]),
    ("tau", "3", [[1]]),
    ("tau", "0", [[1, 0]]),
    ("act", "0,9", [[[1]], [[0]], [[0]]]),
    ("act", "9,0", []),
], ids=["tau-far", "tau-length", "tau-zero", "act-k", "act-j"])
def test_module_key_outside_window_exits_1(tmp_path, section, key, value):
    doc = _module_document()
    doc["modules"]["m"][section][key] = value
    p = tmp_path / "bad_module.json"
    p.write_text(json.dumps(doc))
    res = run_cli(["validate", "--in", str(p)])
    _assert_input_error(res)
    assert "outside the window" in json.loads(res.stdout)["error"]


def test_module_with_too_few_dims_exits_1(tmp_path):
    doc = _module_document()
    doc["modules"]["m"]["dims"] = [2, 2]
    p = tmp_path / "short_module.json"
    p.write_text(json.dumps(doc))
    res = run_cli(["validate", "--in", str(p)])
    _assert_input_error(res)
    assert "needs 3 dims" in json.loads(res.stdout)["error"]


def _unresolved(document, section, name, key, sub=None):
    """A bundled document, or one that `document()` builds, with the
    reference at [section][name][key]([sub]) made to name nothing."""
    doc = document() if callable(document) else \
        json.loads((DOCS / document).read_text())
    entry = doc[section][name]
    if sub is None:
        entry[key] = "nope"
    else:
        entry[key][sub] = "nope"
    return doc


def _graded_map_document():
    return {"field": "Q", "complexes": {"c": {"dims": {"0": 1}}},
            "graded_maps": {"g": {"source": "c", "target": "c"}}}


@pytest.mark.parametrize("doc, kind", [
    (_unresolved("refinement_square.json", "functors", "edge_o_0", "source"),
     "category"),
    (_unresolved("refinement_square.json", "functors", "edge_o_0", "target"),
     "category"),
    (_unresolved(_graded_map_document, "graded_maps", "g", "source"),
     "complex"),
    (_unresolved(_graded_map_document, "graded_maps", "g", "target"),
     "complex"),
    (_unresolved("refinement_square.json", "dg_cubes", "square", "vertices",
                 "0"), "category"),
    (_unresolved("refinement_square.json", "dg_cubes", "square", "edges",
                 "|0"), "functor"),
    (_unresolved(_module_document, "modules", "m", "algebra"), "algebra"),
    (_unresolved("refine_square_input.json", "algebra_maps", "quot",
                 "source"), "algebra"),
    (_unresolved("refine_square_input.json", "algebra_maps", "quot",
                 "target"), "algebra"),
], ids=["functor-source", "functor-target", "graded-map-source",
        "graded-map-target", "cube-vertex", "cube-edge", "module-algebra",
        "algebra-map-source", "algebra-map-target"])
def test_unresolved_reference_exits_1(tmp_path, doc, kind):
    p = tmp_path / "unresolved.json"
    p.write_text(json.dumps(doc))
    res = run_cli(["validate", "--in", str(p), "--param", "target=x"])
    _assert_input_error(res)
    assert json.loads(res.stdout)["error"] == \
        f"unresolved {kind} reference 'nope'"


def test_max_dim_guard(tmp_path):
    res = run_cli(["check-qff", "--in", str(DOCS / "refinement_square.json"),
                   "--max-dim", "1"])
    assert res.returncode == 1
    assert "exceeds" in json.loads(res.stdout)["error"]


def test_field_flag_conflict(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"field": "Q", "params": {}}))
    res = run_cli(["ext-table", "--in", str(p), "--field", "Fp:7"])
    assert res.returncode == 1


def _field_doc(tmp_path, field):
    doc = {"params": {"complex": "c"}, "complexes": {"c": {"dims": {"0": 1}}}}
    if field is not None:
        doc["field"] = field
    p = tmp_path / "field.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("field, flag", [
    ({"Fp": "x"}, None),
    ({"Fp": "7.0"}, None),
    ({"Fp": [7]}, None),
    ({"Fp": None}, None),
    ({"Fp": 7.5}, None),        # was read as F_7
    ({"Fp": 7.0}, None),
    (None, "Fp:x"),
    (None, "Fp:"),
], ids=["word", "decimal-string", "list", "null", "float", "integral-float",
        "flag-word", "flag-empty"])
def test_bad_field_prime_exits_1(tmp_path, field, flag):
    args = ["cohomology", "--in", _field_doc(tmp_path, field)]
    _assert_input_error(run_cli(args + (["--field", flag] if flag else [])))


@pytest.mark.parametrize("field, flag", [({"Fp": "7"}, None), (None, "Fp:7")],
                         ids=["digit-string", "flag"])
def test_field_prime_as_digits(tmp_path, field, flag):
    args = ["cohomology", "--in", _field_doc(tmp_path, field)]
    res = run_cli(args + (["--field", flag] if flag else []))
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["field"] == {"Fp": 7} and rep["table"] == {"0": 1}


def test_validate_command(tmp_path):
    doc = {
        "field": "Q",
        "complexes": {"c": {"dims": {"0": 1}, "diff": {}}},
        "params": {"target": "c"},
    }
    p = tmp_path / "v.json"
    p.write_text(json.dumps(doc))
    res = run_cli(["validate", "--in", str(p)])
    rep = json.loads(res.stdout)
    assert rep["verdict"] is True and rep["kind"] == "complex"


def test_ext_table_and_proj_dgcat(tmp_path):
    res = run_cli(["proj-dgcat", "--in", str(DOCS / "dual_numbers.json")])
    rep = json.loads(res.stdout)
    catdoc = {"field": "Q", "categories": {"pc": rep["category"]},
              "params": {"category": "pc"}}
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(catdoc))
    res2 = run_cli(["ext-table", "--in", str(p)])
    rep2 = json.loads(res2.stdout)
    assert rep2["table"]["0|0"] == {"0": 2}
    assert rep2["table"]["0|1"] == {"0": 1}


def test_refine_command():
    doc = json.loads((DOCS / "refine_square_input.json").read_text())
    doc["params"] = {"algebra": "kx4", "d": 2, "ideal": [["0", "1", "0", "0"]]}
    res = run_cli(["refine"], stdin_text=json.dumps(doc))
    rep = json.loads(res.stdout)
    assert rep["length"] == 4
    # refined algebra re-parses
    alg_doc = {"field": "Q", "filtered_algebras": {"g": rep["algebra"]},
               "params": {"target": "g"}}
    res2 = run_cli(["validate"], stdin_text=json.dumps(alg_doc))
    assert json.loads(res2.stdout)["verdict"] is True


def test_gac_hom_and_hom_iso():
    res = run_cli(["gac-hom", "--in", str(DOCS / "refinement_square.json"),
                   "--param", "source=0:0", "--param", "target=1:0"])
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert "hom" in rep and "cohomology" in rep
    res2 = run_cli(["hom-iso", "--in", str(DOCS / "refinement_square.json")])
    assert json.loads(res2.stdout)["verdict"] is True


def test_glue_command(tmp_path):
    doc = json.loads((DOCS / "refinement_square.json").read_text())
    # bare objects over the generalized arrow category of the square
    doc["twisted_complexes"] = {
        "t0": {"terms": [["0:0", 0]], "delta": {}},
        "t1": {"terms": [["1:0", 0]], "delta": {}},
    }
    doc["params"] = {"cube": "square", "objects": "t0,t1"}
    res = run_cli(["glue"], stdin_text=json.dumps(doc))
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert set(rep["category"]["objects"]) == {"t0", "t1"}


def test_stack_extend_commands(tmp_path):
    from conftest import collapse_square
    from dgglue.cli import _dg_cube_document
    doc = _dg_cube_document(collapse_square(QQ))
    doc["dg_cubes"]["square2"] = doc["dg_cubes"]["square"]
    doc["params"] = {"first": "square", "second": "square2"}
    res = run_cli(["extend"], stdin_text=json.dumps(doc))
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["cube"]["dg_cubes"]
    res2 = run_cli(["stack"], stdin_text=json.dumps(doc))
    assert res2.returncode == 0


def _pair_doc(tmp_path, which):
    """A dg-cube document and its parsed cube: the bundled square (acyclic,
    4 pairs), a collapse square (not acyclic, 1 pair) or the bundled square
    extended by identity to a 3-cube (acyclic, 4 pairs)."""
    from dgglue.cli import _dg_cube_document
    from dgglue.samples import _extend_by_identity, random_bad_square, rng
    path = DOCS / "refinement_square.json"
    if which != "square":
        square = dio.parse_document(json.loads(path.read_text())).dg_cubes
        cube = random_bad_square(QQ, rng(3)) if which == "collapse" else \
            _extend_by_identity(square["square"])
        name = "square" if cube.n == 2 else f"cube{cube.n}"
        path = tmp_path / f"{which}.json"
        path.write_text(json.dumps(_dg_cube_document(cube,
                                                     params={"cube": name})))
    doc = dio.parse_document(json.loads(path.read_text()))
    return str(path), doc.dg_cubes[doc.params["cube"]]


def _record_calls(monkeypatch, log):
    """Log the pid of every document parse, Gac build and pair decision."""
    from dgglue import cli

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(dio, "parse_document",
                        recorder("parse", dio.parse_document))
    monkeypatch.setattr(cli, "gac", recorder("gac", cli.gac))
    monkeypatch.setattr(cli, "pair_result",
                        recorder("pair", cli.pair_result))


def _str_keys(table):
    return {str(k): v for k, v in table.items()}


@pytest.mark.parametrize("command", ["check-acyclic", "check-qff"])
@pytest.mark.parametrize("which, verdict", [
    ("square", True), ("collapse", False), ("cube3", True)])
def test_parallel_flag_matches_serial(tmp_path, monkeypatch, capsys, command,
                                      which, verdict):
    from dgglue import cli
    path, cube = _pair_doc(tmp_path, which)
    assert cli.main([command, "--in", path]) == 0
    serial = capsys.readouterr().out
    rep = json.loads(serial)
    assert rep["verdict"] is verdict

    # the pool workers are forked, so they inherit the recording patches
    log = tmp_path / "calls"
    _record_calls(monkeypatch, log)
    assert cli.main([command, "--in", path, "--parallel", "2"]) == 0
    assert capsys.readouterr().out == serial
    calls = Counter(tuple(line.split()) for line in log.read_text().split("\n")
                    if line and not line.endswith(f" {os.getpid()}"))
    workers = {pid for _, pid in calls}
    pairs = {pid: calls[("pair", pid)] for pid in workers}
    assert sum(pairs.values()) == len(rep["pairs"])
    for pid in workers:
        assert calls[("parse", pid)] == 1
        assert calls[("gac", pid)] == (command == "check-qff" and
                                       pairs[pid] > 0)
    if which != "collapse":     # 4 pairs, 2 workers: one Gac served several
        assert len(rep["pairs"]) > 2 and max(pairs.values()) >= 2

    # the library reaches the same verdict and tables
    if command == "check-qff":
        ok, lib = check_qff(cube)
        lib = {k: {"source": _str_keys(v["source"]),
                   "glue": _str_keys(v["glue"]),
                   "isomorphism": v["isomorphism"]} for k, v in lib.items()}
    else:
        ok, lib = check_acyclic_dgcube(cube)
        lib = {k: _str_keys(v) for k, v in lib.items()}
    assert ok is verdict
    assert {f"{a}|{b}": v for (a, b), v in lib.items()} == rep["pairs"]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_pi_not_closed_exits_2(monkeypatch, capsys, parallel):
    from dgglue import cli
    from dgglue.complexes import GradedMap
    monkeypatch.setattr(GradedMap, "is_closed", lambda self: False)
    assert cli.main(["check-qff", "--in", str(DOCS / "refinement_square.json"),
                     "--parallel", parallel]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "command": "check-qff",
        "internal_error": "pi comparison map is not closed"}


def test_hom_iso_builds_one_gac(monkeypatch, capsys):
    from dgglue import cli, glue
    built = []

    def counting_gac(cube):
        built.append(cube)
        return gac(cube)
    monkeypatch.setattr(cli, "gac", counting_gac)
    monkeypatch.setattr(glue, "gac", counting_gac)
    assert cli.main(["hom-iso", "--in",
                     str(DOCS / "refinement_square.json")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] is True and len(rep["pairs"]) == 4
    assert len(built) == 1


def test_huge_integer_exits_1(tmp_path, monkeypatch, capsys):
    # json.load raises a plain ValueError past 4300 digits
    from dgglue import cli
    text = ('{"field": "Q", "params": {"complex": "c"}, "complexes": '
            '{"c": {"dims": {"0": ' + "9" * 5000 + '}}}}')
    p = tmp_path / "huge.json"
    p.write_text(text)
    assert cli.main(["cohomology", "--in", str(p)]) == 1
    assert "error" in json.loads(capsys.readouterr().out)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["cohomology"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)
    # the same limit in a --param value that `refine` decodes as JSON
    assert cli.main(["refine", "--in", str(DOCS / "refine_square_input.json"),
                     "--param", "ideal=[[" + "9" * 5000 + "]]",
                     "--param", "d=2"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("field", ["Q", {"Fp": 7}], ids=["Q", "F7"])
def test_boolean_scalar_exits_1(tmp_path, capsys, field):
    # JSON true is not the scalar 1
    from dgglue import cli
    doc = json.loads((DOCS / "one_cube.json").read_text())
    doc["field"] = field
    doc["complex_cubes"]["arrow"]["vertices"][""]["diff"]["-1"] = [[True, "1"]]
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["totalize", "--in", str(p)]) == 1
    assert "true" in json.loads(capsys.readouterr().out)["error"].lower()


def test_auslander_of_non_unital_algebra_exits_1(tmp_path, capsys):
    from dgglue import cli
    doc = json.loads((DOCS / "dual_numbers.json").read_text())
    doc["filtered_algebras"]["dual"]["mult"]["0,0"][1] = 7
    p = tmp_path / "non_unital.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["auslander", "--in", str(p)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "auslander", "error":
                   "algebra is not a filtered algebra: unit fails on basis 0"}


def test_nonzero_last_filtration_level_is_a_violation(tmp_path, capsys):
    # F^{-length} must be zero; the stored level is checked, not the zero
    # matrix that `fil` returns for every s <= -length
    from dgglue import cli
    doc = json.loads((DOCS / "dual_numbers.json").read_text())
    doc["filtered_algebras"]["dual"]["filtration"]["2"] = [["0"], ["1"]]
    p = tmp_path / "last_level.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["validate", "--in", str(p), "--param",
                     "target=dual"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] is False and rep["violations"] == \
        ["F^-2 is not zero"]
    assert cli.main(["auslander", "--in", str(p)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == \
        "algebra is not a filtered algebra: F^-2 is not zero"


def _dependent_filtration_document(tmp_path):
    # F^{-1} listed as [x, x]: two columns that span a line
    doc = json.loads((DOCS / "dual_numbers.json").read_text())
    doc["filtered_algebras"]["dual"]["filtration"]["1"] = [["0", "0"],
                                                          ["1", "1"]]
    p = tmp_path / "dependent_level.json"
    p.write_text(json.dumps(doc))
    return p


def test_validate_dependent_filtration_columns(tmp_path, capsys):
    from dgglue import cli
    p = _dependent_filtration_document(tmp_path)
    assert cli.main(["validate", "--in", str(p), "--param",
                     "target=dual"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] is False and rep["violations"] == \
        ["F^-1 has linearly dependent columns"]


def test_auslander_of_dependent_filtration_columns_exits_1(tmp_path, capsys):
    # was an internal error (exit 2): "unit fails on basis (0, 1, 1)"
    from dgglue import cli
    p = _dependent_filtration_document(tmp_path)
    assert cli.main(["auslander", "--in", str(p)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == \
        "algebra is not a filtered algebra: F^-1 has linearly dependent columns"


@pytest.mark.parametrize("command", ["validate", "auslander", "proj-dgcat",
                                     "refine"])
def test_product_with_extra_coordinates_exits_1(tmp_path, capsys, command):
    # was an internal error (exit 2): an IndexError in the product loop
    from dgglue import cli
    doc = json.loads((DOCS / "dual_numbers.json").read_text())
    doc["filtered_algebras"]["dual"]["mult"]["0,1"] = ["0", "1", "1"]
    doc["params"].update(target="dual", d=2, ideal=[["0", "1"]])
    p = tmp_path / "long_product.json"
    p.write_text(json.dumps(doc))
    assert cli.main([command, "--in", str(p)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == \
        "product (0,1) has more than 2 coordinates"


@pytest.mark.parametrize("unit", [["1"], ["1", "0", "0"]], ids=["short", "long"])
def test_validate_unit_of_wrong_length(tmp_path, capsys, unit):
    from dgglue import cli
    doc = json.loads((DOCS / "dual_numbers.json").read_text())
    doc["filtered_algebras"]["dual"]["unit"] = unit
    p = tmp_path / "bad_unit.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["validate", "--in", str(p), "--param", "target=dual"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] is False
    assert rep["violations"] == ["unit has wrong length"]


def _square_with(edit):
    doc = json.loads((DOCS / "refinement_square.json").read_text())
    edit(doc)
    return doc


def _corrupt_cat_0(doc):
    doc["categories"]["cat_0"]["comp"]["0|0|0"]["0,0"][1][1] = "2"


def _retarget_edge_o_0(entry):
    def edit(doc):
        cat_0b = json.loads(json.dumps(doc["categories"]["cat_0"]))
        cat_0b["comp"]["0|0|0"]["0,0"][0][0] = entry
        doc["categories"]["cat_0b"] = cat_0b
        doc["functors"]["edge_o_0"]["target"] = "cat_0b"
    return edit


def test_validate_gac_reports_violations(tmp_path, capsys):
    from dgglue import cli
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps(_square_with(_corrupt_cat_0)))
    assert cli.main(["validate", "--in", str(p),
                     "--param", "target=gac:square"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "gac" and rep["verdict"] is False
    assert "left unit fails on hom('0:0','0:0') deg 0" in rep["violations"]
    assert cli.main(["validate", "--in", str(p), "--param", "target=gac:square",
                     "--max-dim", "1"]) == 1
    assert "exceeds --max-dim 1" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("entry, code", [("1", 0), ("2", 1)],
                         ids=["equal-target", "other-target"])
def test_dg_cube_checks_edge_target(tmp_path, capsys, entry, code):
    # an edge whose target is a copy of the vertex: accepted when the copy
    # has equal tables, an endpoint mismatch when one entry differs
    from dgglue import cli
    p = tmp_path / "retargeted.json"
    p.write_text(json.dumps(_square_with(_retarget_edge_o_0(entry))))
    assert cli.main(["check-acyclic", "--in", str(p)]) == code
    rep = json.loads(capsys.readouterr().out)
    if code:
        assert rep["error"] == "dg edge ([],0) endpoints mismatch"
    else:
        assert rep["verdict"] is True


@pytest.mark.parametrize("p, code", [
    (2 ** 61 - 1, 0),
    (1000000000039 * 1000000000061, 1),
    (2 ** 89 - 1, 1),               # prime, but primality is not decided
], ids=["mersenne-61", "semiprime", "above-bound"])
def test_large_field_prime(tmp_path, p, code):
    # trial division took minutes on each of these
    res = subprocess.run(
        [sys.executable, "-m", "dgglue.cli", "cohomology", "--in",
         _field_doc(tmp_path, {"Fp": p})],
        capture_output=True, text=True, cwd=ROOT, timeout=30)
    assert res.returncode == code
    rep = json.loads(res.stdout)
    if code == 0:
        assert rep["table"] == {"0": 1}
    else:
        assert "error" in rep


def test_roundtrip_entities():
    # every emitted entity re-parses to a structurally equal value
    from dgglue.filtlab import truncated_polynomial_algebra, truncated_free
    from dgglue.complexes import Complex
    field = PrimeField(7)
    alg = truncated_polynomial_algebra(field, 3)
    data = dio.algebra_out(alg)
    back = dio.algebra_in(field, data)
    assert back.length == alg.length
    assert all(back.fil(-k) == alg.fil(-k) for k in range(4))
    assert all(back.mul_basis(i, j) == alg.mul_basis(i, j)
               for i in range(3) for j in range(3))
    m = truncated_free(alg, 1)
    mdata = dio.module_out(m)
    mback = dio.module_in(field, mdata, alg)
    assert mback.dims == m.dims
    assert all(mback.tau_at(-k) == m.tau_at(-k) for k in range(1, 3))
    c = Complex(field, {0: 2, 1: 1},
                {0: Matrix.from_rows(field, [[1, 0]])})
    assert dio.complex_in(field, dio.complex_out(c)) == c
    # categories, functors and cubes round-trip through the document schema
    from conftest import collapse_square
    from dgglue.cli import _dg_cube_document
    from dgglue.dgcat import cats_equal, functors_equal
    from dgglue.io import parse_document
    sq = collapse_square(field)
    doc = parse_document(_dg_cube_document(sq, params={}))
    back = doc.dg_cubes["square"]
    for I in sq.vertices:
        assert cats_equal(sq.vertices[I], back.vertices[I])
    for key in sq.edges:
        assert functors_equal(sq.edges[key], back.edges[key])
    from dgglue.samples import random_tensor_cube, rng as mkrng
    cube = random_tensor_cube(field, mkrng(5), 2, max_dim=1)
    data = dio.complex_cube_out(cube, {})
    back2 = dio.complex_cube_in(field, data)
    from dgglue.hypercube import cubes_equal
    assert cubes_equal(cube, back2)
