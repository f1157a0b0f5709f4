"""A command runs with the cyclic garbage collector off.

`cli.main` disables the collector for the whole command and restores the
caller's state on every exit path.  The Gac, a filtered algebra with its
cached quotients, and the writing of a report make no reference cycle, so
reference counting alone frees what they leave once dropped.
"""

import gc
import json
import weakref
from pathlib import Path

import pytest

from dgglue import cli
from dgglue import io as dio
from dgglue import filtlab
from dgglue.glue import GacCategory, gac

DOCS = Path(__file__).resolve().parents[1] / "documents"
SQUARE = str(DOCS / "refinement_square.json")


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was:
        gc.enable()


def _internal_error(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken invariant")
    monkeypatch.setattr(cli, "pair_result", broken)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code, patch", [
    (["check-acyclic", "--in", SQUARE], 0, None),
    (["check-qff", "--in", str(DOCS / "absent.json")], 1, None),
    (["check-qff", "--in", SQUARE], 2, _internal_error),
    (["no-such-command", "--in", SQUARE], SystemExit, None),
], ids=["verdict", "malformed", "internal-error", "argparse"])
def test_main_restores_collector_state(monkeypatch, capsys, enabled, argv,
                                       code, patch):
    if patch is not None:
        patch(monkeypatch)
    emitted = []        # the collector's state as each report is written
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *args: emitted.append(
        gc.isenabled()) or emit(*args))
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if code is SystemExit:
            with pytest.raises(SystemExit):
                cli.main(argv)
        else:
            assert cli.main(argv) == code
        assert gc.isenabled() is enabled
        assert emitted == ([] if code is SystemExit else [False])
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    capsys.readouterr()


def test_dropped_gac_is_freed_without_the_collector():
    cube = dio.parse_document(
        json.loads(Path(SQUARE).read_text())).dg_cubes["square"]
    was = gc.isenabled()
    gc.disable()
    try:
        g = gac(cube)
        cat = g.category
        for a in cat.objects:       # run the composition closure
            for b in cat.objects:
                for c in cat.objects:
                    cat.comp_matrix(a, b, c, 0, 0)
        assert isinstance(g, GacCategory)
        ref = weakref.ref(g)
        del g, cat
        assert ref() is None
    finally:
        if was:
            gc.enable()


def test_pool_worker_disables_collector(monkeypatch):
    # a spawned or forkserver worker does not inherit the parent's state
    doc = dio.parse_document(json.loads(Path(SQUARE).read_text()))
    raw = cli._document_roundtrip(doc, "square")
    monkeypatch.setattr(cli, "_worker", {})
    was = gc.isenabled()
    gc.enable()
    try:
        cli._worker_init(raw)
        assert not gc.isenabled()
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def test_dropped_algebra_is_freed_without_the_collector(collector_off):
    raw = json.loads((DOCS / "dual_numbers.json").read_text())
    alg = dio.parse_document(raw).filtered_algebras["dual"]
    q = alg.quot(0, -2)
    assert q.from_ambient(q.ambient) == q.proj @ alg.fil_coords(0, q.ambient)
    ref = weakref.ref(alg)
    del alg
    assert ref() is None


def test_refine_square_frees_its_algebras(monkeypatch, collector_off,
                                          tmp_path):
    refs = []
    init = filtlab.FilteredAlgebra.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))
    monkeypatch.setattr(filtlab.FilteredAlgebra, "__init__", tracked)
    assert cli.main(["refine-square", "--in",
                     str(DOCS / "refine_square_input.json"),
                     "--out", str(tmp_path / "report.json")]) == 0
    # the two parsed algebras and the refinements the square builds
    assert len(refs) >= 3
    assert all(ref() is None for ref in refs)


def test_dump_json_makes_no_cycles(collector_off):
    doc = dio.parse_document(json.loads(Path(SQUARE).read_text()))
    report = cli.run("check-qff", doc)
    assert report["verdict"] is True and report["pairs"]
    gc.collect()
    text = dio.dump_json(report)
    assert gc.collect() == 0
    assert text == json.dumps(report, sort_keys=True, separators=(",", ": "),
                              indent=1)
