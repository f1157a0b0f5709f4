"""A command runs with the cyclic garbage collector off.

`cli.main` disables the collector for the whole command and restores the
caller's state on every exit path, and the Gac holds no reference cycle, so
reference counting alone frees it once dropped.
"""

import gc
import json
import weakref
from pathlib import Path

import pytest

from dgglue import cli
from dgglue import io as dio
from dgglue.glue import GacCategory, gac

DOCS = Path(__file__).resolve().parents[1] / "documents"
SQUARE = str(DOCS / "refinement_square.json")


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
