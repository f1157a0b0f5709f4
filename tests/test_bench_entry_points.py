"""The benchmark's tracer finds every entry point it wraps in `dgglue`, and
the glue-ladder commands reach every one the benchmark expects them to.

`perfbench/spans.py` names each entry point by module (or "module:Class")
and attribute.  A renamed or deleted entry point would otherwise show only
in a traced benchmark run, whose `Tracer.install` raises LookupError.  A
path that stops calling one that `perfbench/measure.py` `EXPECTED` lists
would show only as a traced run that is not correct."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
try:
    import inputs
    import measure
    import spans
finally:
    sys.path.remove(str(REPO / "perfbench"))


@pytest.mark.parametrize("name, owner, attr", spans.SPANNED,
                         ids=[f"{owner}.{attr}"
                              for _, owner, attr in spans.SPANNED])
def test_spanned_entry_point_exists(name, owner, attr):
    target = spans._resolve(owner)
    assert target is not None and attr in vars(target), \
        f"{name}: {owner}.{attr} is not defined"


def test_glue_ladder_commands_reach_every_expected_entry_point(tmp_path):
    # the smallest rung: a square alone composes no Gac morphisms in pi
    from dgglue import cli
    from dgglue.fields import PrimeField
    from dgglue.samples import _extend_by_identity
    cube = _extend_by_identity(inputs.ladder_square(PrimeField(7), 4))
    doc = tmp_path / "ladder.json"
    doc.write_text(json.dumps(inputs._dg_cube_doc(cube)))
    tracer = spans.Tracer()
    try:
        tracer.install()
        codes = [cli.main([command, "--in", str(doc),
                           "--out", str(tmp_path / f"{command}.json")])
                 for command in ("check-acyclic", "check-qff")]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    counted = {span[0] for span in tracer.spans} | {
        name for name, value in tracer.counters.items() if value}
    silent = [name for name in measure.EXPECTED["glue-ladder"]
              if name not in counted]
    assert silent == [], f"recorded no calls: {silent}"
