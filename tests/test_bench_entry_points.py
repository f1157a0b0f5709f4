"""Every entry point that the benchmark's tracer wraps exists in `dgglue`.

`perfbench/spans.py` names each one by module (or "module:Class") and
attribute.  A renamed or deleted entry point would otherwise show only in a
traced benchmark run, whose `Tracer.install` raises LookupError."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("name, owner, attr", spans.SPANNED,
                         ids=[f"{owner}.{attr}"
                              for _, owner, attr in spans.SPANNED])
def test_spanned_entry_point_exists(name, owner, attr):
    target = spans._resolve(owner)
    assert target is not None and attr in vars(target), \
        f"{name}: {owner}.{attr} is not defined"
