"""Tests of the benchmark's own logic: tail rule, self time, oracle, tracer.

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import os

import pytest

import calibrate
import measure
import oracle
import spans

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- tail percentile -------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    lat = [float(i) for i in range(100, 0, -1)]
    value, pct, n = measure.tail(lat)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(1 for x in lat if x > value) == 10


def test_tail_of_28_samples_is_rank_18():
    lat = [0.5 * i for i in range(28)]
    value, pct, n = measure.tail(lat)
    assert value == lat[17]
    assert pct == pytest.approx(100 * 18 / 28)
    assert sum(1 for x in lat if x > value) == 10


def test_tail_needs_more_than_ten_samples():
    assert measure.tail([1.0] * 11)[1] == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


def test_end_to_end_takes_the_tail_over_every_pass():
    # 9 passes of 20 commands: command c takes c + 1 seconds, plus a
    # per-pass offset, so the ten largest samples are all of command 19.
    passes = [{"latencies": [c + 1 + 0.01 * p for c in range(20)]}
              for p in range(9)]
    metrics, pct, n = measure.end_to_end(passes)
    samples = sorted(t for p in passes for t in p["latencies"])
    assert n == 180 and pct == pytest.approx(100 * 170 / 180)
    assert metrics["latency_s.tail"] == samples[-11]
    assert metrics["latency_s.tail"] > metrics["latency_s.p50"]
    assert metrics["latency_s.p50"] == pytest.approx(
        (samples[89] + samples[90]) / 2)
    assert metrics["pass_s"] == pytest.approx(210 + 0.2 * 4)


# -- calibration -------------------------------------------------------------


def test_scale_uses_the_mean_of_the_calibrations_around_a_command():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(2.0, ref, ref) == pytest.approx(2.0)
    # the machine ran at half speed: the command would take half as long
    assert calibrate.scale(2.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.0)


# -- self time ---------------------------------------------------------------


def span(name, start, end, parent, tag=None):
    return (name, start, end, parent, "0/cmd", tag)


def test_self_time_subtracts_direct_children_only():
    tree = [
        span("cli.main", 0.0, 10.0, -1),        # 0
        span("io.parse", 1.0, 3.0, 0),          # 1
        span("cli.run", 4.0, 9.0, 0),           # 2
        span("linalg.elim", 5.0, 6.0, 2),       # 3
        span("linalg.elim", 6.5, 8.0, 2),       # 4
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 2.5, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    tree = [span("a", 0.0, 10.0, -1), span("b", 2.0, 6.0, 0),
            span("c", 4.0, 7.0, 0), span("d", 9.0, 12.0, 0)]
    # children cover [2, 7] and [9, 10] of the parent: 6 of its 10 seconds
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_layer_metrics_sum_self_time_by_name_and_field():
    tree = [
        span("cli.main", 0.0, 10.0, -1),
        span(spans.ELIM, 1.0, 2.0, 0, "Q"),
        span(spans.ELIM, 3.0, 6.0, 0, "F7"),
        span(spans.BOOKKEEPING, 6.0, 6.5, 0),
    ]
    m = spans.layer_metrics(tree, {"elim_cells": 12, spans.COMPOSE: 7})
    assert m["linalg.elim_calls"] == 2
    assert m["linalg.elim_s"] == pytest.approx(4.0)
    assert m["linalg.elim_s.Q"] == pytest.approx(1.0)
    assert m["linalg.elim_s.F7"] == pytest.approx(3.0)
    assert m["linalg.elim_cells"] == 12
    assert m["dgcat.compose_calls"] == 7
    assert m["cli.main_self_s"] == pytest.approx(5.5)
    assert m["glue.gac_s"] == 0.0


# -- oracle ------------------------------------------------------------------


def pinned(report):
    spec = {"id": "check-qff:x.json", "pin": "doc:check-qff",
            "verdict": True, "group": "x.json"}
    return spec, {spec["pin"]: hashlib.sha256(report).hexdigest()}


REPORT = json.dumps({"command": "check-qff", "verdict": True},
                    sort_keys=True).encode()


def test_oracle_accepts_the_pinned_report():
    spec, pins = pinned(REPORT)
    assert oracle.check_command(spec, 0, REPORT, pins) == []


def test_oracle_catches_a_flipped_verdict():
    spec, pins = pinned(REPORT)
    flipped = REPORT.replace(b"true", b"false")
    reasons = oracle.check_command(spec, 0, flipped, pins)
    assert any("verdict" in r for r in reasons)
    assert any("pinned" in r for r in reasons)


def test_oracle_catches_one_changed_byte():
    spec, pins = pinned(REPORT)
    changed = REPORT.replace(b'"check-qff"', b'"check-qfg"')
    assert oracle.check_command(spec, 0, changed, pins) == [
        "report bytes differ from the pinned report"]


def test_oracle_catches_exit_code_and_missing_violations():
    spec, pins = pinned(REPORT)
    assert oracle.check_command(spec, 1, REPORT, pins) == ["exit code 1"]
    spec = dict(spec, verdict=False, violations=True)
    report = json.dumps({"verdict": False, "violations": []}).encode()
    pins = {spec["pin"]: hashlib.sha256(report).hexdigest()}
    assert oracle.check_command(spec, 0, report, pins) == [
        "expected a non-empty violation list"]


def test_oracle_catches_disagreeing_verdicts():
    specs = [{"id": "a", "group": "doc"}, {"id": "q", "group": "doc"},
             {"id": "other"}]
    assert oracle.check_agreement(specs, {"a": True, "q": True}) == {}
    bad = oracle.check_agreement(specs, {"a": True, "q": False})
    assert set(bad) == {"a", "q"}


# -- tracer -------------------------------------------------------------


def test_tracer_patches_every_copy_and_restores(tmp_path):
    from dgglue import cli, glue, hypercube, twisted
    originals = (cli.gac, cli.totalize, glue.tw_hom, glue.totalize,
                 hypercube.compose_functors)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert glue.tw_hom is twisted.tw_hom
        assert glue.tw_hom.__wrapped__ is originals[2]
        assert cli.gac is glue.gac and cli.gac.__wrapped__ is originals[0]
        assert hypercube.compose_functors.__wrapped__ is originals[4]
        tracer.command = "0/check-qff"
        rc = cli.main(["check-qff", "--in",
                       os.path.join(REPO, "documents",
                                    "refinement_square.json"),
                       "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (cli.gac, cli.totalize, glue.tw_hom, glue.totalize,
            hypercube.compose_functors) == originals
    names = {s[0] for s in tracer.spans}
    for name in ("cli.main", "cli.run", "io.parse", "glue.gac",
                 spans.COMP_TABLE, "twisted.tw_hom", "glue.pi_comparison",
                 "complexes.induced_map", spans.ELIM):
        assert name in names, name
    m = spans.layer_metrics(tracer.spans, tracer.counters)
    assert m["glue.gac_objects"] > 0 and m["twisted.tw_hom_dim"] > 0
    assert m["dgcat.validate_s"] == 0.0


def test_tracer_fails_on_a_missing_entry_point(monkeypatch):
    from dgglue import cli
    original = cli.main
    monkeypatch.setattr(spans, "SPANNED", spans.SPANNED + (
        ("twisted.tw_hom", "dgglue.twisted", "renamed_tw_hom"),))
    tracer = spans.Tracer()
    with pytest.raises(LookupError, match="renamed_tw_hom"):
        tracer.install()
    tracer.uninstall()
    assert cli.main is original
