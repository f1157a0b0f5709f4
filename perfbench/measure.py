"""Closed-loop measurement of one workload run, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/measure.py --dir DIR --seconds S \
        --trace 0|1 [--spans FILE]

DIR holds the documents and `manifest.json` written by `inputs.py`.  A single
client runs the manifest's command list (one pass) through
`dgglue.cli.main([...])` in-process, one command at a time, and repeats
passes until the next one would take the measured time past S seconds at
reference speed (see calibrate.py), with at least one pass of each kind and
at least MIN_SAMPLES untraced command latencies.  Measuring reference-speed
time, rather than wall time, keeps the number of passes, and so the tail's
percentile, the same from run to run on a machine whose speed drifts.
After each pass, outside the timed region, the oracle checks every report.
With --trace 1, passes alternate between untraced and traced; the traced
ones give the per-layer metrics and the overhead of tracing.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibrate
import oracle
import spans

TAIL_BEYOND = 10
# A run measures at least this many untraced command latencies, so that the
# tail (rank n - TAIL_BEYOND) is at least p66.7.
MIN_SAMPLES = 3 * TAIL_BEYOND

# Span names (or counters) that must record calls in a traced run of each
# workload; zero calls means a wrapper missed a copy of the entry point.
EXPECTED = {
    "glue-ladder": (
        "cli.main", "cli.run", "io.parse", "io.dump", spans.ELIM,
        "linalg.matmul", "linalg.quotient_maps", "complexes.cohomology",
        "complexes.induced_map", "hypercube.totalize",
        "hypercube.bimodule_cube", "hypercube.push_functor",
        "hypercube.defect", "dgcat.compose_functors", spans.COMPOSE,
        "glue.gac", spans.COMP_TABLE, "glue.pi_comparison",
        "twisted.tw_hom"),
    "glue-ladder-par2": ("cli.main", "cli.run", "io.parse", "io.dump",
                         "hypercube.defect", "dgcat.compose_functors"),
    "complex-cubes": ("cli.main", "cli.run", "io.parse", "io.dump",
                      spans.ELIM, "complexes.cohomology",
                      "hypercube.totalize", "hypercube.defect"),
    "build-validate": (
        "cli.main", "cli.run", "io.parse", "io.dump", spans.ELIM,
        "filtlab.refinement_square", "filtlab.proj_dgcat",
        "filtlab.auslander", "filtlab.fil_coords", "dgcat.validate",
        spans.COMPOSE, spans.COMP_MATRIX, "hypercube.defect"),
}


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count): the value at rank n - 10 of
    the n sorted samples, so exactly ten samples lie above it.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(latencies)[rank - 1], 100.0 * rank / n, n


def end_to_end(passes):
    """pass_s, latency_s.p50 and latency_s.tail of a run's untraced passes.

    p50 and the tail rule are taken over every (pass, command) latency of
    the run, so the tail lies well beyond the median once a run has a few
    passes.  pass_s is the median over passes of the sum of the pass's
    latencies.  Also returns the tail's percentile and sample count.
    """
    samples = [t for p in passes for t in p["latencies"]]
    tail_s, pct, n = tail(samples)
    return ({"pass_s": statistics.median(sum(p["latencies"])
                                         for p in passes),
             "latency_s.p50": statistics.median(samples),
             "latency_s.tail": tail_s}, pct, n)


def run_pass(cli, commands, doc_dir, report_dir, label, tracer=None):
    """One pass over the command list.

    Returns (latencies, raw, codes): each command's wall time scaled to
    reference speed by the calibrations timed just before and just after it;
    the unscaled wall times; the exit codes.
    """
    latencies = []
    raw = []
    codes = []
    cal = calibrate.seconds()
    for i, spec in enumerate(commands):
        doc = os.path.join(doc_dir, spec["doc"])
        argv = [doc if a == spec["doc"] else a for a in spec["argv"]]
        argv += ["--out", os.path.join(report_dir, f"{i}.json")]
        if tracer is not None:
            tracer.command = f"{label}/{spec['id']}"
            tracer.count("bytes_in", os.path.getsize(doc))
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the loop goes on; the oracle reports the failure
            rc = "raised " + traceback.format_exc().strip().splitlines()[-1]
        wall = time.perf_counter() - t0
        after = calibrate.seconds()
        latencies.append(calibrate.scale(wall, cal, after))
        raw.append(wall)
        cal = after
        codes.append(rc)
    return latencies, raw, codes


def check_pass(commands, codes, report_dir, pins):
    """Oracle verdicts for one pass: {command id: [reasons]} of failures."""
    failures = {}
    verdicts = {}
    for i, (spec, rc) in enumerate(zip(commands, codes)):
        path = os.path.join(report_dir, f"{i}.json")
        report = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                report = fh.read()
            os.remove(path)
        reasons = oracle.check_command(spec, rc, report, pins)
        verdicts[spec["id"]] = oracle.verdict_of(report)
        if reasons:
            failures[spec["id"]] = reasons
    for cid, reason in oracle.check_agreement(commands, verdicts).items():
        failures.setdefault(cid, []).append(reason)
    return failures


def peak_rss_mb():
    """Own peak RSS plus that of the largest (pool worker) child, if any."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)["reports"]
    import dgglue.cli as cli

    workload = manifest["workload"]
    commands = manifest["commands"]
    parallel = max(int(s["argv"][s["argv"].index("--parallel") + 1])
                   if "--parallel" in s["argv"] else 1 for s in commands)
    report_dir = os.path.join(args.dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    passes = {kind: [] for kind in kinds}
    attempted = failed = 0
    failures = {}
    trace_error = None

    gc.collect()
    elapsed = 0.0       # measured seconds at reference speed
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        traced = kind == "traced"
        if traced:
            tracer.counters.clear()
            first = len(tracer.spans)
            try:
                tracer.install()
            except LookupError as exc:
                trace_error = str(exc)
                tracer.uninstall()
        try:
            latencies, raw, codes = run_pass(
                cli, commands, args.dir, report_dir, str(k),
                tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record = {"latencies": latencies, "raw": raw}
        elapsed += sum(latencies)
        if traced:
            record["spans"] = (first, len(tracer.spans))
            record["counters"] = dict(tracer.counters)
        passes[kind].append(record)
        attempted += len(commands)
        bad = check_pass(commands, codes, report_dir, pins)
        failed += len(bad)
        for cid, reasons in bad.items():
            failures.setdefault(cid, set()).update(reasons)
        gc.collect()
        k += 1
        nxt = passes[kinds[k % len(kinds)]]
        expect = sum((nxt or passes[kind])[-1]["latencies"])
        measured = len(passes["untraced"]) * len(commands)
        if all(passes.values()) and measured >= MIN_SAMPLES and \
                elapsed + expect > args.seconds:
            break

    result = {"workload": workload, "attempted": attempted,
              "failed": failed,
              "failures": {cid: sorted(r) for cid, r in failures.items()},
              "commands_per_pass": len(commands),
              "parallel": parallel, "notes": []}
    untraced = passes["untraced"]
    result["end_to_end"], result["tail_percentile"], result["samples"] = \
        end_to_end(untraced)
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    result["passes"] = len(untraced)
    result["pass_times"] = [sum(p["raw"]) for p in untraced]
    if args.trace:
        own = spans.self_times(tracer.spans)
        per_pass = [spans.layer_metrics(tracer.spans[a:b], p["counters"],
                                        own[a:b])
                    for p in passes["traced"] for a, b in [p["spans"]]]
        layer = {m: statistics.median(v[m] for v in per_pass)
                 for m in per_pass[0]}
        traced_s = statistics.median(sum(p["latencies"])
                                     for p in passes["traced"])
        untraced_s = result["end_to_end"]["pass_s"]
        layer["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        layer["trace.traced_pass_s"] = traced_s
        result["per_layer"] = layer
        result["traced_passes"] = len(passes["traced"])
        counted = {span[0] for span in tracer.spans} | {
            name for p in passes["traced"]
            for name, value in p["counters"].items() if value}
        silent = [name for name in EXPECTED[workload]
                  if name not in counted]
        if silent and trace_error is None:
            trace_error = ("expected entry points recorded no calls: "
                           + ", ".join(silent))
        if trace_error is not None:
            result["trace_error"] = trace_error
        if parallel > 1:    # pool workers record into their own memory
            result["notes"].append(
                "spans are parent-side only: the --parallel pool workers' "
                "calls are not recorded")
        if args.spans:
            tracer.write(args.spans)
            result["notes"].append(f"{len(tracer.spans)} spans written to "
                                   f"{args.spans}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
