"""The dgglue benchmark: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is not installed, so
every child interpreter gets PYTHONPATH=src.  A run

1. sets up SETUP_REPEATS times, each in a fresh interpreter that imports
   `dgglue.cli` and writes the workload's documents for the seed
   (`inputs.py`); `setup_s` is the median of their wall times, each scaled
   to reference speed by the calibrations around it (`calibrate.py`), and the
   set-ups must write identical documents;
2. measures for S seconds in one more fresh interpreter (`measure.py`): a
   single client runs the workload's command list in a closed loop, and the
   oracle checks every report;
3. prints a human-readable summary and, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.

Documents live in a temporary directory under `.perfbench/`, removed at the
end; traced runs leave their spans in `.perfbench/spans-*.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import spans
from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 3
CAL_REPEATS = 5         # calibrations before and after each set-up
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"pass_s": "s", "latency_s.p50": "s",
                    "latency_s.tail": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
LAYER_UNITS = {metric: unit for metric, unit, _, _ in spans.LAYER_METRICS}
LAYER_UNITS.update({"cli.import_s": "s", "trace.overhead_frac": "ratio",
                    "trace.traced_pass_s": "s"})


def _commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child(args, env, timeout):
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          check=False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dgglue", "cli.py")):
        print("perfbench: src/dgglue/cli.py not found; run from the root of "
              "a dgglue source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH="src")
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=state)
    try:
        setup_s = []
        manifests = []
        for i in range(SETUP_REPEATS):
            out = os.path.join(work, f"setup-{i}")
            cal = calibrate.seconds(CAL_REPEATS)
            t0 = time.perf_counter()
            proc = _child([os.path.join(HERE, "inputs.py"), "--workload",
                           args.workload, "--seed", str(args.seed),
                           "--out", out], env, CHILD_TIMEOUT_S)
            wall = time.perf_counter() - t0
            setup_s.append(calibrate.scale(wall, cal,
                                           calibrate.seconds(CAL_REPEATS)))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print("perfbench: set-up failed", file=sys.stderr)
                return 1
            with open(os.path.join(out, "manifest.json"),
                      encoding="utf-8") as fh:
                manifests.append(json.load(fh))
            if i:
                shutil.rmtree(out)
        deterministic = all(m["docs"] == manifests[0]["docs"] and
                            m["commands"] == manifests[0]["commands"]
                            for m in manifests)
        spans_path = os.path.join(
            state, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        measure = [os.path.join(HERE, "measure.py"),
                   "--dir", os.path.join(work, "setup-0"),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            measure += ["--spans", spans_path]
        proc = _child(measure, env, CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("perfbench: measurement failed", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = res["failed"] == 0 and deterministic and \
        "trace_error" not in res
    if args.trace:
        values = dict(res["per_layer"])
        values["cli.import_s"] = statistics.median(
            m["import_s"] for m in manifests)
        units = LAYER_UNITS
    else:
        values = dict(res["end_to_end"])
        values["setup_s"] = statistics.median(setup_s)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in sorted(units)}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"commit {_commit(root)}")
    print(f"closed loop, 1 client, {res['commands_per_pass']} commands per "
          f"pass, {res['passes']} untraced passes"
          + (f", {res['traced_passes']} traced" if args.trace else "")
          + (f", --parallel {res['parallel']}" if res["parallel"] > 1
             else ""))
    print("untraced pass wall times, unscaled: "
          + " ".join(f"{t:.3f}" for t in res["pass_times"]) + " s")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} commands failed)")
    for cid, reasons in sorted(res["failures"].items()):
        print(f"  FAILED {cid}: {'; '.join(reasons)}")
    if not deterministic:
        print("  FAILED set-ups wrote different documents for one seed")
    if "trace_error" in res:
        print(f"  FAILED {res['trace_error']}")
    for note in res["notes"]:
        print(f"note: {note}")
    for name, m in metrics.items():
        extra = ""
        if name == "latency_s.tail":
            extra = (f"  (p{res['tail_percentile']:.1f} of "
                     f"{res['samples']} command latencies over "
                     f"{res['passes']} passes)")
        elif name == "setup_s":
            extra = f"  (median of {SETUP_REPEATS} set-ups)"
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
