"""Fresh-interpreter times of the north-star ladder.

Run from the root of a source checkout as

    python3 scripts/ladder.py [--m 4 5 6 7 8] [--n 3 4]

It builds the refinement squares of k[x]/x^m -> k[x]/x^(m-2) (x-adic
filtration, ideal (x), d = 2; `perfbench/inputs.py`'s `ladder_square`),
extends each by identities to every requested n, and writes the documents
into a temporary directory, over Q and over F_7.  Then it runs
`check-acyclic` and `check-qff` on every rung, each in a fresh interpreter,
REPEAT times, and prints per command the best wall time (interpreter start,
import, read, decide, write) and, of that best run, the peak resident set
size (getrusage(RUSAGE_CHILDREN) in a small timing interpreter that runs only
the command) and the command's own seconds, reading and deciding, from its
report's `--timing` (`cmd_s`; `best_s` less `cmd_s` is mostly interpreter
start-up and import).  Next to `check-qff`'s `cmd_s` it prints `validate_s`:
the `--timing` seconds of `validate --param target=NAME`, best of REPEAT,
summed over one name per distinct vertex-category text of the rung (the
cost of deep validation, to set beside that of the decision).

Stdlib only; this is a measurement, not a benchmark workload, and it checks
only that every command exits 0 with verdict true.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

FIELDS = {"Q": "Q", "F7": {"Fp": 7}}
COMMANDS = ("check-acyclic", "check-qff")
REPEAT = 3


def build(out_dir, ms, ns):
    """Write each rung's document; returns [(tag, m, n, path)]."""
    import inputs
    from dgglue import cli, samples
    from dgglue import io as dio
    from dgglue.fields import field_from_config
    rungs = []
    for tag, cfg in FIELDS.items():
        for m in ms:
            cube = inputs.ladder_square(field_from_config(cfg), m)
            while cube.n < max(ns):
                cube = samples._extend_by_identity(cube)
                if cube.n in ns:
                    path = os.path.join(out_dir,
                                        f"ladder-{tag}-m{m}-n{cube.n}.json")
                    doc = cli._dg_cube_document(
                        cube, params={"cube": f"cube{cube.n}"})
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(dio.dump_json(doc) + "\n")
                    rungs.append((tag, m, cube.n, path))
    return rungs


# Runs one command and prints its wall time and getrusage(RUSAGE_CHILDREN)'s
# peak RSS.  The measuring interpreter stays this small because a child's
# ru_maxrss also counts the image it was forked from.
TIMER = """
import resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.call(sys.argv[1:])
wall = time.perf_counter() - t0
print(code, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def run_once(command, path, out, *params):
    """(wall seconds, peak RSS in MiB, the report's timing seconds) of one
    fresh-interpreter command."""
    line = subprocess.run(
        [sys.executable, "-c", TIMER, sys.executable, "-m", "dgglue.cli",
         command, "--in", path, "--out", out, "--timing", *params],
        env=dict(os.environ, PYTHONPATH=SRC), check=True, text=True,
        stdout=subprocess.PIPE).stdout.split()
    code, wall, rss = int(line[0]), float(line[1]), int(line[2])
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    verdict = report.get("verdict")
    if code != 0 or verdict is not True:
        raise SystemExit(f"{command} {' '.join(params)} on {path}: "
                         f"exit {code}, verdict {verdict!r}")
    # ru_maxrss is in KiB on Linux
    return wall, rss / 1024, report["timing"]["seconds"]


def validate_seconds(path, out):
    """Summed `--timing` seconds, best of REPEAT each, of validating one
    category name per distinct category text of the document."""
    with open(path, encoding="utf-8") as fh:
        categories = json.load(fh)["categories"]
    names = {}
    for name, cat in categories.items():
        names.setdefault(json.dumps(cat, sort_keys=True), name)
    return sum(min(run_once("validate", path, out, "--param",
                            f"target={name}")[2] for _ in range(REPEAT))
               for name in names.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--m", type=int, nargs="+", default=[4, 5, 6, 7, 8])
    parser.add_argument("--n", type=int, nargs="+", default=[3, 4])
    args = parser.parse_args(argv)
    if min(args.m) < 3 or min(args.n) < 3:
        parser.error("the ladder starts at m = 3 and n = 3")
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        rungs = build(tmp, sorted(set(args.m)), set(args.n))
        print(f"built {len(rungs)} documents in "
              f"{time.perf_counter() - t0:.1f} s; best of {REPEAT} runs, "
              f"Python {sys.version.split()[0]}, nproc {os.cpu_count()}")
        print(f"{'field':5} {'m':>2} {'n':>2} {'doc_MB':>7} "
              f"{'command':13} {'best_s':>7} {'peak_MiB':>8} {'cmd_s':>7} "
              f"{'validate_s':>10}")
        out = os.path.join(tmp, "report.json")
        for tag, m, n, path in rungs:
            size = os.path.getsize(path) / 1e6
            for command in COMMANDS:
                wall, rss, cmd = min(run_once(command, path, out)
                                     for _ in range(REPEAT))
                valid = (f"{validate_seconds(path, out):10.3f}"
                         if command == "check-qff" else f"{'-':>10}")
                print(f"{tag:5} {m:2} {n:2} {size:7.2f} {command:13} "
                      f"{wall:7.3f} {rss:8.1f} {cmd:7.3f} {valid}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
