"""Pin the reports of every document the benchmark can generate.

    PYTHONPATH=src python3 perfbench/pin.py

Run it from the repository root, and only at a commit whose reports are the
reference: the oracle fails every later report whose bytes differ.

1. Catalogue.  For each complex-cubes class (acyclic or not) it keeps the
   first CATALOGUE_SIZE sub-seeds whose F_7 tensor cube is large
   (CELLS: sum over degrees of rows x cols of the totalization's
   differential; at most MAX_BYTES of document), spends at least ELIM_SHARE
   of a traced check-acyclic in linalg.elim, and takes, at reference speed
   (calibrate.py), a time within BAND of TARGET_S.  The band fixes
   the pass cost whatever the seed picks; the share keeps the workload
   elimination-bound.
2. Pins.  It builds every document any seed can produce (every pool entry),
   runs each command once, serially, through `dgglue.cli.main`, checks the
   construction rules of the oracle, and records each report's SHA-256.

Both go to pins.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time

import inputs
import oracle

CELLS = (500_000, 3_000_000)
MAX_BYTES = 6_000_000
ELIM_SHARE = 0.33
TARGET_S = 0.45         # check-acyclic, at reference speed
BAND = 0.15
CATALOGUE_SIZE = 6
SEARCH_LIMIT = 400


def differential_cells(cube):
    from dgglue.hypercube import totalize
    t = totalize(cube)
    return sum(t.dim(k) * t.dim(k + 1) for k in t.degrees())


def check_acyclic_cost(path, tmp):
    """(scaled seconds, best of 2; traced share of linalg.elim)."""
    import calibrate
    import spans
    from dgglue import cli
    argv = ["check-acyclic", "--in", path, "--out",
            os.path.join(tmp, "report.json")]
    best = None
    for _ in range(2):
        before = calibrate.seconds(3)
        t0 = time.perf_counter()
        cli.main(argv)
        wall = time.perf_counter() - t0
        t = calibrate.scale(wall, before, calibrate.seconds(3))
        best = t if best is None else min(best, t)
    tracer = spans.Tracer()
    try:
        tracer.install()
        t0 = time.perf_counter()
        cli.main(argv)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, tracer.counters)
    return best, m["linalg.elim_s"] / traced


def search_catalogue(tmp):
    from dgglue import io as dio
    catalogue = {}
    path = os.path.join(tmp, "cube.json")
    for acyclic in (True, False):
        base = 300_000 + (50_000 if not acyclic else 0)
        found = []
        for sub in range(base, base + SEARCH_LIMIT):
            cube = inputs.tensor_cube(acyclic, sub)
            if not CELLS[0] <= differential_cells(cube) <= CELLS[1]:
                continue
            data = dio.dump_json(inputs.tensor_cube_doc(cube)) + "\n"
            if len(data) > MAX_BYTES:
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data)
            cost, share = check_acyclic_cost(path, tmp)
            print(f"  sub {sub}: {cost:.3f} s, elimination {share:.0%}",
                  flush=True)
            if share >= ELIM_SHARE and abs(cost / TARGET_S - 1) <= BAND:
                found.append(sub)
                if len(found) == CATALOGUE_SIZE:
                    break
        if len(found) < CATALOGUE_SIZE:
            raise SystemExit(f"only {len(found)} cubes for acyclic={acyclic}")
        catalogue[inputs.catalogue_key(acyclic)] = found
        print(f"catalogue acyclic={acyclic}: {found}", flush=True)
    return catalogue


def pin_reports(catalogue, tmp):
    from dgglue import cli
    reports = {}
    for workload in inputs.WORKLOADS:
        out = os.path.join(tmp, workload)
        os.makedirs(out)
        built = inputs.build(workload, lambda pool, k: list(pool), out,
                             catalogue)
        verdicts = {}
        for spec in built.commands:
            if spec["pin"] in reports:
                continue
            argv = [os.path.join(out, a) if a == spec["doc"] else a
                    for a in spec["argv"]]
            if "--parallel" in argv:    # pin the serial report
                i = argv.index("--parallel")
                del argv[i:i + 2]
            path = os.path.join(out, "report.json")
            rc = cli.main(argv + ["--out", path])
            with open(path, "rb") as fh:
                report = fh.read()
            digest = hashlib.sha256(report).hexdigest()
            reasons = oracle.check_command(spec, rc, report,
                                           {spec["pin"]: digest})
            if reasons:
                raise SystemExit(f"{spec['id']}: {'; '.join(reasons)}")
            verdicts[spec["id"]] = oracle.verdict_of(report)
            reports[spec["pin"]] = digest
        bad = oracle.check_agreement(
            [s for s in built.commands if s["id"] in verdicts], verdicts)
        if bad:
            raise SystemExit(f"{workload}: {bad}")
        print(f"{workload}: {len(built.docs)} documents, "
              f"{len(reports)} reports pinned so far", flush=True)
    return reports


def main():
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        catalogue = search_catalogue(tmp)
        reports = pin_reports(catalogue, tmp)
    with open(inputs.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"catalogue": catalogue, "reports": reports}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
