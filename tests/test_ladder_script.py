"""scripts/ladder.py on its smallest rung.  The script exits non-zero
unless every command, each `validate` included, exits 0 with verdict
true."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ladder_script_smallest_rung():
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ladder.py"), "--m", "4",
         "--n", "3"], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines()[2:]]
    assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
        (tag, "4", "3", command) for tag in ("Q", "F7")
        for command in ("check-acyclic", "check-qff")]
    for row in rows:
        assert float(row[5]) > 0 and float(row[6]) > 0
        # the command's own seconds, inside its interpreter's wall time
        assert 0 < float(row[7]) <= float(row[5])
        # deep validation of the rung's distinct vertex categories
        if row[4] == "check-qff":
            assert float(row[8]) > 0
        else:
            assert row[8] == "-"
