"""Correctness oracle: decides whether one command of a pass failed.

A command fails unless it exits 0, its report has the bytes pinned in
`pins.json` (the reports carry no `timing` key, because the benchmark never
passes --timing), its verdict matches the construction, and, where the
manifest asks for them, its violation list is non-empty and its embedded
document equals the one the library builds.  `check_agreement` adds the
cross-command rule that check-acyclic and check-qff agree on a document.
"""

from __future__ import annotations

import hashlib
import json


def check_command(spec, rc, report: bytes, pins) -> list:
    """Reasons why the command described by `spec` failed (empty: passed)."""
    if rc != 0:
        return [f"exit code {rc}"]
    reasons = []
    pinned = pins.get(spec["pin"])
    if pinned is None:
        reasons.append("no pinned report for this document and command")
    elif hashlib.sha256(report).hexdigest() != pinned:
        reasons.append("report bytes differ from the pinned report")
    try:
        body = json.loads(report)
    except ValueError:
        return reasons + ["report is not JSON"]
    if "verdict" in spec:
        got = body.get("verdict")
        if got is not spec["verdict"]:
            reasons.append(f"verdict {got!r}, construction says "
                           f"{spec['verdict']!r}")
    if spec.get("violations") and not body.get("violations"):
        reasons.append("expected a non-empty violation list")
    if "document" in spec:
        from dgglue import io as dio
        got = hashlib.sha256(
            dio.dump_json(body.get("document")).encode()).hexdigest()
        if got != spec["document"]:
            reasons.append("document differs from the library's square")
    return reasons


def verdict_of(report: bytes):
    try:
        return json.loads(report).get("verdict")
    except ValueError:
        return None


def check_agreement(specs, verdicts) -> dict:
    """Commands whose verdict disagrees with another in the same group.

    `verdicts` maps command id to the verdict it reported.  Returns
    {command id: reason} for every member of a group with mixed verdicts.
    """
    groups = {}
    for spec in specs:
        if spec.get("group") is not None:
            groups.setdefault(spec["group"], []).append(spec["id"])
    bad = {}
    for group, ids in groups.items():
        if len({repr(verdicts.get(i)) for i in ids}) > 1:
            for i in ids:
                bad[i] = f"verdicts disagree on {group}"
    return bad
