"""Frozen expected results and the comparison a benchmark pass must meet.

At the reference seed a report must match the frozen reference in verdicts,
gates, ledger check ids, exit code, and `max_residual` to 1e-12 relative,
with an absolute floor of 1e-4 of the check's tolerance.  At any other seed
only verdicts, ledger check ids and the exit code are compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
REL_TOL = 1e-12
FLOOR_PER_TOL = 1e-4


def _gates(node, prefix, out):
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        if key == "gates" and isinstance(value, dict):
            for gate, state in value.items():
                out[prefix + gate] = bool(state[0] if isinstance(state, list) else state)
        elif isinstance(value, dict):
            _gates(value, f"{prefix}{key}/", out)


def reference(report: dict, exit_code: int) -> dict:
    """The frozen part of a parsed machine report."""
    checks = []
    for c in report["checks"] + report["audits"]:
        gates = {}
        _gates({"gates": c["gates"], "terms": c["terms"]}, "", gates)
        checks.append({"id": c["id"], "mode": c["mode"], "verdict": c["verdict"],
                       "max_residual": c["max_residual"], "tol": c["tol"],
                       "gates": gates})
    return {"exit_code": exit_code,
            "ledger": [e["check"] for e in report["ledger"]],
            "checks": checks}


def _residual_ok(want, got, tol):
    if not isinstance(want, (int, float)) or not isinstance(got, (int, float)):
        return want == got
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    floor = FLOOR_PER_TOL * tol if isinstance(tol, (int, float)) else 0.0
    return abs(got - want) <= max(REL_TOL * abs(want), floor)


def compare(want: dict, got: dict, full: bool) -> list[str]:
    """Mismatches between a frozen reference and a fresh one; `full` adds
    gates and residuals to verdicts, ledger ids and exit code."""
    problems = []
    if got["exit_code"] != want["exit_code"]:
        problems.append(f"exit code {got['exit_code']} != {want['exit_code']}")
    if got["ledger"] != want["ledger"]:
        problems.append(f"ledger {got['ledger']} != {want['ledger']}")
    ids = [(c["id"], c["mode"]) for c in got["checks"]]
    if ids != [(c["id"], c["mode"]) for c in want["checks"]]:
        return problems + [f"check list {ids} differs"]
    for w, g in zip(want["checks"], got["checks"]):
        where = f"{g['id']} ({g['mode']})"
        if g["verdict"] != w["verdict"]:
            problems.append(f"{where}: verdict {g['verdict']} != {w['verdict']}")
        if not full:
            continue
        if g["gates"] != w["gates"]:
            problems.append(f"{where}: gates {g['gates']} != {w['gates']}")
        if not _residual_ok(w["max_residual"], g["max_residual"], w["tol"]):
            problems.append(f"{where}: max_residual {g['max_residual']!r} != "
                            f"{w['max_residual']!r}")
    return problems


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
