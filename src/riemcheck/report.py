"""Check reports: structured results, verdict assembly, human and machine
emission.

Machine format is a versioned JSON tree emitted with sorted keys and stable
float repr, so identical configuration + seed produces byte-identical
output.  Ledger entries record discrepancies found by audit checks; they
never affect the exit status.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import CURVATURE_CONVENTION

SCHEMA = "riemcheck-report/1"

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT-APPLICABLE"
PARTIAL = "PARTIAL"
VACUOUS = "VACUOUS"

GLYPHS = {PASS: "ok", FAIL: "XX", NOT_APPLICABLE: "--", PARTIAL: "~~",
          VACUOUS: "()", "LEDGER": "!*"}


def _jsonable(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float) and v != v:  # NaN is not valid strict JSON
        return "nan"
    return v


class CheckResult:
    def __init__(self, ident, verdict, max_residual=None, tol=None,
                 worst_point=None, terms=None, gates=None, notes=None,
                 mode="suite"):
        self.id = ident
        self.verdict = verdict
        self.max_residual = max_residual
        self.tol = tol
        self.worst_point = worst_point
        self.terms = terms or {}
        self.gates = gates or {}
        self.notes = notes or []
        self.mode = mode

    def to_dict(self):
        return _jsonable({
            "id": self.id,
            "verdict": self.verdict,
            "mode": self.mode,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "worst_point": self.worst_point,
            "terms": self.terms,
            "gates": self.gates,
            "notes": list(self.notes),
        })


class CheckReport:
    def __init__(self, spec_name, seed, npoints, tol, box, backend):
        self.spec_name = spec_name
        self.seed = seed
        self.npoints = npoints
        self.tol = tol
        self.box = list(box)
        self.backend = backend
        self.checks = []
        self.audits = []
        self.ledger = []
        self.errors = []

    def add(self, result: CheckResult):
        (self.audits if result.mode == "audit" else self.checks).append(result)

    def add_ledger(self, check_id, summary, detail=None):
        self.ledger.append({"check": check_id, "summary": summary,
                            "detail": _jsonable(detail or {})})

    def counts(self):
        out = {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0, PARTIAL: 0, VACUOUS: 0}
        for c in self.checks:
            out[c.verdict] = out.get(c.verdict, 0) + 1
        return out

    @property
    def failed(self):
        return any(c.verdict == FAIL for c in self.checks)

    def exit_code(self):
        return 1 if self.failed else 0

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "engine": {
                "curvature_convention": CURVATURE_CONVENTION,
                "backend": self.backend,
            },
            "config": {
                "spec": self.spec_name,
                "seed": self.seed,
                "points": self.npoints,
                "tol": self.tol,
                "box": self.box,
            },
            "checks": [c.to_dict() for c in self.checks],
            "audits": [c.to_dict() for c in self.audits],
            "ledger": self.ledger,
            "counts": self.counts(),
            "errors": list(self.errors),
        }

    def to_machine(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def to_human(self) -> str:
        lines = []
        lines.append(f"riemcheck report for {self.spec_name}")
        lines.append(f"  seed={self.seed} points={self.npoints} tol={self.tol:g}"
                     f" box={self.box} backend={self.backend}")
        lines.append(f"  convention: {CURVATURE_CONVENTION}")
        lines.append("")
        width = max([len(c.id) for c in self.checks + self.audits] + [10])
        if self.checks:
            lines.append("checks:")
            for c in self.checks:
                res = "" if c.max_residual is None else f" residual={c.max_residual:.3e}"
                lines.append(f"  [{GLYPHS[c.verdict]}] {c.id.ljust(width)} "
                             f"{c.verdict}{res}")
                for note in c.notes:
                    lines.append(f"        note: {note}")
        if self.audits:
            lines.append("audits (ledger-only, never fail the run):")
            for c in self.audits:
                res = "" if c.max_residual is None else f" residual={c.max_residual:.3e}"
                lines.append(f"  [{GLYPHS['LEDGER']}] {c.id.ljust(width)} "
                             f"{c.verdict}{res}")
        if self.ledger:
            lines.append("discrepancy ledger:")
            for entry in self.ledger:
                lines.append(f"  * {entry['check']}: {entry['summary']}")
        if self.errors:
            lines.append("errors:")
            for e in self.errors:
                lines.append(f"  ! {e}")
        c = self.counts()
        lines.append("")
        lines.append("summary: " + " ".join(f"{k}={v}" for k, v in c.items() if v)
                     + (f" ledger={len(self.ledger)}" if self.ledger else ""))
        return "\n".join(lines) + "\n"
