"""Regenerate `perfbench/expected.json` from the engine in this checkout.

    PYTHONPATH=src python3 perfbench/freeze.py

Runs every workload entry once at the reference seed and freezes verdicts,
gates, ledger check ids, exit code and `max_residual`.  Before writing, it
checks the README's stated outcomes (flat-lagrangian passes everything,
paper-3.1 passes with 10 ledger entries) and that the cold-build entries
give the same verdicts and ledgers at 4 points as at their catalog point
count.  Refreeze only for an intended change of results, and say so.
"""

from __future__ import annotations

import json
import sys

from expect import EXPECTED_PATH, compare, reference
from workloads import REFERENCE_SEED, WORKLOADS


def run(entry, points):
    from riemcheck import catalog, suites
    rep = suites.run_suite(catalog.load(entry), points=points, seed=REFERENCE_SEED)
    return reference(json.loads(rep.to_machine()), rep.exit_code())


def readme_problems(ref, entry):
    suite = [c["verdict"] for c in ref["checks"] if c["mode"] == "suite"]
    if entry == "flat-lagrangian":
        if ref["exit_code"] or ref["ledger"] or "FAIL" in suite:
            return ["flat-lagrangian does not pass everything"]
    if entry == "paper-3.1":
        if ref["exit_code"] or len(ref["ledger"]) != 10 or set(suite) != {"PASS"}:
            return ["paper-3.1 does not pass with 10 ledger entries"]
    return []


def main():
    frozen, problems = {}, []
    for name, wl in WORKLOADS.items():
        frozen[name] = {}
        for entry in wl["entries"]:
            ref = run(entry, wl["points"])
            frozen[name][entry] = ref
            problems += readme_problems(ref, entry)
            if wl["points"] is not None:
                problems += [f"{entry} at {wl['points']} points: {p}"
                             for p in compare(run(entry, None), ref, full=False)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "workloads": frozen}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
