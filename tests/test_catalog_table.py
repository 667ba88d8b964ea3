"""The README table "What the catalog verifies" against the committed golden
reports, read without running the engine.

Every (entry, seed, check) whose report carries hypothesis gates in
`terms.gates` falls in one class:

- vacuous: the verdict is VACUOUS;
- not applicable: some gate fails;
- 0 = 0: every gate holds and no term is nonzero;
- exercised: every gate holds and some term is nonzero,

where a term of `term_breakdown` is nonzero when its magnitude exceeds the
check's `tol`.  The table must list exactly these classes, with the nonzero
terms, so a change that gains an exercised row writes it down and a change
that loses a nonzero term fails here.
"""

import json
from pathlib import Path

from riemcheck.report import VACUOUS

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
SEEDS = (3, 7, 11)
HEADING = "## What the catalog verifies"


def classify(check):
    """The class of one reported check, with its nonzero terms if any."""
    terms = check["terms"]
    nonzero = sorted(k for k, v in terms.get("term_breakdown", {}).items()
                     if abs(v) > check["tol"])
    if check["verdict"] == VACUOUS:
        kind = "vacuous"
    elif not all(ok for ok, _ in terms["gates"].values()):
        kind = "not applicable"
    else:
        kind = "exercised" if nonzero else "0 = 0"
    return kind + (f" ({', '.join(f'`{k}`' for k in nonzero)})" if nonzero else "")


def golden_classes():
    """{(check, entry, mode): cell}: one class when the three seeds agree,
    else 'seed S: class' for each seed."""
    per_seed = {}
    for seed in SEEDS:
        for path in sorted((GOLDEN / f"seed-{seed}").glob("*.json")):
            report = json.loads(path.read_text())
            for check in report["checks"] + report["audits"]:
                if isinstance(check["terms"], dict) and "gates" in check["terms"]:
                    key = (check["id"], path.stem, check["mode"])
                    per_seed.setdefault(key, {})[seed] = classify(check)
    cells = {}
    for key, classes in per_seed.items():
        got = [classes.get(seed, "absent") for seed in SEEDS]
        cells[key] = got[0] if len(set(got)) == 1 else "; ".join(
            f"seed {seed}: {c}" for seed, c in zip(SEEDS, got))
    return cells


def readme_table():
    """{(check, entry, mode): cell} and {check: abstract result} of the
    README table; a blank result cell continues the row above."""
    lines = (ROOT / "README.md").read_text().splitlines()
    at = lines.index(HEADING)
    start = at + next(i for i, ln in enumerate(lines[at:]) if ln.startswith("|"))
    rows = []
    for ln in lines[start:]:
        if not ln.startswith("|"):
            break
        rows.append([c.strip() for c in ln.strip("|").split("|")])
    cells, results, result = {}, {}, None
    for res, check, entry, mode, cell in rows[2:]:
        result = res or result
        check = check.strip("`")
        assert results.setdefault(check, result) == result, check
        assert (check, entry, mode) not in cells, (check, entry, mode)
        cells[(check, entry, mode)] = cell
    return cells, results


def test_the_readme_table_lists_every_gated_check_of_the_goldens_exactly():
    want, _ = readme_table()
    assert golden_classes() == want


def test_the_readme_table_maps_every_check_to_one_abstract_result():
    _, results = readme_table()
    assert all(results.values())
    assert results["ric_xy"] == results["lric_uv"] == results["cor_ric_xy"]
