"""Golden catalog reports: every `riemcheck catalog run ENTRY --machine
--seed S` report, for S in 3, 7 and 11, must match its committed copy in
tests/golden/seed-S byte for byte.

A change that moves report bytes on purpose regenerates the copies with

    for s in 3 7 11; do
        for e in $(riemcheck catalog list); do
            riemcheck catalog run $e --machine --seed $s > tests/golden/seed-$s/$e.json
        done
    done

and says which values changed and why.
"""

from pathlib import Path

import pytest

from riemcheck.catalog import names
from riemcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("entry", names())
def test_catalog_report_matches_its_golden_copy(entry, seed, capsys):
    main(["catalog", "run", entry, "--machine", "--seed", str(seed)])
    assert capsys.readouterr().out == (GOLDEN / f"seed-{seed}" / f"{entry}.json").read_text()
