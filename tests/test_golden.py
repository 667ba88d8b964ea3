"""Golden catalog reports: every `riemcheck catalog run ENTRY --machine
--seed 7` report must match its committed copy in tests/golden byte for byte.

A change that moves report bytes on purpose regenerates the copies with

    for e in $(riemcheck catalog list); do
        riemcheck catalog run $e --machine --seed 7 > tests/golden/$e.json
    done

and says which values changed and why.
"""

from pathlib import Path

import pytest

from riemcheck.catalog import names
from riemcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("entry", names())
def test_catalog_report_matches_its_golden_copy(entry, capsys):
    main(["catalog", "run", entry, "--machine", "--seed", "7"])
    assert capsys.readouterr().out == (GOLDEN / f"{entry}.json").read_text()
