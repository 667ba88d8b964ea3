"""The benchmark's frozen oracle as a regression guard: every entry of every
`perfbench/workloads.py` workload, run at the reference seed with its
workload's point count, must match `perfbench/expected.json` in verdicts,
gates, ledger ids, exit code and `max_residual` (to 1e-12 relative)."""

import importlib.util
import json
from pathlib import Path

import pytest

from riemcheck.catalog import load
from riemcheck.suites import run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


expect = _module("expect")
workloads = _module("workloads")
CASES = [(wl, entry) for wl, spec in workloads.WORKLOADS.items() for entry in spec["entries"]]


@pytest.mark.parametrize("workload, entry", CASES)
def test_entry_matches_frozen_benchmark_result(workload, entry):
    report = run_suite(load(entry), points=workloads.WORKLOADS[workload]["points"],
                       seed=workloads.REFERENCE_SEED)
    got = expect.reference(json.loads(report.to_machine()), report.exit_code())
    want = expect.load_expected()["workloads"][workload][entry]
    assert expect.compare(want, got, full=True) == []
