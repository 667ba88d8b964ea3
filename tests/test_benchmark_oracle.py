"""The benchmark's frozen oracle as a regression guard: every entry of every
`perfbench/workloads.py` workload, run at the reference seed with its
workload's point count, must match `perfbench/expected.json` in verdicts,
gates, ledger ids, exit code and `max_residual` (to 1e-12 relative)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from riemcheck import suites
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


def test_a_traced_run_writes_the_same_report_bytes(monkeypatch):
    """`--trace 1` wraps the engine's entry points with `worker.instrument`:
    every name it wraps must exist, and a traced run must write the bytes of
    an untraced one."""
    monkeypatch.setitem(sys.modules, "expect", expect)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    worker, spans = _module("worker"), _module("spans")

    def report():
        return suites.run_suite(load("flat-lagrangian"), points=4, seed=7).to_machine()

    untraced = report()
    tracer = spans.Tracer()
    try:
        worker.instrument(tracer)
        traced = report()
    finally:
        tracer.restore()
    assert tracer.totals()["suites.run_suite"][0] == 1
    assert traced == untraced
