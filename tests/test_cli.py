"""Suite runner and CLI: verdict assembly, ledger behavior, exit codes,
report formats, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from riemcheck.catalog import load
from riemcheck.cli import main
from riemcheck.suites import run_suite


def test_run_suite_paper31_selected_checks_pass():
    report = run_suite(load("paper-3.1"),
                       suite=["riemannian_map", "anti_invariant", "clairaut_source"],
                       points=40)
    assert [c.verdict for c in report.checks] == ["PASS", "PASS", "PASS"]
    assert report.exit_code() == 0


def test_run_suite_euclidean_kahler():
    report = run_suite(load("euclidean-kahler"), suite=["kahler", "soliton"])
    assert all(c.verdict == "PASS" for c in report.checks)
    assert report.exit_code() == 0


def test_run_suite_paper31_kahler_fails_and_ledgers():
    report = run_suite(load("paper-3.1"), suite=["kahler"], points=30)
    assert report.checks[0].verdict == "FAIL"
    assert report.checks[0].max_residual >= 0.99
    assert report.exit_code() == 1
    assert any(e["check"] == "kahler" for e in report.ledger)


def test_full_paper31_run_exits_zero_with_ledger():
    report = run_suite(load("paper-3.1"), points=40)
    assert report.exit_code() == 0
    ledger_checks = {e["check"] for e in report.ledger}
    assert "kahler" in ledger_checks
    assert "ricci_values" in ledger_checks
    # the Ricci entries carry the engine's computed values
    entry = next(e for e in report.ledger if e["check"] == "ricci_values")
    rows = entry["detail"]["terms"]["entries"]
    stated = {(r["pair"][0], r["pair"][1]): r for r in rows}
    assert stated[("U1", "U1")]["engine"] == pytest.approx(-3.0, abs=1e-8)
    assert stated[("U1", "U1")]["matches"] == "sign-flipped"
    assert stated[("U1", "U2")]["engine"] == pytest.approx(0.0, abs=1e-8)
    assert stated[("U1", "U2")]["matches"] == "none"


def test_machine_report_round_trip():
    report = run_suite(load("gaussian-soliton"))
    text = report.to_machine()
    parsed = json.loads(text)
    assert parsed == json.loads(json.dumps(report.to_dict()))
    assert parsed["schema"] == "riemcheck-report/1"
    assert parsed["config"]["spec"] == "gaussian-soliton"


def test_empty_suite_gives_header_only_report():
    report = run_suite(load("gaussian-soliton"), suite=[])
    assert report.checks == [] and report.audits == []
    human = report.to_human()
    assert "seed=" in human and "convention" in human
    machine = json.loads(report.to_machine())
    assert machine["checks"] == []


def test_determinism_same_seed_byte_identical():
    a = run_suite(load("paper-3.1"), points=30, seed=7).to_machine()
    b = run_suite(load("paper-3.1"), points=30, seed=7).to_machine()
    assert a == b
    c = run_suite(load("paper-3.1"), points=30, seed=8).to_machine()
    assert a != c  # different seed must actually change the samples


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "paper-3.1" in out and "flat-lagrangian" in out


def test_cli_catalog_run_machine(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["catalog", "run", "gaussian-soliton", "--machine",
                 "--report", str(path)])
    assert code == 0
    parsed = json.loads(path.read_text())
    assert parsed["counts"]["PASS"] >= 3


def test_cli_check_file_and_exit_codes(tmp_path, capsys):
    spec = tmp_path / "flat.spec"
    spec.write_text("""
manifold M
  coords x1 x2
  metric diag 1, 1
end
vectorfield zero on M = 0, 0
check
  suite metric soliton
  soliton field zero alpha 1 lambda 0
end
""")
    assert main(["check", str(spec)]) == 0
    # a genuinely failing suite: flat metric is not Einstein with lambda -1
    spec2 = tmp_path / "bad.spec"
    spec2.write_text("""
manifold M
  coords x1 x2
  metric diag 1, 1
end
vectorfield zero on M = 0, 0
check
  suite soliton
  soliton field zero alpha 1 lambda -1
end
""")
    assert main(["check", str(spec2)]) == 1
    capsys.readouterr()


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("manifold M\n  coords x1\n  metric diag 1, 1\nend\n")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.spec")]) == 2
    assert main(["catalog", "run", "no-such-entry"]) == 2
    # map-dependent check on a map-less configuration is a config error
    assert main(["catalog", "run", "euclidean-kahler", "--suite",
                 "riemannian_map"]) == 2
    capsys.readouterr()


def test_cli_infeasible_chart_is_config_error(tmp_path, capsys):
    spec = tmp_path / "empty.spec"
    spec.write_text("""
manifold Mfar
  coords x1 x2
  metric diag 1, 1
  constraint positive x1 - 5
end
check
  suite metric
end
""")
    assert main(["check", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "chart Mfar" in err


@pytest.mark.parametrize("spec_points,argv,count", [
    (0, [], 0),
    (50, ["--points", "0"], 0),
    (50, ["--points", "-3"], -3),
], ids=["spec-line-0", "flag-0", "flag-negative"])
def test_cli_point_count_below_one_is_config_error(tmp_path, capsys, spec_points, argv, count):
    spec = tmp_path / "few.spec"
    spec.write_text(f"""
manifold M
  coords x1 x2
  metric diag 1, 1
end
check
  suite metric
  points {spec_points}
end
""")
    assert main(["check", str(spec), *argv]) == 2
    assert capsys.readouterr().err == (
        f"riemcheck: configuration error: points {count}: at least one sample point "
        "is needed\n")
    assert main(["catalog", "run", "paper-3.1", *(argv or ["--points", "0"])]) == 2
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize("box,argv,error", [
    ("nan 1", [], "box nan 1.0: the bounds must be finite, the first below the second"),
    ("1 0.1", [], "box 1.0 0.1: the bounds must be finite, the first below the second"),
    ("0.1 1", ["--tol", "inf"], "tol inf: the tolerance must be finite and at least 0"),
    ("0.1 1", ["--tol", "nan"], "tol nan: the tolerance must be finite and at least 0"),
], ids=["box-nan", "box-reversed", "tol-inf", "tol-nan"])
def test_cli_tolerance_and_box_are_checked_once_as_config_errors(tmp_path, capsys, box, argv,
                                                                   error):
    """A non-finite box bound or one above the other, and a tolerance that is
    not finite, are spec errors with exit code 2, before any check runs: a NaN
    box used to escape as a traceback from the sampler, and an infinite or
    NaN tolerance to pass an infinite residual or fail every tolerance check
    while `metric` passed."""
    spec = tmp_path / "box.spec"
    spec.write_text(f"""
manifold M
  coords x1 x2
  metric diag 1, 1
end
check
  suite metric soliton
  soliton grad f alpha 1 lambda 0
  box {box}
end
function f on M = 0.5*(x1^2 + x2^2)
""")
    assert main(["check", str(spec), *argv]) == 2
    assert capsys.readouterr().err == f"riemcheck: configuration error: {error}\n"


def test_cli_geodesic_verb(tmp_path, capsys):
    from riemcheck.catalog import CATALOG
    spec = tmp_path / "rev.spec"
    spec.write_text(CATALOG["revolution-surface"])
    code = main(["geodesic", str(spec), "--from", "0.3,0.2", "--dir", "0.6,0.25",
                 "--t", "2.0", "--dt", "0.001", "--monitor", "clairaut"])
    out = capsys.readouterr().out
    assert code == 0
    assert "geodesic" in out and "PASS" in out


def test_cli_geodesic_verb_takes_no_suite(tmp_path, capsys):
    """The geodesic verb runs the geodesic check only, so argparse rejects
    --suite rather than accept and overwrite it."""
    spec = tmp_path / "flat.spec"
    spec.write_text(FLAT_GEODESIC.format(line="from 0.5,0.5 dir 1,0"))
    with pytest.raises(SystemExit) as exc:
        main(["geodesic", str(spec), "--from", "0.5,0.5", "--dir", "1,0", "--suite", "metric"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --suite metric" in capsys.readouterr().err


def test_cli_malformed_check_line_is_a_config_error(tmp_path, capsys):
    """A check line missing words exits 2 with the line's number, not with a
    traceback and the exit code of a FAIL verdict."""
    spec = tmp_path / "short.spec"
    spec.write_text(FLAT_GEODESIC.format(line="from 0.5,0.5 dir 1,0").replace(
        "  suite geodesic metric", "  suite metric\n  expect ricci A B"))
    assert main(["check", str(spec)]) == 2
    assert capsys.readouterr().err == (
        "riemcheck: configuration error: line 8: expect ricci wants NAME NAME VALUE\n")


@pytest.mark.parametrize("line,what", [
    ("soliton field nosuch alpha 1 lambda 0", "field"),
    ("soliton grad nosuch alpha 1 lambda 0", "function"),
    ("restrict W nosuch", "field"),
    ("conformal field nosuch", "field"),
    ("conformal grad nosuch", "function"),
    ("clairaut source nosuch", "function"),
    ("expect ricci nosuch W 1", "field"),
    ("expect ricci W nosuch 1", "field"),
], ids=["soliton-field", "soliton-grad", "restrict", "conformal-field", "conformal-grad",
        "clairaut", "expect-ricci-first", "expect-ricci-second"])
def test_cli_unknown_check_block_name_is_a_config_error_naming_its_line(tmp_path, capsys,
                                                                        line, what):
    """A name in the check block that no declaration gives exits 2 with its
    line number and what is unknown, even when no listed check reads it."""
    spec = tmp_path / "names.spec"
    spec.write_text(f"""manifold M
  coords x1 x2
  metric diag 1, 1
end
vectorfield W on M = 1, 0
check
  suite metric
  {line}
end
""")
    assert main(["check", str(spec)]) == 2
    assert capsys.readouterr().err == (
        f"riemcheck: configuration error: line 8: unknown {what} 'nosuch' on M\n")


def test_cli_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RIEMCHECK_SEED", "11")
    path1 = tmp_path / "a.json"
    main(["catalog", "run", "gaussian-soliton", "--machine", "--report", str(path1)])
    parsed = json.loads(path1.read_text())
    assert parsed["config"]["seed"] == 11


FLAT_GEODESIC = """
manifold P
  coords x y
  metric diag 1, 1
end
check
  suite geodesic metric
  geodesic {line} t 0.5 dt 0.01
end
"""


@pytest.mark.parametrize("line,got", [
    ("from 0.5,0.5,0.9 dir 1,0", ("from", "3")),
    ("from 0.5 dir 1,0", ("from", "1")),
    ("from 0.5,0.5 dir 1,0,0", ("dir", "3")),
    ("dir 1,0", ("from", "none")),
    ("from 0.5,0.5", ("dir", "none")),
], ids=["from-3-values", "from-1-value", "dir-3-values", "no-from", "no-dir"])
def test_cli_geodesic_values_must_match_the_chart_dimension(tmp_path, capsys, line, got):
    """A geodesic start or direction with too few, too many or no values is a
    spec error naming the key, the chart dimension and the count given."""
    spec = tmp_path / "flat.spec"
    spec.write_text(FLAT_GEODESIC.format(line=line))
    assert main(["check", str(spec)]) == 2
    key, count = got
    assert capsys.readouterr().err == (
        f"riemcheck: configuration error: geodesic {key} needs 2 values, the dimension "
        f"of chart P; got {count}\n")
