"""End-to-end integration: every catalog entry's declared suite must run
clean (exit 0), with the audit/ledger behavior the two six-dimensional
configurations are known to produce."""

import gc
import math
import sys
import time
import types

import numpy as np
import pytest

from riemcheck.catalog import load, names
from riemcheck.geometry import Chart, MetricField, ricci
from riemcheck.report import FAIL, NOT_APPLICABLE, PARTIAL, PASS
from riemcheck.specfile import load_spec
from riemcheck.suites import run_suite


@pytest.mark.parametrize("name", names())
def test_catalog_entry_runs_clean(name):
    report = run_suite(load(name), points=40)
    assert report.exit_code() == 0, [
        (c.id, c.verdict, c.notes) for c in report.checks if c.verdict == FAIL]
    assert not report.errors, report.errors
    # every executed check appears exactly once
    ids = [(c.id, c.mode) for c in report.checks + report.audits]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("name", names())
def test_a_run_builds_no_chart_and_no_metric(name, monkeypatch):
    """Once its spec is loaded, a run builds nothing symbolic of its own:
    the restricted geometries read the blocks of their parent metric's jets."""
    cfg = load(name)
    built = []
    for cls in (Chart, MetricField):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    run_suite(cfg)
    assert built == []


def test_paper31_audit_expectations():
    report = run_suite(load("paper-3.1"), points=40)
    audits = {a.id: a for a in report.audits}
    assert audits["kahler"].verdict == FAIL
    assert audits["ricci_values"].verdict == FAIL
    assert audits["ric_uv"].verdict == NOT_APPLICABLE  # parallelism gate fails
    assert audits["ric_uv"].max_residual == pytest.approx(4.0, abs=1e-7)
    assert audits["einstein_ker"].verdict == PASS  # flat fibers are Einstein
    gate_vals = audits["ric_uv"].terms["gates"]
    assert gate_vals["kahler_source"][0] is False
    assert gate_vals["clairaut_source"][0] is True


def test_paper41_audit_expectations():
    report = run_suite(load("paper-4.1"), points=40)
    audits = {a.id: a for a in report.audits}
    assert audits["kahler"].verdict == FAIL
    assert audits["ric_fxfy"].verdict == NOT_APPLICABLE
    # the (F2, F2) pair misses by 2 (frozen from the hyperbolic block value)
    assert audits["ric_fxfy"].max_residual == pytest.approx(2.0, abs=1e-7)
    assert audits["einstein_range"].verdict == PASS
    assert audits["einstein_perp"].verdict == PASS


def test_polar_kahler_suite_identities_pass_in_suite_mode():
    report = run_suite(load("polar-kahler"), points=40)
    checks = {c.id: c for c in report.checks}
    assert checks["kahler"].verdict == PASS
    assert checks["ric_uv"].verdict == PASS
    assert checks["ric_ux"].verdict == PASS
    audits = {a.id: a for a in report.audits}
    assert audits["ric_xy"].verdict == FAIL  # the dropped-cross-term gap
    assert any(e["check"] == "ric_xy" for e in report.ledger)


def test_ricci_j_invariance_on_kahler_cases():
    """Ric(JX, JY) = Ric(X, Y) wherever the structure is genuinely parallel;
    on non-parallel configurations the same quantity is reported, not
    asserted (paper-3.1's violates it, which the ledger already records)."""
    for name in ("flat-lagrangian", "polar-kahler", "sphere-2"):
        cfg = load(name)
        chart_name = next(cn for _, (cn, _) in cfg.structures.items())
        g = cfg.metrics[chart_name]
        J = cfg.structure_on(chart_name)
        pts = g.chart.sample_points(20, seed=3, box=cfg.check["box"])
        ric = ricci(g, pts)
        Jv = J.values(pts)
        pulled = np.einsum("pia,pij,pjb->pab", Jv, ric, Jv)
        assert np.max(np.abs(pulled - ric)) <= 1e-8, name
    # non-parallel configuration: the quantity is computed and reported but
    # never asserted (here J permutes the constant-curvature blocks, so the
    # invariance happens to hold numerically even though nabla J != 0)
    cfg = load("paper-3.1")
    g = cfg.metrics["M"]
    J = cfg.structure_on("M")
    pts = g.chart.sample_points(10, seed=3)
    ric = ricci(g, pts)
    Jv = J.values(pts)
    pulled = np.einsum("pia,pij,pjb->pab", Jv, ric, Jv)
    assert np.all(np.isfinite(pulled))


def test_gate_monotonicity():
    """Failing gates can only move a verdict to NOT-APPLICABLE; they never
    flip PASS to FAIL.  Exercised by comparing suite-mode verdicts of the
    same identity under passing gates (polar-kahler) and under a failing
    gate set (paper-3.1)."""
    ok = run_suite(load("polar-kahler"), suite=["ric_uv"], points=20)
    assert ok.checks[0].verdict == PASS
    gated = run_suite(load("paper-3.1"), suite=["ric_uv"], points=20)
    assert gated.checks[0].verdict == NOT_APPLICABLE
    assert gated.checks[0].max_residual > 1.0  # residual still reported


def test_order_independent_report_merge():
    # the same checks in a different order produce the same per-check data
    a = run_suite(load("flat-lagrangian"), suite=["kahler", "oneill"], points=20)
    b = run_suite(load("flat-lagrangian"), suite=["oneill", "kahler"], points=20)
    da = {c.id: c.to_dict() for c in a.checks}
    db = {c.id: c.to_dict() for c in b.checks}
    assert da == db


NO_J = "no source almost complex structure declared"
NO_F = "case has no source dilation f"


@pytest.mark.parametrize("entry, ident, note", [
    *[("revolution-surface", ident, NO_J)
      for ident in ("ric_uv", "ric_ux", "ric_xy", "lric_uv", "lric_xy", "cor_ric_xy",
                    "alpha_soliton_range", "ric_lie")],
    ("paper-4.1", "lric_uv", NO_J),
    ("paper-4.1", "lric_xy", NO_J),
    ("paper-4.1", "alpha_soliton_range", NO_F),
    ("paper-4.1", "ric_lie", NO_F),
])
def test_missing_structure_or_dilation_is_partial(entry, ident, note):
    """An identity whose source structure J or dilation f is not declared is
    unavailable (PARTIAL), not a crash of the whole run."""
    report = run_suite(load(entry), suite=["metric", ident], points=4)
    result = {c.id: c for c in report.checks}[ident]
    assert result.verdict == PARTIAL
    assert result.notes == [f"unavailable: {note}"]
    assert not report.errors


# flat-lagrangian with g_N(d_y2, d_y2) = 1 + 1e-30 sqrt(y1 - 0.5): Ric^range,
# and so the ric_uv residual, is NaN wherever y1 = x3 < 0.5, which first
# happens at sample point 1 (seed 7); every gate holds
NAN_RANGE_SPEC = """
version 1
manifold M
  coords x1 x2 x3 x4
  metric diag 1, 1, 1, 1
end
manifold N
  coords y1 y2 y3 y4
  metric diag 1, 1 + 1e-30*sqrt(y1 - 0.5), 1, 1
end
map L
  source M
  target N
  components x3, x4, 0, 0
end
frames L
  vertical U1 = 1, 0, 0, 0
  vertical U2 = 0, 1, 0, 0
  horizontal X1 = 0, 0, 1, 0
  horizontal X2 = 0, 0, 0, 1
  range R1 = 1, 0, 0, 0
  range R2 = 0, 1, 0, 0
  normal E1 = 0, 0, 1, 0
  normal E2 = 0, 0, 0, 1
end
structure J
  manifold M
  row 0, 0, -1, 0
  row 0, 0, 0, -1
  row 1, 0, 0, 0
  row 0, 1, 0, 0
end
function f on M = 0
check
  seed 7
  points 12
  suite ric_uv
  clairaut source f
end
"""


def test_nonfinite_identity_residual_fails_and_names_its_row():
    report = run_suite(load_spec(NAN_RANGE_SPEC, name="nan-range"))
    result = report.checks[0]
    assert all(ok for ok, _ in result.terms["gates"].values())
    assert result.verdict == FAIL
    assert math.isnan(result.max_residual)
    assert result.worst_point["index"] == 1
    assert result.terms["worst_pair"] == ["u1", "u1"]


# The metric is NaN wherever x1 < 0.5: at 16 of the 40 points drawn at seed 7.
NAN_METRIC_SPEC = """
version 1
manifold M
  coords x1 x2
  metric diag 1, 1 + 1e-30*sqrt(x1 - 0.5)
end
structure J
  manifold M
  row 0, -1
  row 1, 0
end
check
  seed 7
  points 40
  suite kahler hermitian einstein
end
"""

# The declared vertical frame is NaN wherever x1 < 0.5.
NAN_FRAME_SPEC = """
version 1
manifold M
  coords x1 x2
  metric diag 1, 1
end
manifold N
  coords y1
  metric diag 1
end
map F
  source M
  target N
  components x1
end
frames F
  vertical V1 = 0, 1 + 1e-30*sqrt(x1 - 0.5)
  horizontal H1 = 1, 0
  range R1 = 1
end
function f on M = 0
check
  seed 7
  points 40
  suite metric fiber_curvature oneill clairaut_source
  clairaut source f
end
"""


def test_nonfinite_metric_fails_kahler_and_hermitian_with_a_count():
    cfg = load_spec(NAN_METRIC_SPEC, name="nan-metric")
    pts = cfg.charts["M"].sample_points(40, seed=7)
    first = int(np.flatnonzero(pts[:, 0] < 0.5)[0])
    assert np.count_nonzero(pts[:, 0] < 0.5) == 16
    report = run_suite(cfg)
    by_id = {c.id: c for c in report.checks}
    assert [c.verdict for c in report.checks] == [FAIL, FAIL, FAIL]
    kahler, hermitian = by_id["kahler"], by_id["hermitian"]
    assert math.isnan(kahler.max_residual) and math.isnan(hermitian.max_residual)
    assert kahler.worst_point["index"] == first
    assert kahler.notes == [f"source: non-finite residual at 16 of 40 points, "
                            f"first at index {first}"]
    assert hermitian.notes == [f"source_metric: non-finite residual at 16 of 40 "
                               f"points, first at index {first}"]


def test_nonfinite_declared_frame_fails_every_check_that_uses_it():
    report = run_suite(load_spec(NAN_FRAME_SPEC, name="nan-frame"))
    by_id = {c.id: c for c in report.checks}
    assert {k: c.verdict for k, c in by_id.items()} == {
        "metric": FAIL, "fiber_curvature": FAIL, "oneill": FAIL, "clairaut_source": FAIL}
    assert "vertical frame not orthonormal (residual nan)" in by_id["metric"].notes[0]
    assert math.isnan(by_id["fiber_curvature"].max_residual)
    assert math.isnan(by_id["oneill"].terms["T_vertical_sym"])
    assert math.isnan(by_id["clairaut_source"].terms["umbilic_fibers"])
    assert by_id["fiber_curvature"].notes[0].startswith("non-finite residual at 16 of 40 points")


def test_numeric_failure_in_a_check_is_that_checks_fail():
    """The orthonormal frame of a metric that is not positive definite
    raises inside einstein, kahler and hermitian, naming the first point
    where it is not: each check FAILs with the error, the run goes on, and
    the CLI exits 1, not 2."""
    spec = NAN_METRIC_SPEC.replace("1 + 1e-30*sqrt(x1 - 0.5)", "x1 - 0.5").replace(
        "suite kahler hermitian einstein", "suite einstein kahler hermitian")
    cfg = load_spec(spec, name="indefinite")
    pts = cfg.charts["M"].sample_points(40, seed=7)
    first = int(np.flatnonzero(pts[:, 0] < 0.5)[0])
    report = run_suite(cfg)
    assert [c.verdict for c in report.checks] == [FAIL, FAIL, FAIL]
    for c in report.checks:
        assert c.notes == [f"error: orthonormal frame of the metric: not positive definite "
                           f"at point {first} {pts[first].tolist()}"]
    assert [e.split(":")[0] for e in report.errors] == ["einstein", "kahler", "hermitian"]
    assert report.exit_code() == 1


def test_geodesic_fails_when_a_step_never_converges(monkeypatch):
    from riemcheck import suites
    from riemcheck.geometry import geodesic_integrate

    monkeypatch.setattr(suites, "geodesic_integrate",
                        lambda *a, **kw: geodesic_integrate(*a, energy_tol=0.0, **kw))
    cfg = load("sphere-2")
    cfg.check["geodesic"].update({"dir": [0.3, 1.0], "t": 0.002})
    result = run_suite(cfg, suite=["geodesic"]).checks[0]
    assert result.verdict == FAIL
    assert result.notes[0].endswith(" steps still drift above the energy tolerance "
                                    "after 12 halvings")


def test_a_geodesic_that_never_converges_fails_at_its_sub_step_budget(monkeypatch):
    """With the Christoffel symbols' sign flipped every step drifts, and each
    would run all 8,191 sub-steps of its 12 halvings: the 10,000-step
    integration stops at its budget of 8 * 10,000 + 2**14 sub-steps, in the
    twelfth step, and the check FAILs naming the time it reached."""
    from riemcheck.geometry import TensorField

    cfg = load("revolution-surface")
    g = cfg.metrics["S"]
    gamma = g.christoffel()
    monkeypatch.setattr(g, "christoffel",
                        lambda: TensorField(g.chart, gamma.sig, -gamma.comps))
    start = time.perf_counter()
    result = run_suite(cfg, suite=["geodesic"]).checks[0]
    assert time.perf_counter() - start < 10.0
    assert result.verdict == FAIL
    assert result.notes == ["error: geodesic used up its budget of 96384 RK4 "
                            f"sub-steps at t={sum([0.001] * 11)!r}"]


def _revolution(*edits):
    """revolution-surface with (old, new) text replacements applied."""
    from riemcheck.catalog import REVOLUTION_SURFACE
    text = REVOLUTION_SURFACE
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return load_spec(text, name="revolution-variant")


WRONG_F = ("function f on S = log(2+sin(u))", "function f on S = 3*u")
NO_VERTICAL = ("  vertical V1 = 0, 1/(2+sin(u))\n", "")
NO_FRAMES = ("frames P\n  vertical V1 = 0, 1/(2+sin(u))\n  horizontal H1 = 1, 0\n"
             "  range R1 = 1\nend\n", "")


@pytest.mark.parametrize("frames", [(), (NO_VERTICAL,), (NO_FRAMES,)],
                         ids=["declared", "horizontal-only", "undeclared"])
def test_clairaut_monitor_fails_on_a_wrong_dilation(frames):
    """e^{3u} sin(theta) is not constant along a geodesic of the surface of
    revolution; with the vertical frame undeclared it must come from the
    kernel of the Jacobian, not read as empty (sin(theta) = 0 everywhere)."""
    result = run_suite(_revolution(WRONG_F, *frames), suite=["geodesic"]).checks[0]
    assert result.verdict == FAIL
    assert result.terms["clairaut_invariant_drift"] > 1.0


@pytest.mark.parametrize("frames", [(NO_VERTICAL,), (NO_FRAMES,)],
                         ids=["horizontal-only", "undeclared"])
def test_clairaut_invariant_from_the_kernel_equals_the_declared_frames(frames):
    from riemcheck.geometry import geodesic_integrate
    from riemcheck.suites import clairaut_invariant

    declared, bare = _revolution(), _revolution(*frames)
    geo = declared.check["geodesic"]
    g = declared.metrics["S"]
    traj = geodesic_integrate(g, np.array(geo["from"]), np.array(geo["dir"]),
                              t_end=geo["t"], dt=geo["dt"])
    inv = [clairaut_invariant(cfg.map_geometry(), cfg.functions[("S", "f")], traj.xs, traj.vs)
           for cfg in (declared, bare)]
    assert np.max(np.abs(inv[0] - inv[1])) <= 1e-12
    assert np.ptp(inv[0]) <= 1e-6


def test_nonfinite_clairaut_invariant_fails_and_names_its_point():
    """f is NaN wherever u < 0.35, which includes the start point u = 0.3."""
    cfg = _revolution(("function f on S = log(2+sin(u))",
                       "function f on S = log(2+sin(u)) + 1e-30*log(u - 0.35)"))
    result = run_suite(cfg, suite=["geodesic"]).checks[0]
    assert result.verdict == FAIL
    assert math.isnan(result.max_residual)
    assert len(result.notes) == 1
    assert result.notes[0].startswith("non-finite Clairaut invariant at ")
    assert result.notes[0].endswith(" of 10001 trajectory points, first at t=0")


def test_clairaut_monitor_makes_no_split_at_call(monkeypatch):
    from riemcheck.rmap import MapGeometry

    calls = []
    split_at = MapGeometry.split_at
    monkeypatch.setattr(MapGeometry, "split_at",
                        lambda self, x, *a, **kw: calls.append(x) or split_at(self, x, *a, **kw))
    cfg = load("revolution-surface")
    cfg.check["geodesic"]["t"] = 0.5
    result = run_suite(cfg, suite=["geodesic"]).checks[0]
    assert result.verdict == PASS and "clairaut_invariant_drift" in result.terms
    assert calls == []


def test_a_run_splits_each_point_set_once_and_never_point_by_point(monkeypatch):
    """Every catalog run with a map splits one point set, its 12 sample
    points, once."""
    from riemcheck.rmap import MapGeometry

    splits, split_at = [], []
    real_split, real_split_at = MapGeometry._split, MapGeometry.split_at
    monkeypatch.setattr(MapGeometry, "_split", lambda self, pts: splits.append(
        pts.tobytes()) or real_split(self, pts))
    monkeypatch.setattr(MapGeometry, "split_at", lambda self, x, *a, **kw: split_at.append(
        x) or real_split_at(self, x, *a, **kw))
    for entry in names():
        splits.clear()
        cfg = load(entry)
        report = run_suite(cfg, points=12)
        assert not report.errors, entry
        F = cfg.the_map()
        points = [] if F is None else [F.source.sample_points(
            12, seed=cfg.check["seed"], box=cfg.check["box"]).tobytes()]
        assert splits == points, entry
    assert split_at == []


def test_a_gate_that_fails_only_at_the_last_sample_point_is_not_met(monkeypatch):
    """polar-kahler at 12 points with its source Kaehler residual set to 1 at
    point 11 only: every identity check gated on it is NOT-APPLICABLE."""
    from riemcheck import propcheck

    real = propcheck.kahler_residual

    def kahler_residual(g, J, points):
        res = real(g, J, points)
        res[11:] = 1.0
        return res

    monkeypatch.setattr(propcheck, "kahler_residual", kahler_residual)
    report = run_suite(load("polar-kahler"), points=12)
    results = {c.id: c for c in report.checks + report.audits}
    for ident in ("ric_uv", "ric_ux", "ric_xy", "ric_lie"):
        assert results[ident].verdict == NOT_APPLICABLE, ident
        assert results[ident].terms["gates"]["kahler_source"] == [False, 1.0], ident
    assert results["kahler"].verdict == PASS


# A flat plane whose domain x1 > 0 is stated through sqrt(x1): the geodesic
# along -d_x1 from x1 = 0.5 leaves it at t = 0.5, where sqrt(x1) is NaN.
DOMAIN_SPEC = """
version 1
manifold M
  coords x1 x2
  constraint positive sqrt(x1)
  metric diag 1, 1
end
check
  seed 7
  points 8
  suite geodesic
  geodesic from 0.5,0.5 dir -1,0 t 2 dt 0.01
end
"""


def test_a_geodesic_leaving_the_domain_of_a_nonfinite_constraint_fails():
    report = run_suite(load_spec(DOMAIN_SPEC, name="sqrt-domain"))
    result = report.checks[0]
    assert result.verdict == FAIL
    assert result.notes[0].startswith("error: geodesic left chart domain at t=0.5")
    assert result.notes[0].endswith("constraint sqrt(x1) > 0 violated")
    assert report.exit_code() == 1


# A flat plane with a geodesic line whose time or step is filled in per case.
TIMES_SPEC = """
version 1
manifold M
  coords x1 x2
  metric diag 1, 1
end
check
  seed 7
  points 8
  suite geodesic metric
  geodesic from 0.5,0.5 dir 1,0 {times}
end
"""


@pytest.mark.parametrize("times, named", [
    ("t -1 dt 0.01", "t_end must be finite and positive, got -1.0"),
    ("t nan dt 0.01", "t_end must be finite and positive, got nan"),
    ("t 1 dt nan", "dt must be finite and positive, got nan"),
], ids=["t-negative", "t-nan", "dt-nan"])
def test_a_geodesic_time_or_step_that_is_not_finite_and_positive_fails_its_check(times, named):
    """A negative t used to give a one-point trajectory that PASSed with
    drift 0.0, and a NaN t or dt aborted the run from int(floor(...))."""
    report = run_suite(load_spec(TIMES_SPEC.format(times=times), name="geodesic-times"))
    geodesic, metric = report.checks
    assert geodesic.verdict == FAIL
    assert geodesic.notes == [f"error: geodesic_integrate: {named}"]
    assert metric.verdict == PASS
    assert report.exit_code() == 1


# A flat half-plane x1 > 0 with a geodesic line filled in per case.
START_SPEC = """
version 1
manifold M
  coords x1 x2
  constraint positive x1
  metric diag 1, 1
end
check
  seed 7
  points 8
  suite geodesic metric
  geodesic {line} t 1 dt 0.001
end
"""


@pytest.mark.parametrize("line, named", [
    ("from inf,0.2 dir 1,0", "p0 must be finite, got [inf, 0.2]"),
    ("from 0.5,0.2 dir nan,0", "v0 must be finite, got [nan, 0.0]"),
], ids=["p0-inf", "v0-nan"])
def test_a_geodesic_from_a_nonfinite_start_fails_before_its_first_step(line, named):
    """Such a start used to run 12 halvings of 8,191 sub-steps before it
    failed as non-finite at every step size."""
    report = run_suite(load_spec(START_SPEC.format(line=line), name="geodesic-start"))
    geodesic, metric = report.checks
    assert geodesic.verdict == FAIL
    assert geodesic.notes == [f"error: geodesic_integrate: {named}"]
    assert metric.verdict == PASS


def test_a_geodesic_from_outside_its_chart_fails_naming_the_constraint():
    """It used to fail as leaving the chart at t = dt, although it was never
    inside."""
    report = run_suite(load_spec(START_SPEC.format(line="from -0.5,0.2 dir 1,0"),
                                 name="geodesic-start"))
    geodesic, metric = report.checks
    assert geodesic.verdict == FAIL
    assert geodesic.notes == ["error: geodesic starts outside chart domain: "
                              "constraint x1 > 0 violated"]
    assert metric.verdict == PASS


# The metric is NaN wherever x1 < 0.5, and no frame is declared: the
# horizontal frame computed there is empty, and at the other points it is d_x2.
NAN_SPLIT_SPEC = """
version 1
manifold M
  coords x1 x2
  metric diag 1, 1 + 1e-30*sqrt(x1 - 0.5)
end
manifold N
  coords y1
  metric diag 1
end
map F
  source M
  target N
  components x2
end
check
  seed 7
  points 12
  suite riemannian_map umbilical
end
"""


def test_nonfinite_metric_under_computed_frames_fails_and_names_its_point():
    cfg = load_spec(NAN_SPLIT_SPEC, name="nan-split")
    pts = cfg.charts["M"].sample_points(12, seed=7)
    first = pts[int(np.flatnonzero(pts[:, 0] < 0.5)[0])]
    assert pts[0, 0] >= 0.5
    report = run_suite(cfg)
    for result in report.checks:
        assert result.verdict == FAIL
        assert result.notes == ["error: horizontal frame dimension changes from 1 to 0 "
                                f"at point {first.tolist()}"]


# F = (x1 - a)^2 x2 has rank 1 except where x1 = a, where its Jacobian is 0;
# the declared vertical frame spans its kernel everywhere, so the split never
# computes a kernel, and a sample point is placed on x1 = a after index 10.
RANK_DROP_SPEC = """
version 1
manifold M
  coords x1 x2
  metric diag 1, 1
end
manifold N
  coords y1
  metric diag 1
end
map F
  source M
  target N
  components (x1 - {a})^2*x2
end
frames F
  vertical U1 = (x1 - {a})/sqrt((x1 - {a})^2 + 4*x2^2), -2*x2/sqrt((x1 - {a})^2 + 4*x2^2)
end
check
  seed 7
  points 12
  suite metric
end
"""


def test_metric_check_finds_a_rank_drop_at_any_sample_point():
    pts = load_spec(RANK_DROP_SPEC.format(a=0.5), name="rank").charts["M"].sample_points(
        12, seed=7)
    a = pts[11, 0]
    assert np.min(np.abs(pts[:11, 0] - a)) > 1e-3
    result = run_suite(load_spec(RANK_DROP_SPEC.format(a=repr(float(a))), name="rank"))
    check = result.checks[0]
    assert check.verdict == FAIL
    assert check.notes == ["error: Jacobian rank changes from 1 to 0 and its kernel "
                           f"dimension from 1 to 2 at point {pts[11].tolist()}"]


def _reachable(root, kind):
    """The objects of type `kind` reachable from root through attributes and
    containers, not through classes, modules or functions."""
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_the_clairaut_monitor_keeps_no_trajectory_arrays():
    """The monitor evaluates g_M, the vertical frame and f at the 10,001
    points of revolution-surface's geodesic without keeping the arrays:
    after the run, no `LastPointSet` of the config holds that point set."""
    from riemcheck.geometry import LastPointSet

    cfg = load("revolution-surface")
    report = run_suite(cfg)
    assert "clairaut_invariant_drift" in report.checks[
        [c.id for c in report.checks].index("geodesic")].terms
    kept = _reachable(cfg, LastPointSet)
    assert kept
    assert [c.key[0] for c in kept if c.key is not None and c.key[0][0] == 10_001] == []


def test_single_point_evaluation_serves_only_the_geodesic_integrator(monkeypatch):
    """Every check evaluates its point set in one batch: over every catalog
    entry and a geodesic that leaves its chart, `Tape.evaluate_list` is
    called only from inside `geometry.geodesic_integrate`, for the energies
    of its first state and of its halved steps' last sub-steps, and for
    `Chart.check_domain` on its states.  Its RK4 steps and the other
    energies' metric values come from the compiled `Tape.rk4_chain`, and
    `evaluate_at` has no caller."""
    from riemcheck import geometry
    from riemcheck.expr.tape import Tape

    integrator, inside, outside = geometry.geodesic_integrate.__code__, [], []
    evaluate_list = Tape.evaluate_list

    def traced(self, x):
        frame = sys._getframe(1)
        caller = (frame.f_globals["__name__"], frame.f_code.co_name)
        while frame is not None and frame.f_code is not integrator:
            frame = frame.f_back
        (inside if frame is not None else outside).append(caller)
        return evaluate_list(self, x)

    monkeypatch.setattr(Tape, "evaluate_list", traced)
    monkeypatch.setattr(Tape, "evaluate_at", None)
    for name in names():
        cfg = load(name)
        if cfg.check["geodesic"] is not None:
            cfg.check["geodesic"]["t"] = 0.5
        run_suite(cfg, points=12)
    run_suite(load_spec(DOMAIN_SPEC, name="sqrt-domain"))
    assert outside == []
    assert inside and set(inside) == {("riemcheck.geometry", "geodesic_integrate"),
                                      ("riemcheck.geometry", "check_domain")}
