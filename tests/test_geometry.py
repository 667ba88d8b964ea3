"""Geometry tests: curvature against the finite-difference oracle and
closed-form constant-curvature values, connection axioms at sample points,
first-order operators, geodesics."""

import functools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemcheck import geometry
from riemcheck.catalog import load, names
from riemcheck.expr import Const, Tape, parse
from riemcheck.expr.nodes import ZERO, Var, is_const
from riemcheck.suites import run_suite
from riemcheck.geometry import (
    Chart,
    ChartDomainError,
    GeometryError,
    MetricField,
    VectorField,
    function_at,
    geodesic_integrate,
    geodesic_tape,
    gradient,
    lie_derivative,
    orthonormalize,
    ricci,
    riemann,
    scalar_curvature,
    sym_einsum,
    worst,
)

import geodesic_oracle
from fd_oracle import fd_ricci
from source_calculus_oracle import covariant_derivative, divergence
from target_calculus_oracle import lie_bracket


# -- fixtures ------------------------------------------------------------------

def euclidean(n=3):
    chart = Chart("E", [f"x{i+1}" for i in range(n)])
    mat = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            mat[i, j] = Const(1.0 if i == j else 0.0)
    return MetricField(chart, mat)


def sphere2():
    chart = Chart("S2", ["theta", "phi"])
    e = chart.parse
    mat = np.array([[e("1"), e("0")], [e("0"), e("sin(theta)^2")]], dtype=object)
    return MetricField(chart, mat)


def hyperbolic2():
    chart = Chart("H2", ["x", "t"])
    e = chart.parse
    mat = np.array([[e("exp(-2*t)"), e("0")], [e("0"), e("1")]], dtype=object)
    return MetricField(chart, mat)


def paper31_metric():
    chart = Chart("M31", [f"x{i+1}" for i in range(6)],
                  constraints=[(parse(f"x{i+1}"), "nonzero") for i in range(6)])
    diag = ["exp(-2*x4)", "exp(-2*x4)", "exp(-2*x4)", "1", "1", "1"]
    mat = np.empty((6, 6), dtype=object)
    for i in range(6):
        for j in range(6):
            mat[i, j] = chart.parse(diag[i]) if i == j else Const(0.0)
    return MetricField(chart, mat)


def heisenberg():
    """Left-invariant metric of the Heisenberg group on (x, y, z)."""
    chart = Chart("Heis", ["x", "y", "z"])
    rows = [["1", "0", "0"], ["0", "1 + x^2", "-x"], ["0", "-x", "1"]]
    return MetricField(chart, np.array([[chart.parse(c) for c in r] for r in rows],
                                       dtype=object))


def metric_fn(g):
    return lambda x: g.values(x)[0]


def test_check_spd_rejects_a_nonfinite_metric():
    # 1 + log(x1 - 0.5)^2 is NaN for x1 < 0.5, which Cholesky does not catch
    chart = Chart("Rlog", ["x1", "x2"])
    e = chart.parse
    g = MetricField(chart, np.array([[e("1"), e("0")], [e("0"), e("1 + log(x1 - 0.5)^2")]],
                                    dtype=object))
    pts = chart.sample_points(20, seed=7)
    g.check_spd(pts[pts[:, 0] > 0.5])
    with pytest.raises(GeometryError, match="not finite"):
        g.check_spd(pts)


@pytest.mark.parametrize("entries,what", [
    (("1", "0", "0", "x1 - 0.5"), "not positive definite"),
    (("1", "x1 - 0.5", "0", "1"), "asymmetric"),
    (("1", "0", "0", "1 + log(x1 - 0.5)^2"), "not finite"),
])
def test_check_spd_names_the_first_offending_point_after_good_ones(entries, what):
    """The stacked test finds the stack bad; the point loop then names the
    first bad point, with the message of the loop alone."""
    chart = Chart("Rlate", ["x1", "x2"])
    g = MetricField(chart, np.array([chart.parse(e) for e in entries],
                                    dtype=object).reshape(2, 2))
    good = [[0.5, 0.1 * i] if what == "asymmetric" else [0.6 + 0.1 * i, 0.2] for i in range(4)]
    pts = np.array(good + [[0.3, 0.7], [0.2, 0.4]])
    g.check_spd(pts[:4])
    with pytest.raises(GeometryError) as err:
        g.check_spd(pts)
    assert str(err.value) == f"metric {what} at sample point {pts[4]}"


# -- christoffel ----------------------------------------------------------------

def test_flat_christoffel_vanishes():
    g = euclidean()
    gam = g.christoffel()
    assert all(c.key() == ("c", 0.0) for c in gam.comps.flat)


def test_paper31_christoffel_table():
    g = paper31_metric()
    gam = g.christoffel()
    pts = g.chart.sample_points(50, seed=11)
    vals = gam.values(pts)
    expect = np.zeros((len(pts), 6, 6, 6))
    w = np.exp(-2.0 * pts[:, 3])
    expect[:, 0, 0, 3] = expect[:, 0, 3, 0] = -1.0
    expect[:, 1, 1, 3] = expect[:, 1, 3, 1] = -1.0
    expect[:, 2, 2, 3] = expect[:, 2, 3, 2] = -1.0
    expect[:, 3, 0, 0] = expect[:, 3, 1, 1] = expect[:, 3, 2, 2] = w
    assert np.max(np.abs(vals - expect)) <= 1e-12


def test_sphere_sectional_curvature_is_one():
    g = sphere2()
    pts = g.chart.sample_points(20, seed=3, box=(0.3, 1.2))
    Rv = riemann(g, pts)
    gv = g.values(pts)
    # orthonormal frame e1 = d_theta, e2 = d_phi / sin(theta)
    for p in range(len(pts)):
        s = math.sin(pts[p, 0])
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0 / s])
        r1212 = np.einsum("lijk,i,j,k,lm,m->", Rv[p], e1, e2, e2, gv[p], e1)
        assert r1212 == pytest.approx(1.0, abs=1e-10)


def test_hyperbolic_sectional_curvature_is_minus_one():
    g = hyperbolic2()
    pts = g.chart.sample_points(20, seed=4)
    Rv = riemann(g, pts)
    gv = g.values(pts)
    for p in range(len(pts)):
        E = orthonormalize(gv[p], np.eye(2))
        r1212 = np.einsum("lijk,i,j,k,lm,m->", Rv[p], E[0], E[1], E[1], gv[p], E[0])
        assert r1212 == pytest.approx(-1.0, abs=1e-10)


# -- ricci / scalar ---------------------------------------------------------------

def test_sphere_ricci_equals_metric():
    g = sphere2()
    pts = g.chart.sample_points(20, seed=5, box=(0.3, 1.2))
    rv = ricci(g, pts)
    gv = g.values(pts)
    assert np.max(np.abs(rv - gv)) <= 1e-10
    assert np.max(np.abs(scalar_curvature(g, pts) - 2.0)) <= 1e-10


def test_ricci_matches_fd_oracle_on_curved_metrics():
    for build, box in ((sphere2, (0.3, 1.2)), (hyperbolic2, (0.1, 1.0)),
                       (paper31_metric, (0.1, 1.0))):
        g = build()
        pts = g.chart.sample_points(5, seed=6, box=box)
        rv = ricci(g, pts)
        for i, x in enumerate(pts):
            oracle = fd_ricci(metric_fn(g), x)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(rv[i] - oracle)) / scale <= 1e-5


def test_paper31_engine_ricci_values():
    # hyperbolic 4-block (curvature -1) x flat 2-block, in the orthonormal
    # frame: Ric(U1,U1) = Ric(U2,U2) = Ric(X1,X1) = Ric(X2,X2) = -3,
    # Ric(U1,U2) = 0, flat directions 0.  (The source text prints other
    # numbers; the discrepancy is recorded by the audit suite.)
    g = paper31_metric()
    pts = g.chart.sample_points(10, seed=7)
    rv = ricci(g, pts)
    gv = g.values(pts)
    for p in range(len(pts)):
        w = math.exp(pts[p, 3])
        U1 = np.array([w, 0, 0, 0, 0, 0.0])
        U2 = np.array([0, 0, w, 0, 0, 0.0])
        X1 = np.array([0, w, 0, 0, 0, 0.0])
        X2 = np.array([0, 0, 0, 1.0, 0, 0])
        X3 = np.array([0, 0, 0, 0, 1.0, 0])
        val = lambda a, b: float(a @ rv[p] @ b)
        assert val(U1, U1) == pytest.approx(-3.0, abs=1e-9)
        assert val(U2, U2) == pytest.approx(-3.0, abs=1e-9)
        assert val(U1, U2) == pytest.approx(0.0, abs=1e-9)
        assert val(X1, X1) == pytest.approx(-3.0, abs=1e-9)
        assert val(X2, X2) == pytest.approx(-3.0, abs=1e-9)
        assert val(X3, X3) == pytest.approx(0.0, abs=1e-9)


# -- connection axioms at sample points -------------------------------------------

def _poly_fields(chart):
    n = chart.dim
    fields = []
    for shift in (1, 2):
        comps = []
        for k in range(n):
            i = (k + shift) % n
            comps.append(chart.parse(f"0.3*{chart.coords[i]}^2 + 0.1*{chart.coords[k]}"))
        fields.append(VectorField(chart, comps))
    return fields


@pytest.mark.parametrize("build,box", [(sphere2, (0.3, 1.2)), (paper31_metric, (0.1, 1.0))])
def test_metric_compatibility(build, box):
    g = build()
    chart = g.chart
    X, Y = _poly_fields(chart)
    nXY = covariant_derivative(g, X, Y)
    nXX = covariant_derivative(g, X, X)
    # X g(Y,Y) = 2 g(nabla_X Y, Y) pointwise
    from riemcheck.expr import Tape, differentiate
    from riemcheck.expr.nodes import Add, Mul
    gYY = Const(0.0)
    for i in range(chart.dim):
        for j in range(chart.dim):
            gYY = Add(gYY, Mul(g.mat[i, j], Mul(Y.comps[i], Y.comps[j])))
    dgYY = Const(0.0)
    for i in range(chart.dim):
        dgYY = Add(dgYY, Mul(X.comps[i], differentiate(gYY, chart.coords[i])))
    rhs = Const(0.0)
    for i in range(chart.dim):
        for j in range(chart.dim):
            rhs = Add(rhs, Mul(Const(2.0), Mul(g.mat[i, j], Mul(nXY.comps[i], Y.comps[j]))))
    tape = Tape([dgYY, rhs], chart.coords)
    pts = chart.sample_points(100, seed=8, box=box)
    vals = tape.evaluate(pts)
    scale = 1.0 + np.max(np.abs(vals))
    assert np.max(np.abs(vals[:, 0] - vals[:, 1])) / scale <= 1e-9


@pytest.mark.parametrize("build,box", [(sphere2, (0.3, 1.2)), (paper31_metric, (0.1, 1.0))])
def test_torsion_free(build, box):
    g = build()
    chart = g.chart
    X, Y = _poly_fields(chart)
    lhs = covariant_derivative(g, X, Y)
    rhs = covariant_derivative(g, Y, X)
    br = lie_bracket(chart, X, Y)
    pts = chart.sample_points(100, seed=9, box=box)
    diff = lhs.values(pts) - rhs.values(pts) - br.values(pts)
    assert np.max(np.abs(diff)) <= 1e-9


@pytest.mark.parametrize("build,box", [(sphere2, (0.3, 1.2)),
                                       (hyperbolic2, (0.1, 1.0)),
                                       (paper31_metric, (0.1, 1.0))])
def test_first_bianchi_and_ricci_symmetry(build, box):
    g = build()
    pts = g.chart.sample_points(25, seed=10, box=box)
    Rv = riemann(g, pts)
    cyc = Rv + np.transpose(Rv, (0, 1, 3, 4, 2)) + np.transpose(Rv, (0, 1, 4, 2, 3))
    assert np.max(np.abs(cyc)) <= 1e-8
    rv = ricci(g, pts)
    assert np.max(np.abs(rv - np.transpose(rv, (0, 2, 1)))) <= 1e-10


# -- first-order operators ---------------------------------------------------------

def test_gradient_examples():
    g = euclidean(3)
    gr = gradient(g, parse("x1"))
    assert [c.key() for c in gr.comps] == [("c", 1.0), ("c", 0.0), ("c", 0.0)]
    gr0 = gradient(g, Const(4.2))
    assert all(c.key() == ("c", 0.0) for c in gr0.comps)

    # warped target: grad y3 = exp(-2*y5) d/dy3 for
    # g = diag(1,1,exp(2*y5),1,1,exp(2*y5))
    chart = Chart("N41", [f"y{i+1}" for i in range(6)])
    diag = ["1", "1", "exp(2*y5)", "1", "1", "exp(2*y5)"]
    mat = np.empty((6, 6), dtype=object)
    for i in range(6):
        for j in range(6):
            mat[i, j] = chart.parse(diag[i]) if i == j else Const(0.0)
    gN = MetricField(chart, mat)
    gr3 = gradient(gN, parse("y3"))
    pts = chart.sample_points(20, seed=12)
    vals = gr3.values(pts)
    expect = np.zeros_like(vals)
    expect[:, 2] = np.exp(-2.0 * pts[:, 4])
    assert np.max(np.abs(vals - expect)) <= 1e-12


def test_one_dimensional_metric_inverts_its_entry():
    """The adjugate of a 1x1 metric is 1 (the determinant of the empty
    minor), so the symbolic inverse, gradient and Christoffel symbol are
    those of g = exp(2w)."""
    chart = Chart("L", ["w"])
    g = MetricField(chart, [[chart.parse("exp(2*w)")]])
    pts = chart.sample_points(5, seed=11)
    want = np.exp(-2.0 * pts[:, 0])
    inverse = Tape([g.inverse()[0, 0]], ["w"]).evaluate(pts)[:, 0]
    assert np.max(np.abs(inverse - want)) <= 1e-15
    assert np.max(np.abs(gradient(g, parse("w")).values(pts)[:, 0] - want)) <= 1e-15
    assert np.max(np.abs(function_at(g, parse("w"), pts).grad[:, 0] - want)) <= 1e-15
    assert np.max(np.abs(g.christoffel().values(pts) - 1.0)) <= 1e-15


def test_hessian_examples():
    g = euclidean(2)
    pts = g.chart.sample_points(5, seed=13)
    hv = function_at(g, parse("(x1^2 + x2^2)/2"), pts).hess
    assert np.max(np.abs(hv - np.eye(2))) <= 1e-12
    h0 = function_at(g, parse("3*x1 - 2*x2"), pts)
    assert np.max(np.abs(h0.hess)) <= 1e-12 and h0.lap.tolist() == [0.0] * 5
    assert np.max(np.abs(h0.grad - [3.0, -2.0])) <= 1e-15

    gs = sphere2()
    pts = gs.chart.sample_points(20, seed=14, box=(0.3, 1.2))
    hc = function_at(gs, parse("cos(theta)"), pts)
    gv = gs.values(pts)
    expect = -np.cos(pts[:, 0])[:, None, None] * gv
    assert np.max(np.abs(hc.hess - expect)) <= 1e-10
    # the Laplacian of the first spherical harmonic is -2 cos(theta)
    assert np.max(np.abs(hc.lap + 2.0 * np.cos(pts[:, 0]))) <= 1e-10


def test_divergence_examples():
    g = euclidean(2)
    assert divergence(g, VectorField(g.chart, [parse("x1"), Const(0.0)])).key() == ("c", 1.0)
    assert divergence(g, VectorField(g.chart, [Const(2.0), Const(5.0)])).key() == ("c", 0.0)
    g31 = paper31_metric()
    d = divergence(g31, VectorField(g31.chart, [0, 0, 0, 1, 0, 0]))
    assert d.key() == ("c", -3.0)


def test_divergence_equals_frame_trace_and_sqrtdet_formula():
    g = paper31_metric()
    chart = g.chart
    X = VectorField(chart, [chart.parse("x4*x1"), 0, 0, chart.parse("x1 + x5"), 0,
                            chart.parse("x6^2")])
    div = divergence(g, X)
    pts = chart.sample_points(50, seed=15)
    from riemcheck.expr import Tape
    dv = Tape([div], chart.coords).evaluate(pts)[:, 0]

    # frame trace sum_a g(nabla_{E_a} X, E_a) over an orthonormal frame
    gv = g.values(pts)
    cov = [covariant_derivative(g, [Const(1.0 if i == k else 0.0) for i in range(6)], X)
           for k in range(6)]  # nabla_{d_k} X
    cv = np.stack([c.values(pts) for c in cov], axis=1)  # (P, k, comp)
    for p in range(len(pts)):
        E = orthonormalize(gv[p], np.eye(6))
        tr = 0.0
        for a in range(6):
            nEa = np.einsum("k,kc->c", E[a], cv[p])
            tr += float(nEa @ gv[p] @ E[a])
        assert tr == pytest.approx(dv[p], abs=1e-9)

    # coordinate formula (1/sqrt(det g)) d_i (sqrt(det g) X^i), h-differenced
    def coord_div(x, h=1e-6):
        s = 0.0
        for i in range(6):
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            f = lambda y: math.sqrt(np.linalg.det(g.values(y)[0])) * X.values(y)[0][i]
            s += (f(xp) - f(xm)) / (2.0 * h)
        return s / math.sqrt(np.linalg.det(g.values(x)[0]))
    for p in pts[:5]:
        assert coord_div(p.copy()) == pytest.approx(
            float(Tape([div], chart.coords).evaluate(p[None, :])[0, 0]), rel=1e-6, abs=1e-6)


def test_lie_derivative_examples():
    g = euclidean(2)
    rot = VectorField(g.chart, [parse("-x2"), parse("x1")])
    lv = lie_derivative(g, rot, g.chart.sample_points(10, seed=16))
    assert np.max(np.abs(lv)) <= 1e-12

    g3 = euclidean(3)
    euler = VectorField(g3.chart, [parse("x1"), parse("x2"), parse("x3")])
    lv = lie_derivative(g3, euler, g3.chart.sample_points(10, seed=17))
    assert np.max(np.abs(lv - 2.0 * np.eye(3))) <= 1e-12

    # the rotation d_phi is a Killing field of the round sphere
    gs = sphere2()
    lv = lie_derivative(gs, VectorField(gs.chart, [0, 1]), gs.chart.sample_points(10, seed=18))
    assert np.max(np.abs(lv)) == 0.0


# -- orthonormalize -----------------------------------------------------------------

def test_orthonormalize_examples():
    g = euclidean(2)
    E = orthonormalize(np.eye(2), np.eye(2))
    assert np.allclose(E, np.eye(2))
    E = orthonormalize(np.eye(2), np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(E, np.eye(2))
    with pytest.raises(GeometryError):
        orthonormalize(np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_orthonormalize_paper31_frame():
    g = paper31_metric()
    chart = g.chart
    fields = [VectorField(chart, [Const(1.0 if i == k else 0.0) for i in range(6)])
              for k in range(6)]
    x = np.array([0.2, 0.4, 0.6, 0.5, 0.3, 0.7])
    E = orthonormalize(g.values(x)[0], np.array([f.values(x)[0] for f in fields]))
    w = math.exp(0.5)
    expect = np.diag([w, w, w, 1.0, 1.0, 1.0])
    assert np.max(np.abs(np.abs(E) - expect)) <= 1e-12  # match up to sign


# -- geodesics ------------------------------------------------------------------------

def test_geodesic_euclidean_straight_line():
    g = euclidean(2)
    traj = geodesic_integrate(g, np.array([0.1, 0.2]), np.array([0.3, 0.4]),
                              t_end=2.0, dt=1e-2)
    assert traj.energy_drift <= 1e-10
    end = traj.xs[-1]
    assert np.allclose(end, [0.1 + 0.6, 0.2 + 0.8], atol=1e-10)


def test_geodesic_great_circle_closes():
    g = sphere2()
    v0 = np.array([0.0, 1.0])  # equator direction, unit speed at theta = pi/2
    traj = geodesic_integrate(g, np.array([math.pi / 2, 0.0]), v0,
                              t_end=2.0 * math.pi, dt=1e-3)
    assert traj.energy_drift <= 1e-8
    assert abs(traj.xs[-1][0] - math.pi / 2) <= 1e-5
    assert abs(traj.xs[-1][1] - 2.0 * math.pi) <= 1e-5

    # tilted great circle returns to the start point after arclength 2*pi
    v0 = np.array([0.3, 1.0])
    gv = g.values(np.array([math.pi / 2, 0.0]))[0]
    v0 = v0 / math.sqrt(v0 @ gv @ v0)
    traj = geodesic_integrate(g, np.array([math.pi / 2, 0.0]), v0,
                              t_end=2.0 * math.pi, dt=1e-3)
    assert abs(traj.xs[-1][0] - math.pi / 2) <= 1e-5
    assert abs(traj.xs[-1][1] - 2.0 * math.pi) <= 2e-5


def test_geodesic_rejects_bad_input():
    g = euclidean(2)
    with pytest.raises(GeometryError):
        geodesic_integrate(g, np.array([0.0, 0.0]), np.zeros(2), 1.0, 1e-2)
    with pytest.raises(GeometryError):
        geodesic_integrate(g, np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0, -1e-2)


def test_geodesic_domain_exit_detected():
    chart = Chart("P", ["x", "y"], constraints=[(parse("x"), "positive")])
    mat = np.array([[Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]], dtype=object)
    g = MetricField(chart, mat)
    with pytest.raises(ChartDomainError):
        geodesic_integrate(g, np.array([0.5, 0.0]), np.array([-1.0, 0.0]), 2.0, 1e-2)


def test_geodesic_step_that_is_nonfinite_at_every_size_raises():
    """g_yy = 1 + sqrt(x - 0.5) is NaN for x < 0.5; the straight line
    x = 0.62 - t crosses x = 0.5 in the step from t = 0.1, so every split
    of that step gives NaN and the integrator must stop there."""
    chart = Chart("S", ["x", "y"])
    g = MetricField(chart, np.array([[Const(1.0), Const(0.0)],
                                     [Const(0.0), parse("1 + sqrt(x - 0.5)")]],
                                    dtype=object))
    with pytest.raises(GeometryError, match=r"t=0\.1 "):
        geodesic_integrate(g, np.array([0.62, 0.0]), np.array([-1.0, 0.0]), 0.3, 0.1)


def test_geodesic_counts_steps_that_never_reach_the_energy_tolerance():
    g = sphere2()
    v0 = np.array([0.3, 1.0])
    traj = geodesic_integrate(g, np.array([1.2, 0.0]), v0, t_end=0.02, dt=0.01,
                              energy_tol=0.0)
    assert traj.unconverged == 2
    assert traj.halvings == 24
    assert geodesic_integrate(g, np.array([1.2, 0.0]), v0, t_end=0.02,
                              dt=0.01).unconverged == 0


def _catalog_geodesic(entry, chart, **edits):
    """geodesic_integrate's arguments for a catalog entry's geodesic line."""
    cfg = load(entry)
    geo = cfg.check["geodesic"] | edits
    g = cfg.metrics[chart]
    return (g, np.array(geo["from"]), np.array(geo["dir"]),
            geo["t"], geo["dt"])


def _heisenberg_geodesic(dt):
    return heisenberg(), np.array([0.3, 0.5, 0.7]), np.array([0.6, -0.2, 0.4]), 5.0, dt


def _bump_geodesic(width, t_end):
    """The line from (0.0013, 0) along (1, 0.5) in steps of 2^-8, through a
    plane whose g_yy = 1 + 10^4 (u + |u|)^2 (w + |w|)^2, u = x - 1.7 and
    w = 1.7 + width - x, differs from 1 only on the strip 1.7 < x < 1.7 +
    width.  Off the strip every RK4 step is exact and keeps g(v, v); the
    line enters it in step 435, deep inside the first chain of CHAIN_CAP
    steps (steps 255 to 510)."""
    chart = Chart("B", ["x", "y"])
    u, w = "(x - 1.7)", f"({1.7 + width} - x)"
    g_yy = chart.parse(f"1 + 1e4*({u} + sqrt({u}^2))^2*({w} + sqrt({w}^2))^2")
    g = MetricField(chart, np.array([[Const(1.0), Const(0.0)], [Const(0.0), g_yy]],
                                    dtype=object))
    return g, np.array([0.0013, 0.0]), np.array([1.0, 0.5]), t_end, 2.0**-8


def _oracle_substeps(args, energy_tol):
    """The RK4 sub-steps a step-by-step run makes: the oracle's calls of the
    right-hand-side tape over 4."""
    calls = []
    evaluate_list = Tape.evaluate_list

    def counted(self, x):
        calls.append(self.var_names[-1].startswith("_v"))
        return evaluate_list(self, x)

    with mock.patch.object(Tape, "evaluate_list", counted):
        geodesic_oracle.geodesic_integrate(*args, energy_tol=energy_tol)
    return sum(calls) // 4


def _budget_edge_geodesic():
    """The bump geodesic at energy tolerance 0 across a strip 0.012 wide:
    the steps that touch the strip never converge and run all 8,191
    sub-steps of their 12 halvings.  Each clean step after the strip adds 1
    sub-step and 8 to the budget, so the run is cut where a step-by-step
    integration leaves fewer than 7 sub-steps of its budget unused.  The
    integrator must finish it: the 75 speculative steps that the chain ran
    past the strip count for nothing."""
    g, p0, v0, t_end, dt = _bump_geodesic(0.012, 6.0)
    steps = round(t_end / dt)
    slack = 8 * steps + 2**14 - _oracle_substeps((g, p0, v0, t_end, dt), 0.0)
    assert slack >= 0
    return g, p0, v0, (steps - slack // 7) * dt, dt


@pytest.mark.parametrize("args, energy_tol", [
    (lambda: _catalog_geodesic("revolution-surface", "S"), 1e-8),
    (lambda: _catalog_geodesic("sphere-2", "S"), 1e-8),
    # every step halves 12 times and is accepted unconverged
    (lambda: _catalog_geodesic("sphere-2", "S", t=0.02, dt=0.01), 0.0),
    (lambda: _heisenberg_geodesic(1e-3), 1e-8),
    (lambda: _heisenberg_geodesic(0.2), 1e-8),  # halves some steps
    (lambda: _bump_geodesic(0.05, 3.0), 1e-8),  # first rejection after 434 clean steps
    (_budget_edge_geodesic, 0.0),
], ids=["revolution-surface", "sphere-2", "sphere-2-tol0", "heisenberg", "heisenberg-coarse",
        "rejection-in-a-capped-chain", "budget-edge"])
def test_geodesic_integrate_is_bit_identical_to_the_numpy_array_oracle(args, energy_tol):
    args = args()
    traj = geodesic_integrate(*args, energy_tol=energy_tol)
    want = geodesic_oracle.geodesic_integrate(*args, energy_tol=energy_tol)
    for name in ("times", "xs", "vs"):
        assert np.array_equal(getattr(traj, name), getattr(want, name)), name
    assert ((traj.energy_drift, traj.halvings, traj.unconverged)
            == (want.energy_drift, want.halvings, want.unconverged))


@pytest.mark.parametrize("g_yy, constraints, start, t_end, dt", [
    ("1", [(parse("x"), "positive")], 0.5, 2.0, 1e-2),  # leaves x > 0 at t = 0.5
    # leaves x > 0 in step 400, inside the first chain of CHAIN_CAP steps
    ("1", [(parse("x"), "positive")], 0.4, 2.0, 1e-3),
    ("1 + sqrt(x - 0.5)", (), 0.62, 0.3, 0.1),  # non-finite at every split
], ids=["domain-exit", "domain-exit-in-a-capped-chain", "nonfinite"])
def test_geodesic_integrate_raises_as_the_numpy_array_oracle_does(
        g_yy, constraints, start, t_end, dt):
    chart = Chart("P", ["x", "y"], constraints=constraints)
    g = MetricField(chart, np.array([[Const(1.0), Const(0.0)], [Const(0.0), parse(g_yy)]],
                                    dtype=object))
    raised = []
    for integrate in (geodesic_integrate, geodesic_oracle.geodesic_integrate):
        with pytest.raises(GeometryError) as exc:
            integrate(g, np.array([start, 0.0]), np.array([-1.0, 0.0]), t_end, dt)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1]


@functools.cache
def _catalog_metric(entry, chart):
    """(metric, sample box) of a catalog chart, loaded once per session."""
    from riemcheck.catalog import load, names
    cfg = load(entry)
    return cfg.metrics[chart], cfg.check["box"]


@settings(max_examples=40, deadline=None)
@given(entry=st.sampled_from([("sphere-2", "S"), ("revolution-surface", "S"),
                              ("paper-3.1", "M")]),
       seed=st.integers(0, 2**32 - 1))
def test_geodesic_tape_matches_the_christoffel_contraction(entry, seed):
    g, (lo, hi) = _catalog_metric(*entry)
    n = g.chart.dim
    rng = np.random.default_rng(seed)
    x, v = rng.uniform(lo, hi, n), rng.uniform(-1.0, 1.0, n)
    out = geodesic_tape(g).evaluate_at(np.concatenate([x, v]))
    gam = g.christoffel().values(x)[0]
    want = -np.einsum("kij,i,j->k", gam, v, v)
    scale = np.einsum("kij,i,j->k", np.abs(gam), np.abs(v), np.abs(v))
    assert np.array_equal(out[:n], v)
    assert np.all(np.abs(out[n:] - want) <= 1e-12 * scale)


def _sqrt_plane():
    """A plane with g_yy = 1 + sqrt(x - 0.5), whose geodesic tape faults in
    `math` wherever x < 0.5."""
    chart = Chart("P", ["x", "y"])
    return MetricField(chart, np.array([[Const(1.0), Const(0.0)],
                                        [Const(0.0), parse("1 + sqrt(x - 0.5)")]], dtype=object))


@functools.cache
def _step_tapes(name):
    """(geodesic tape, metric tape, coordinate box) of a catalog chart or a
    test metric."""
    if name == "heisenberg":
        g, box = heisenberg(), (0.1, 1.0)
    elif name == "sqrt-plane":  # x below 0.5 faults at some draws and at some stages
        g, box = _sqrt_plane(), (0.4, 0.9)
    else:
        g, box = _catalog_metric(name, "M" if name == "paper-3.1" else "S")
    return geodesic_tape(g), g.jets.tape(), box


def _stage_by_stage_chain(tape, metric, s, hs):
    """A chain's states and metric values, step by step through
    `Tape._rk4_stages` and `Tape.evaluate_list`."""
    xs, gs = [], []
    for h in hs:
        s = tape._rk4_stages(s, h)
        if not all(map(math.isfinite, s)):
            break
        xs += s
        gs += metric.evaluate_list(s[:metric.nvars])
    return xs, gs


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["sphere-2", "revolution-surface", "paper-3.1", "heisenberg",
                             "sqrt-plane"]),
       seed=st.integers(0, 2**32 - 1), hs=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4))
def test_an_rk4_chain_has_the_bits_of_stage_by_stage_steps(name, seed, hs):
    tape, metric, (lo, hi) = _step_tapes(name)
    n = tape.nvars // 2
    rng = np.random.default_rng(seed)
    s = rng.uniform(lo, hi, n).tolist() + rng.uniform(-1.0, 1.0, n).tolist()
    xs, gs = tape.rk4_chain(metric)(s, hs, True)
    assert all(type(a) is float for a in xs + gs)
    want_xs, want_gs = _stage_by_stage_chain(tape, metric, s, hs)
    assert np.array(xs).tobytes() == np.array(want_xs).tobytes()
    assert np.array(gs).tobytes() == np.array(want_gs).tobytes()
    assert tape.rk4_chain(metric)(s, hs, False) == (xs, [])


def test_an_rk4_chain_runs_what_faults_again_and_stops_at_a_nonfinite_state(monkeypatch):
    """On the sqrt plane, from x = 0.515 along -d_x, the third step (of 0.1)
    reads x < 0.5 at its second stage, where `math.sqrt` faults: that step
    runs again stage by stage, whose numpy path gives NaN there, and the
    chain ends with the two states before it.  With the flat plane's
    geodesic tape and the sqrt plane's metric tape the states go on past
    x = 0.5, where the metric's `math` evaluation faults: those values are
    `evaluate_list`'s, numpy's NaN."""
    tape, metric, _ = _step_tapes("sqrt-plane")
    flat = geodesic_tape(MetricField(Chart("P", ["x", "y"]), np.array(
        [[Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]], dtype=object)))
    s, calls = [0.515, 0.3, -1.0, 0.5], []
    evaluate_list = Tape.evaluate_list
    monkeypatch.setattr(Tape, "evaluate_list",
                        lambda self, x: calls.append((self, x)) or evaluate_list(self, x))
    for step, hs, states in ((tape, [0.005, 0.005, 0.1, 0.005], 2), (flat, [0.01] * 4, 4)):
        calls.clear()
        xs, gs = step.rk4_chain(metric)(s, hs, True)
        got = list(calls)
        assert len(xs) == 4 * states
        want_xs, want_gs = _stage_by_stage_chain(step, metric, s, hs)
        assert np.array(xs).tobytes() == np.array(want_xs).tobytes()
        assert np.array(gs).tobytes() == np.array(want_gs).tobytes()
        if step is tape:
            assert [t for t, _ in got] == [tape] * 4
            assert got[1][1][0] == xs[4] + 0.05 * xs[6] < 0.5
        else:
            assert got == [(metric, xs[j:j + 2]) for j in (4, 8, 12)]
            assert np.isnan(gs[3::4]).tolist() == [False, True, True, True]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 300), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_energy_has_the_bits_of_each_states_v_G_v(k, n, seed):
    """The integrator's energies of a chain of k states, one qform over the
    (k, n) velocities and (k, n, n) metric values, equal each state's own
    BLAS `vel @ G @ vel` bit for bit, for any G, symmetric or not."""
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-3, 4, size=(k, 1))
    G = rng.normal(size=(k, n, n))
    want = [float(np.array(V[i].tolist()) @ np.array(G[i].tolist()) @ np.array(V[i].tolist()))
            for i in range(k)]
    assert np.array_equal(geometry.qform(V, G, V), want)


def _tally(calls, key, k):
    calls[key] = calls.get(key, 0) + k


def _count_chains(monkeypatch, calls):
    """Hook `Tape.rk4_chain` to tally in `calls` the RK4 steps its chains
    run (the states they return and the non-finite one they stop at, also
    tallied as "nonfinite") and the metric values they return."""
    rk4_chain = Tape.rk4_chain

    def counted_chain(self, metric):
        chain = rk4_chain(self, metric)

        def counted_call(s, hs, every):
            xs, gs = chain(s, hs, every)
            k = len(xs) // len(s)
            _tally(calls, "step", k + (k < len(hs)))
            _tally(calls, "nonfinite", k < len(hs))
            _tally(calls, "metric", len(gs) // metric.nout)
            return xs, gs
        return counted_call
    monkeypatch.setattr(Tape, "rk4_chain", counted_chain)


@pytest.mark.parametrize("energy_tol", [1e-8, 0.0])
def test_geodesic_makes_one_step_call_per_rk4_step_and_one_metric_call_per_attempt(
        monkeypatch, energy_tol):
    """The RK4 steps are those of the right-hand-side tape's compiled
    chains, which never fall back to the stage-by-stage `evaluate_list`
    calls on these runs; the metric tape runs once per attempted step,
    speculative or not, plus once for the initial energy, and no other tape
    runs.  A run with no rejections runs nothing speculatively: one step per
    step and steps + 1 metrics.  In any run a rejection drops at most a
    chain, which is never longer than the steps accepted before it, so the
    steps stay within the oracle's sub-steps + the accepted steps."""
    calls = {}
    evaluate_list = Tape.evaluate_list

    def count(args):
        metric = args[0].jets.tape()

        def counted(self, x):
            _tally(calls, "stages" if self.var_names[-1].startswith("_v") else (
                "metric" if self is metric else "other"), 1)
            return evaluate_list(self, x)

        calls.clear()
        monkeypatch.setattr(Tape, "evaluate_list", counted)
        _count_chains(monkeypatch, calls)
        traj = geodesic_integrate(*args, energy_tol=energy_tol)
        monkeypatch.undo()
        assert calls.get("stages", 0) == 0
        return traj, dict(calls)

    sphere = (sphere2(), np.array([1.2, 0.0]), np.array([0.3, 1.0]))
    if energy_tol:  # no rejection, 1,000 steps: chains up to CHAIN_CAP long
        traj, got = count(sphere + (1.0, 1e-3))
        steps = len(traj) - 1
        assert (traj.halvings, steps, got.get("other", 0)) == (0, 1000, 0)
        assert (got["step"], got["metric"]) == (steps, steps + 1)
    rejecting = ([_heisenberg_geodesic(0.2), _bump_geodesic(0.05, 3.0)] if energy_tol
                 else [sphere + (0.02, 0.01)])
    for args in rejecting:
        traj, got = count(args)
        assert traj.halvings > 0 and got.get("other", 0) == 0
        assert got["step"] <= _oracle_substeps(args, energy_tol) + len(traj) - 1
    # the 2-step sphere run at tolerance 0 halves every step 12 times
    traj, got = count(sphere + (0.02, 0.01))
    assert traj.halvings == (0 if energy_tol else 24)
    assert got["metric"] == len(traj) + traj.halvings


def test_the_budget_counts_the_nonfinite_sub_steps_it_runs(monkeypatch):
    """The sqrt plane repels geodesics from x = 0.5.  At tolerance 0 each
    step of a geodesic from x = 0.6 along (-0.2, 1) runs its 12 halvings,
    and coarse sub-steps of its steps of 2 reach past x = 0.5, where they
    are non-finite.  The integration stops when the RK4 steps it has run,
    those among them, reach its budget of 8 * 3 + 2**14."""
    calls = {}
    _count_chains(monkeypatch, calls)
    with pytest.raises(GeometryError, match="budget of 16408 RK4 sub-steps at t=4.0$"):
        geodesic_integrate(_sqrt_plane(), np.array([0.6, 0.0]), np.array([-0.2, 1.0]), 6.0, 2.0,
                           energy_tol=0.0)
    assert (calls["step"], calls["nonfinite"]) == (8 * 3 + 2**14, 2)

# -- the residual reduction -----------------------------------------------------

def _loop_worst(values, skipped):
    """Reference for geometry.worst: a running maximum in which the first
    non-finite value wins and is kept."""
    best = None
    for i, v in enumerate(values):
        if skipped[i]:
            continue
        if best is None or (math.isfinite(values[best])
                            and (not math.isfinite(v) or v > values[best])):
            best = i
    if best is None:
        return 0.0, None, 0
    n_bad = sum(1 for v, s in zip(values, skipped) if not s and not math.isfinite(v))
    return values[best], best, n_bad


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
       st.lists(st.tuples(st.integers(0, 40), st.sampled_from([math.nan, math.inf, -math.inf])),
                max_size=6),
       st.lists(st.booleans(), max_size=50))
def test_worst_matches_the_first_nonfinite_else_first_maximum_loop(values, inserts, skip):
    values = list(values)
    for at, bad in inserts:
        values.insert(min(at, len(values)), bad)
    skipped = [i < len(skip) and skip[i] for i in range(len(values))]
    arr = np.ma.masked_array(np.array(values, dtype=float), mask=skipped)
    value, index, n_bad = worst(arr)
    want, want_index, want_bad = _loop_worst(values, skipped)
    assert (index, n_bad) == (want_index, want_bad)
    assert value == want or (math.isnan(value) and math.isnan(want))
    if not any(skipped):
        assert worst(values)[1:] == (want_index, want_bad)


def test_worst_of_nothing_or_only_skipped_points():
    assert worst([]) == (0.0, None, 0)
    assert worst(np.ma.masked_all(5)) == (0.0, None, 0)
    assert worst(np.ma.masked_array([math.nan, 2.0], mask=[True, False])) == (2.0, 1, 0)


# -- sparse symbolic contraction -------------------------------------------------------

def test_no_structural_zero_reaches_mul_in_a_paper41_run(monkeypatch):
    real_mul = geometry._mul
    calls = []

    def mul(a, b):
        calls.append(is_const(a, 0.0) or is_const(b, 0.0))
        return real_mul(a, b)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("riemcheck")
                and getattr(mod, "_mul", None) is real_mul):
            monkeypatch.setattr(mod, "_mul", mul)
    for entry in names():  # paper-3.1 and paper-4.1 alone now build 73 products
        run_suite(load(entry), points=6)
    assert len(calls) > 100 and not any(calls)


def test_sym_einsum_visits_nonzero_terms_in_loop_order(monkeypatch):
    real_prod = geometry._prod
    visited = []
    monkeypatch.setattr(geometry, "_prod", lambda *f: visited.append(f) or real_prod(*f))
    A = np.array([[Var("a"), Const(0.0)], [Var("b"), Var("c")]], dtype=object)
    v = np.array([Var("u"), Var("w")], dtype=object)
    # out[k] = sum_l A[k, l] v[l]: row 0 keeps one term, row 1 both in l order
    out = sym_einsum("kl,l->k", A, v)
    assert visited == [(A[0, 0], v[0]), (A[1, 0], v[0]), (A[1, 1], v[1])]
    assert out[0].key() == ("mul", ("v", "a"), ("v", "u"))
    assert out[1].key() == ("add", ("mul", ("v", "b"), ("v", "u")),
                            ("mul", ("v", "c"), ("v", "w")))
    assert sym_einsum("kl,l->k", A, np.array([ZERO, ZERO], dtype=object))[0] is ZERO
    # an accumulator and a sign continue an existing sum term by term
    acc = np.array([Var("s"), ZERO], dtype=object)
    out = sym_einsum("kl,l->k", A, v, acc=acc, sign=-1)
    assert out[0].key() == ("sub", ("v", "s"), ("mul", ("v", "a"), ("v", "u")))
    assert out[1].key() == ("sub", ("neg", ("mul", ("v", "b"), ("v", "u"))),
                            ("mul", ("v", "c"), ("v", "w")))


def test_check_domain_counts_a_nonfinite_constraint_as_violated():
    chart = Chart("D", ["x1", "x2"], constraints=[(parse("sqrt(x1)"), "positive"),
                                                  (parse("1/x2"), "nonzero")])
    chart.check_domain([0.25, 0.5])
    with pytest.raises(ChartDomainError, match=r"constraint sqrt\(x1\) > 0 violated"):
        chart.check_domain([-0.25, 0.5])
    with pytest.raises(ChartDomainError, match=r"constraint 1/x2 != 0 violated"):
        chart.check_domain([0.25, 0.0])
