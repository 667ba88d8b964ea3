"""Soliton, Einstein, conformal and Clairaut checks."""

import math

import numpy as np
import pytest

from riemcheck.expr import Const, parse
from riemcheck.geometry import Chart, MetricField, VectorField, ricci, worst
from riemcheck.soliton import (
    SolitonConfig,
    SolitonError,
    check_clairaut_source,
    check_clairaut_target,
    check_conformal,
    fit_einstein,
    scalar_relation,
    solve_lambda,
    soliton_residual,
)

from paper_fixtures import diag_metric, example31, example41, vf
from test_geometry import euclidean, sphere2


@pytest.fixture(scope="module")
def ex31():
    return example31()


@pytest.fixture(scope="module")
def ex41():
    return example41()


def test_soliton_residual_keeps_a_nonfinite_point():
    """f = |x|^2/2 + 1e-30 sqrt(x1 - 0.5) on flat R^2 solves the soliton
    equation with lambda = -1 wherever x1 > 0.5; elsewhere Hess f is NaN,
    and the first such point must be the worst one."""
    g = diag_metric(Chart("R2nan", ["x1", "x2"]), ["1", "1"])
    f = g.chart.parse("0.5*(x1^2 + x2^2) + 1e-30*sqrt(x1 - 0.5)")
    pts = g.chart.sample_points(40, seed=7)
    bad = np.flatnonzero(pts[:, 0] < 0.5)
    assert pts[0, 0] > 0.5 and len(bad)
    res, wp, _ = worst(soliton_residual(SolitonConfig(g, f=f, alpha=1.0, lam=-1.0), points=pts))
    assert math.isnan(res)
    assert wp == bad[0]


def test_flat_steady_soliton():
    g = euclidean(3)
    zero = VectorField(g.chart, [Const(0.0)] * 3)
    cfg = SolitonConfig(g, xi=zero, alpha=1.0, lam=0.0)
    res = worst(soliton_residual(cfg, points=g.chart.sample_points(20, seed=1)))[0]
    assert res <= 1e-14
    lam, spread, _ = solve_lambda(cfg, points=g.chart.sample_points(20, seed=2))
    assert abs(lam) <= 1e-12 and spread <= 1e-12


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
def test_gaussian_soliton(c):
    g = euclidean(3)
    xi = VectorField(g.chart, [g.chart.parse(f"{c}*x{i+1}") for i in range(3)])
    cfg = SolitonConfig(g, xi=xi, alpha=1.0)
    pts = g.chart.sample_points(25, seed=3)
    lam, spread, _ = solve_lambda(cfg, points=pts)
    assert lam == pytest.approx(-c, abs=1e-10)
    assert spread <= 1e-9
    res = worst(soliton_residual(cfg, points=pts, lam=-c))[0]
    assert res <= 1e-10
    # gradient form: xi = grad(c |x|^2 / 2)
    cfg2 = SolitonConfig(g, f=g.chart.parse(f"{c}*(x1^2 + x2^2 + x3^2)/2"), alpha=1.0)
    lam2, spread2, _ = solve_lambda(cfg2, points=pts)
    assert lam2 == pytest.approx(-c, abs=1e-10) and spread2 <= 1e-9


def test_sphere_einstein_lambda():
    g = sphere2()
    zero = VectorField(g.chart, [Const(0.0)] * 2)
    cfg = SolitonConfig(g, xi=zero, alpha=1.0)
    pts = g.chart.sample_points(25, seed=4, box=(0.3, 1.2))
    lam, spread, _ = solve_lambda(cfg, points=pts)
    assert lam == pytest.approx(-1.0, abs=1e-8)
    assert spread <= 1e-8


def test_soliton_lie_term_scales_linearly(ex31):
    mg, J, f = ex31
    g = mg.gM
    xi = vf(g.chart, ["x2", "0", "x4", "0", "1", "0"])
    xi2 = vf(g.chart, ["2*x2", "0", "2*x4", "0", "2", "0"])
    pts = g.chart.sample_points(10, seed=5)
    c1 = SolitonConfig(g, xi=xi, alpha=1.0, lam=0.0)
    c2 = SolitonConfig(g, xi=xi2, alpha=1.0, lam=0.0)
    L1, R1, G1 = c1.term_values(pts)
    L2, R2, G2 = c2.term_values(pts)
    assert np.max(np.abs(L2 - 2.0 * L1)) <= 1e-12
    assert np.max(np.abs(R2 - R1)) <= 1e-12


def test_solve_lambda_underdetermined_errors():
    g = euclidean(2)
    zero = VectorField(g.chart, [Const(0.0)] * 2)
    cfg = SolitonConfig(g, xi=zero)
    null = [VectorField(g.chart, [Const(0.0), Const(0.0)])]
    with pytest.raises(SolitonError):
        solve_lambda(cfg, restriction=null, points=g.chart.sample_points(5, seed=6))


def test_config_validation():
    g = euclidean(2)
    with pytest.raises(SolitonError):
        SolitonConfig(g)  # neither xi nor f
    with pytest.raises(SolitonError):
        SolitonConfig(g, xi=VectorField(g.chart, [Const(0.0)] * 2),
                      f=parse("x1"))
    with pytest.raises(SolitonError):
        SolitonConfig(g, xi=VectorField(g.chart, [Const(0.0)] * 2), alpha=0.0)


# -- einstein fit -------------------------------------------------------------------

def test_fit_einstein_flat_and_sphere():
    g = euclidean(2)
    pts = g.chart.sample_points(10, seed=7)
    ric = np.zeros((10, 2, 2))
    gv = g.values(pts)
    frames = np.array([np.eye(2)] * 10)
    lam, res = fit_einstein(ric, gv, frames)
    assert lam == 0.0 and res == 0.0

    gs = sphere2()
    pts = gs.chart.sample_points(10, seed=8, box=(0.3, 1.2))
    ric = ricci(gs, pts)
    gv = gs.values(pts)
    frames = np.array([np.linalg.inv(np.linalg.cholesky(gv[p])) for p in range(10)])
    lam, res = fit_einstein(ric, gv, frames)
    assert lam == pytest.approx(-1.0, abs=1e-9)  # Ric + lam g = 0 with lam = -1
    assert res <= 1e-9


def test_fit_einstein_detects_non_einstein():
    # product of unit sphere and flat line: Ricci eigenvalues (1, 1, 0)
    chart = Chart("SxR", ["theta", "phi", "z"])
    mat = np.empty((3, 3), dtype=object)
    entries = ["1", "sin(theta)^2", "1"]
    for i in range(3):
        for j in range(3):
            mat[i, j] = chart.parse(entries[i]) if i == j else Const(0.0)
    g = MetricField(chart, mat)
    pts = chart.sample_points(10, seed=9, box=(0.3, 1.2))
    ric = ricci(g, pts)
    gv = g.values(pts)
    frames = np.array([np.linalg.inv(np.linalg.cholesky(gv[p])) for p in range(10)])
    lam, res = fit_einstein(ric, gv, frames)
    assert res >= 0.5


# -- conformal ----------------------------------------------------------------------

def test_conformal_killing_and_euler_fields():
    g = euclidean(2)
    pts = g.chart.sample_points(15, seed=10)
    rot = VectorField(g.chart, [parse("-x2"), parse("x1")])
    phis, res = check_conformal(g, rot, points=pts)
    res = worst(res)[0]
    assert res <= 1e-12 and np.max(np.abs(phis)) <= 1e-12

    euler = VectorField(g.chart, [parse("x1"), parse("x2")])
    phis, res = check_conformal(g, euler, points=pts)
    res = worst(res)[0]
    assert res <= 1e-12
    assert np.allclose(phis, 2.0, atol=1e-12)

    bad = VectorField(g.chart, [parse("x2^2"), Const(0.0)])
    phis, res = check_conformal(g, bad, points=pts)
    res = worst(res)[0]
    assert res >= 0.1


def test_conformal_negation_negates_phi():
    g = euclidean(2)
    pts = g.chart.sample_points(10, seed=11)
    X = VectorField(g.chart, [parse("x1 + 0.3*x2"), parse("x2")])
    Xn = VectorField(g.chart, [parse("-(x1 + 0.3*x2)"), parse("-x2")])
    p1, _ = check_conformal(g, X, points=pts)
    p2, _ = check_conformal(g, Xn, points=pts)
    assert np.max(np.abs(p1 + p2)) <= 1e-12


# -- clairaut -----------------------------------------------------------------------

def test_clairaut_source_example31(ex31):
    mg, J, f = ex31
    pts = mg.gM.chart.sample_points(50, seed=12)
    res, umb = (worst(r)[0] for r in check_clairaut_source(mg, f, pts))
    assert res <= 1e-10
    assert umb <= 1e-10
    # wrong dilation fails decisively
    res_bad = worst(check_clairaut_source(mg, mg.gM.chart.parse("x5"), pts)[0])[0]
    assert res_bad >= 0.9


def test_clairaut_source_totally_geodesic_with_constant_f():
    from test_rmap import flat_projection
    mg = flat_projection()
    res, umb = (worst(r)[0] for r in check_clairaut_source(
        mg, Const(0.25), mg.gM.chart.sample_points(10, seed=13)))
    assert res <= 1e-14 and umb <= 1e-14


def test_clairaut_target_example41(ex41):
    mg, Jp, gfun = ex41
    pts = mg.gM.chart.sample_points(50, seed=14)
    res, umb = (worst(r)[0] for r in check_clairaut_target(mg, gfun, pts))
    assert res <= 1e-8
    assert umb <= 1e-8
    # wrong dilation g = y2 fails
    res_bad, umb_bad = (worst(r)[0] for r in check_clairaut_target(
        mg, mg.gN.chart.parse("y2"), pts))
    assert max(res_bad, umb_bad) > 0.5


# -- scalar relations ----------------------------------------------------------------

def test_scalar_relation_arithmetic():
    lhs, rhs, diff = scalar_relation("range_soliton", 0.0, {"lam": 0.0, "r0": 2})
    assert lhs == rhs == diff == 0.0
    lhs, rhs, diff = scalar_relation("ker_einstein", -4.0, {"lam": 2.0, "r0": 2})
    assert rhs == -4.0 and diff == 0.0
    lhs, rhs, diff = scalar_relation("rangeperp_einstein", 3.0,
                                     {"lam": 1.0, "Dg": 0.5, "n1": 2})
    assert rhs == -3.0 and diff == 6.0
    lhs, rhs, diff = scalar_relation("range_lagrangian", 0.0,
                                     {"lam": 0.0, "m": 4, "r0": 2})
    assert diff == 0.0
    with pytest.raises(SolitonError):
        scalar_relation("nope", 0.0, {})


def test_scalar_relation_takes_one_value_per_point():
    lhs, rhs, diff = scalar_relation("ker_einstein", np.array([-4.0, -3.0, np.nan]),
                                     {"lam": 2.0, "r0": 2})
    assert rhs == -4.0 and lhs.shape == (3,)
    assert np.array_equal(diff, [0.0, 1.0, np.nan], equal_nan=True)
