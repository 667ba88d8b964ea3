"""Almost-complex-structure checks on flat space, the 2-sphere, and the
worked examples (where the declared structures fail the parallelism
condition and the engine must say so)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemcheck import structure
from riemcheck.catalog import load
from riemcheck.expr import Const, parse
from riemcheck.geometry import Chart, Jets, MetricField, VectorField, worst
from riemcheck.structure import (
    AlmostComplexStructure,
    anti_invariant_residual,
    bc_split,
    complement_frames,
    hermitian_residual,
    kahler_residual,
    square_residual,
)
from riemcheck.suites import run_suite

from paper_fixtures import diag_metric, example31, example41, vf


@pytest.fixture(scope="module")
def ex31():
    return example31()


@pytest.fixture(scope="module")
def ex41():
    return example41()


def flat_J2():
    M = Chart("C1", ["x1", "x2"])
    g = diag_metric(M, ["1", "1"])
    J = AlmostComplexStructure(M, np.array([[Const(0.0), Const(-1.0)],
                                            [Const(1.0), Const(0.0)]], dtype=object))
    return g, J


def sphere_J():
    M = Chart("S2J", ["theta", "phi"])
    g = MetricField(M, np.array([[M.parse("1"), Const(0.0)],
                                 [Const(0.0), M.parse("sin(theta)^2")]], dtype=object))
    e1 = vf(M, ["1", "0"], "e1")
    e2 = VectorField(M, [Const(0.0), M.parse("1/sin(theta)")], name="e2")
    act = np.array([[Const(0.0), Const(-1.0)], [Const(1.0), Const(0.0)]], dtype=object)
    J = AlmostComplexStructure.from_frame(g, [e1, e2], act)
    return g, J


def test_flat_hermitian_structure():
    g, J = flat_J2()
    pts = g.chart.sample_points(20, seed=1)
    assert worst(square_residual(J, pts))[0] <= 1e-14
    assert worst(hermitian_residual(g, J, pts))[0] <= 1e-14
    res = worst(kahler_residual(g, J, pts))[0]
    assert res <= 1e-14


def test_scaled_J_fails_square_residual():
    g, J = flat_J2()
    J2 = AlmostComplexStructure(g.chart, 2.0 * np.vectorize(lambda e: e)(J.mat))
    pts = g.chart.sample_points(10, seed=2)
    # (2J)^2 = -4I, so J^2 + I = -3I: residual 3 at every point
    assert worst(square_residual(J2, pts))[0] == pytest.approx(3.0, abs=1e-12)


def test_sphere_rotation_structure_is_kahler():
    g, J = sphere_J()
    pts = g.chart.sample_points(25, seed=3, box=(0.3, 1.2))
    assert worst(square_residual(J, pts))[0] <= 1e-10
    assert worst(hermitian_residual(g, J, pts))[0] <= 1e-10
    res = worst(kahler_residual(g, J, pts))[0]
    assert res <= 1e-10  # every oriented surface is Kaehler


def test_example31_J_is_hermitian_not_kahler(ex31):
    mg, J, f = ex31
    pts = mg.gM.chart.sample_points(30, seed=4)
    assert worst(square_residual(J, pts))[0] <= 1e-12
    assert worst(hermitian_residual(mg.gM, J, pts))[0] <= 1e-12
    res = worst(kahler_residual(mg.gM, J, pts))[0]
    # hand computation: (nabla_{U1} J) U1 = U2 has unit length
    assert res >= 0.99


def test_example31_nabla_J_value(ex31):
    from riemcheck.structure import nabla_J
    mg, J, f = ex31
    x = mg.gM.chart.sample_points(1, seed=5)[0]
    NJ = nabla_J(mg.gM, J, x[None])[0]
    sp = mg.split_at(x)
    U1, U2 = sp.vertical
    v = np.einsum("klj,l,j->k", NJ, U1, U1)
    assert np.allclose(v, U2, atol=1e-10)  # (nabla_{U1} J) U1 = U2


def test_example41_Jprime_is_hermitian_not_kahler(ex41):
    mg, Jp, g = ex41
    ypts = mg.F.values(mg.gM.chart.sample_points(30, seed=6))
    assert worst(square_residual(Jp, ypts))[0] <= 1e-12
    assert worst(hermitian_residual(mg.gN, Jp, ypts))[0] <= 1e-12
    res = worst(kahler_residual(mg.gN, Jp, ypts))[0]
    assert res >= 0.99  # (nabla_{e3'} J') e3' = e6' has unit length


def test_anti_invariance_examples(ex31, ex41):
    mg31, J, _ = ex31
    pts = mg31.gM.chart.sample_points(30, seed=7)
    res, degenerate = anti_invariant_residual(mg31, J, pts, "source")
    res = worst(res)[0]
    assert res <= 1e-10 and not degenerate

    mg41, Jp, _ = ex41
    pts = mg41.gM.chart.sample_points(30, seed=8)
    res, degenerate = anti_invariant_residual(mg41, Jp, pts, "target")
    res = worst(res)[0]
    assert res <= 1e-10 and not degenerate


def test_identity_map_anti_invariance_is_degenerate():
    M = Chart("I2s", ["x1", "x2"])
    g = diag_metric(M, ["1", "1"])
    from riemcheck.rmap import MapGeometry, SmoothMap
    F = SmoothMap(M, M, [M.parse("x1"), M.parse("x2")])
    mg = MapGeometry(F, g, g)
    _, J = flat_J2()
    Jm = AlmostComplexStructure(M, J.mat)
    _, degenerate = anti_invariant_residual(mg, Jm, M.sample_points(5, seed=9), "source")
    assert degenerate


# -- B/C and P/Q splits ------------------------------------------------------------

def _project(v, rows, G):
    """G-orthogonal projection of v onto the span of orthonormal rows."""
    return (rows @ G @ v) @ rows if len(rows) else np.zeros_like(v)


def _norm(v, G):
    return float(np.sqrt(abs(v @ G @ v)))


def test_decompose_BC_example31(ex31):
    mg, J, f = ex31
    x = mg.gM.chart.sample_points(1, seed=10)[0]
    sp = mg.split_at(x)
    X1, X2, X3, X4 = sp.horizontal
    U1, U2 = sp.vertical
    G = mg.gM.values(x)[0]
    Jx = J.values(x)[0]
    mu = complement_frames(mg, J, x[None], "source")[0]

    BX, CX = bc_split(Jx, X1, sp.vertical, G)
    assert np.allclose(BX, -U1, atol=1e-10)  # J X1 = -U1: all vertical
    assert np.max(np.abs(CX)) <= 1e-10

    BX, CX = bc_split(Jx, X3, sp.vertical, G)
    assert np.max(np.abs(BX)) <= 1e-10
    assert np.allclose(CX, X4, atol=1e-10)   # J X3 = X4 lies in mu
    assert _norm(CX - _project(CX, mu, G), G) <= 1e-8  # CX stays in mu

    # orthogonality and idempotence
    assert abs(BX @ G @ CX) <= 1e-10
    _, CX2 = bc_split(Jx, X3, sp.vertical, G)
    assert np.allclose(CX, CX2, atol=1e-12)


def test_decompose_BC_lagrangian_has_no_C():
    # flat Lagrangian toy: R^4 -> R^2 with J swapping ker and horizontal
    M = Chart("L4", ["x1", "x2", "x3", "x4"])
    N = Chart("L2", ["y1", "y2"])
    gM, gN = diag_metric(M, ["1"] * 4), diag_metric(N, ["1"] * 2)
    from riemcheck.rmap import AdaptedFrames, MapGeometry, SmoothMap
    F = SmoothMap(M, N, [M.parse("x3"), M.parse("x4")])
    frames = AdaptedFrames(
        vertical=[vf(M, ["1", "0", "0", "0"]), vf(M, ["0", "1", "0", "0"])],
        horizontal=[vf(M, ["0", "0", "1", "0"]), vf(M, ["0", "0", "0", "1"])],
        range_=[vf(N, ["1", "0"]), vf(N, ["0", "1"])], normal=[])
    mg = MapGeometry(F, gM, gN, frames)
    Jm = np.array([[0, 0, -1, 0], [0, 0, 0, -1],
                   [1, 0, 0, 0], [0, 1, 0, 0]], dtype=object)
    J = AlmostComplexStructure(M, Jm)
    x = np.array([0.3, 0.4, 0.5, 0.6])
    mu = complement_frames(mg, J, x[None], "source")[0]
    assert mu.shape[0] == 0  # Lagrangian: mu = 0
    _, CX = bc_split(J.values(x)[0], np.array([0.0, 0.0, 1.0, 0.0]),
                     mg.split_at(x).vertical, gM.values(x)[0])
    assert np.max(np.abs(CX)) <= 1e-12


def test_decompose_PQ_example41(ex41):
    mg, Jp, g = ex41
    x = mg.gM.chart.sample_points(1, seed=11)[0]
    sp = mg.split_at(x)
    e1p, e3p, e4p, e6p = sp.normal
    e2p, e5p = sp.range
    G = mg.gN.values(sp.y)[0]
    nu = complement_frames(mg, Jp, x[None], "target")[0]

    def normal_gap(D):
        return _norm(D - _project(D, sp.normal, G), G)

    def PQ(D):
        """J'D = PD + QD with PD in range F_* and QD in nu, for normal D."""
        assert normal_gap(D) <= 1e-8
        JD = Jp.values(sp.y)[0] @ D
        PD, QD = _project(JD, sp.range, G), _project(JD, nu, G)
        assert _norm(JD - PD - QD, G) <= 1e-8  # J'D stays in range + nu
        return PD, QD

    # J' e1' = e2' = F_* X1 in range: P e1' = e2', Q e1' = 0
    PD, QD = PQ(e1p)
    assert np.allclose(PD, e2p, atol=1e-10)
    assert np.max(np.abs(QD)) <= 1e-10

    # J' e3' = e4' in nu: P = 0, Q = e4'
    PD, QD = PQ(e3p)
    assert np.max(np.abs(PD)) <= 1e-10
    assert np.allclose(QD, e4p, atol=1e-10)
    assert abs(PD @ G @ QD) <= 1e-10

    assert nu.shape[0] == 2  # nu = span{e3' rotated pair} has dimension 2

    assert normal_gap(e2p) > 1e-8  # range vector is not normal


def test_frame_and_coordinate_J_give_same_residuals():
    # constant structure declared both ways on flat R^2
    g, Jcoord = flat_J2()
    e1 = vf(g.chart, ["1", "0"])
    e2 = vf(g.chart, ["0", "1"])
    act = np.array([[Const(0.0), Const(-1.0)], [Const(1.0), Const(0.0)]], dtype=object)
    Jframe = AlmostComplexStructure.from_frame(g, [e1, e2], act)
    pts = g.chart.sample_points(15, seed=12)
    assert abs(worst(square_residual(Jcoord, pts))[0]
               - worst(square_residual(Jframe, pts))[0]) <= 1e-12
    assert abs(worst(hermitian_residual(g, Jcoord, pts))[0]
               - worst(hermitian_residual(g, Jframe, pts))[0]) <= 1e-12
    ra = worst(kahler_residual(g, Jcoord, pts))[0]
    rb = worst(kahler_residual(g, Jframe, pts))[0]
    assert abs(ra - rb) <= 1e-12


def test_nabla_J_is_built_once_per_metric_and_structure(monkeypatch):
    """nabla J comes from one jet tape per structure (the first-order tape of
    its tensor's `Jets`), built once in a run, and from Gamma of the metric's
    arrays at the point set."""
    cfg = load("paper-3.1")
    structures = [J for _, J in cfg.structures.values()]
    real = Jets.tape
    built = Counter()

    def jet_tape(self, order=0):
        for J in structures:
            if order and order not in self._tapes and self is J._tensor.jets:
                built[id(J)] += 1
        return real(self, order)

    monkeypatch.setattr(Jets, "tape", jet_tape)
    run_suite(cfg, points=6)
    assert len(built) == len(structures) and set(built.values()) == {1}


# -- batched complement frames ---------------------------------------------------------

def _complement_frames_per_point(G, jin, outer):
    """The oracle: complement_frames' Gram-Schmidt as a loop over points and
    vectors, the form it had before it was batched over the points."""
    frames = []
    for Gp, jp, op in zip(G, jin, outer):
        out = []
        for e in op:
            w = e.copy()
            for u in jp:
                w = w - (u @ Gp @ w) / (u @ Gp @ u) * u
            for u in out:
                w = w - (u @ Gp @ w) * u
            n2 = float(w @ Gp @ w)
            if n2 > 1e-9:
                out.append(w / np.sqrt(n2))
        frames.append(np.array(out) if out else np.zeros((0, G.shape[-1])))
    return frames


def _assert_same_frames(got, want):
    """The batched frames are the per-point ones bit for bit, followed by
    zero rows up to the largest dimension."""
    assert got.shape == (len(want), max((len(f) for f in want), default=0),
                         want[0].shape[1])
    for rows, frame in zip(got, want):
        assert rows[:len(frame)].tobytes() == frame.tobytes()
        assert not rows[len(frame):].any()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), P=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_batched_complement_frames_match_the_per_point_loop(n, P, seed, data):
    r = data.draw(st.integers(0, n - 1), label="r")
    h = data.draw(st.integers(0, n), label="h")
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(P, n, n))
    G = L @ L.transpose(0, 2, 1) + n * np.eye(n)
    jin, outer = rng.normal(size=(P, r, n)), rng.normal(size=(P, h, n))
    # rows that the Gram-Schmidt drops at some points only: a multiple of a
    # J-image row, or a repeated earlier row
    for p, a in np.ndindex(P, h):
        pick = data.draw(st.sampled_from(["keep", "jin", "repeat"]), label="row")
        if pick == "jin" and r:
            outer[p, a] = 2.0 * jin[p, 0]
        elif pick == "repeat" and a:
            outer[p, a] = outer[p, a - 1]
    _assert_same_frames(structure._complement_rows(G, jin, outer),
                        _complement_frames_per_point(G, jin, outer))


@pytest.mark.parametrize("entry", ["paper-3.1", "paper-4.1", "flat-lagrangian",
                                   "polar-kahler", "warped-clairaut"])
def test_complement_frames_of_catalog_entries_match_the_per_point_loop(entry):
    from riemcheck.rmap import AdaptedFrames, MapGeometry

    cfg = load(entry)
    declared = cfg.map_geometry()
    fr = declared.frames  # without a declared mu or nu, which would be used verbatim
    mg = MapGeometry(declared.F, declared.gM, declared.gN,
                     AdaptedFrames(fr.vertical, fr.horizontal, fr.range, fr.normal))
    pts = mg.gM.chart.sample_points(20, seed=7, box=cfg.check["box"])
    compared = 0
    for side, chart in (("source", mg.F.source), ("target", mg.F.target)):
        J = cfg.structure_on(chart.name)
        if J is None:
            continue
        G, at, inner, outer = structure._side(mg, mg.split(pts), side)
        jin = np.matmul(J.values(at), inner.transpose(0, 2, 1)).transpose(0, 2, 1)
        _assert_same_frames(complement_frames(mg, J, pts, side),
                            _complement_frames_per_point(G, jin, outer))
        compared += 1
    assert compared
