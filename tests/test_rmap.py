"""Riemannian-map machinery on the worked examples and synthetic maps."""

import math

import numpy as np
import pytest

from riemcheck.expr import Const, parse
from riemcheck.geometry import Chart, Jets, MetricField, VectorField, worst
from riemcheck.rmap import (
    AdaptedFrames,
    FramesRequired,
    MapError,
    MapGeometry,
    SmoothMap,
    connection_on_pairs,
    fiber_mean_curvature,
    field_jet,
    isometry_residual,
    pushforward_field,
    umbilical_fit,
    vertical_frames,
)

from paper_fixtures import diag_metric, example31, example41, vf
from source_calculus_oracle import covariant_derivative


@pytest.fixture(scope="module")
def ex31():
    return example31()


@pytest.fixture(scope="module")
def ex41():
    return example41()


def pts31(mg, n=30, seed=2):
    return mg.gM.chart.sample_points(n, seed=seed)


def flat_projection():
    """R^4 -> R^2, (x1..x4) -> (x3, x4), flat metrics: a totally geodesic
    Riemannian submersion with flat fibers."""
    M = Chart("FP4", ["x1", "x2", "x3", "x4"])
    N = Chart("FP2", ["y1", "y2"])
    gM = diag_metric(M, ["1"] * 4)
    gN = diag_metric(N, ["1"] * 2)
    F = SmoothMap(M, N, [M.parse("x3"), M.parse("x4")],
                  section=[N.parse(c) for c in ("0", "0", "y1", "y2")])
    frames = AdaptedFrames(
        vertical=[vf(M, ["1", "0", "0", "0"]), vf(M, ["0", "1", "0", "0"])],
        horizontal=[vf(M, ["0", "0", "1", "0"]), vf(M, ["0", "0", "0", "1"])],
        range_=[vf(N, ["1", "0"]), vf(N, ["0", "1"])],
        normal=[])
    return MapGeometry(F, gM, gN, frames)


# -- pushforward ---------------------------------------------------------------

def pushforward(F, X, x):
    """(F_* X)^a = (dF^a/dx^i) X^i at the point x, from the Jacobian and the
    field values of the one-point set."""
    return F.jac_values(x[None])[0] @ X.values(x[None])[0]


def test_pushforward_example31(ex31):
    mg, J, f = ex31
    for x in pts31(mg, 5):
        y = mg.F.values(x)[0]
        # F_* X1 = e2' at matching points
        got = pushforward(mg.F, mg.frames.horizontal[0], x)
        expect = mg.frames.range[0].values(y)[0]
        assert np.allclose(got, expect, atol=1e-12)
        # vertical fields push to zero
        for U in mg.frames.vertical:
            assert np.max(np.abs(pushforward(mg.F, U, x))) <= 1e-12


def test_pushforward_example41(ex41):
    mg, Jp, g = ex41
    for x in mg.gM.chart.sample_points(5, seed=3):
        y = mg.F.values(x)[0]
        got = pushforward(mg.F, mg.frames.horizontal[1], x)  # X2
        expect = mg.frames.range[1].values(y)[0]               # e5'
        assert np.allclose(got, expect, atol=1e-12)


def test_pushforward_field_requires_section():
    M = Chart("A", ["x1"])
    N = Chart("B", ["y1"])
    F = SmoothMap(M, N, [M.parse("x1")])
    with pytest.raises(MapError):
        pushforward_field(F, VectorField(M, [Const(1.0)]))


def test_pushforward_along_map(ex31):
    from source_calculus_oracle import pushforward_along
    mg, J, f = ex31
    along = pushforward_along(mg.F, mg.frames.horizontal[0])  # F_* X1
    pts = pts31(mg, 5, seed=30)
    vals = along.values(pts)
    for i, x in enumerate(pts):
        assert np.allclose(vals[i], pushforward(mg.F, mg.frames.horizontal[0], x),
                           atol=1e-12)


def test_pushforward_field_detects_non_basic(ex31):
    mg, J, f = ex31
    # a field whose pushforward genuinely varies along the fibers
    bad = vf(mg.gM.chart, ["0", "x1", "0", "0", "0", "0"], "bad")
    with pytest.raises(MapError):
        pushforward_field(mg.F, bad, validate_points=pts31(mg, 5, seed=31))
    # while a basic field passes validation
    good = vf(mg.gM.chart, ["0", "0", "0", "1", "0", "0"], "good")
    pushed = pushforward_field(mg.F, good, validate_points=pts31(mg, 5, seed=31))
    assert np.allclose(pushed.values(np.array([0.3, 0.4, 0.5, 0.6, 0.7, 0.8]))[0],
                       [0, 0, 0, 1, 0, 0])


def test_pushforward_field_rejects_non_finite_gap():
    # X is NaN wherever x1 < 0.5, so its basic-ness cannot be established
    M = Chart("Mnan", ["x1", "x2"])
    N = Chart("Nnan", ["y1"])
    F = SmoothMap(M, N, [parse("x1")], name="Fnan", section=[parse("y1"), Const(0.5)])
    X = vf(M, ["1 + 1e-30*sqrt(x1 - 0.5)", "0"], "Xnan")
    pts = M.sample_points(20, seed=7)
    assert np.any(pts[:, 0] < 0.5)
    with pytest.raises(MapError, match="not basic"):
        pushforward_field(F, X, validate_points=pts)


# -- splittings ------------------------------------------------------------------

def test_splittings_example31_kernel(ex31):
    mg, J, f = ex31
    x = pts31(mg, 1)[0]
    sp = mg.split_at(x)
    assert len(sp.vertical) == 2 and len(sp.horizontal) == 4
    assert len(sp.range) == 4 and len(sp.normal) == 2
    # kernel is span{d1, d3}: components 2,4,5,6 vanish
    assert np.max(np.abs(sp.vertical[:, [1, 3, 4, 5]])) <= 1e-12
    # normal is span{dy3, dy5}
    assert np.max(np.abs(sp.normal[:, [0, 1, 3, 5]])) <= 1e-12


def test_splittings_computed_vs_declared(ex31):
    mg, J, f = ex31
    bare = MapGeometry(mg.F, mg.gM, mg.gN)  # no declared frames
    for x in pts31(mg, 5, seed=8):
        a = mg.split_at(x)
        b = bare.split_at(x)
        GM = mg.gM.values(x)[0]
        GN = mg.gN.values(a.y)[0]
        for (decl, comp, G) in ((a.vertical, b.vertical, GM),
                                (a.horizontal, b.horizontal, GM),
                                (a.range, b.range, GN),
                                (a.normal, b.normal, GN)):
            assert decl.shape == comp.shape
            # same span: projectors agree
            P1 = decl.T @ (decl @ G)
            P2 = comp.T @ (comp @ G)
            assert np.allclose(P1, P2, atol=1e-9)


def test_split_at_takes_the_kernel_when_only_horizontal_frames_are_declared(ex31):
    mg, J, f = ex31
    horizontal_only = MapGeometry(mg.F, mg.gM, mg.gN,
                                  AdaptedFrames(horizontal=mg.frames.horizontal))
    for x in pts31(mg, 5, seed=8):
        a, b = mg.split_at(x), horizontal_only.split_at(x)
        G = mg.gM.values(x)[0]
        assert b.vertical.shape == a.vertical.shape == (2, 6)
        assert np.allclose(a.vertical.T @ (a.vertical @ G),
                           b.vertical.T @ (b.vertical @ G), atol=1e-9)
        assert np.array_equal(a.horizontal, b.horizontal)


def test_vertical_frames_reject_a_kernel_that_changes_dimension():
    pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    G = np.broadcast_to(np.eye(2), (3, 2, 2))
    J = np.array([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0]]])
    assert vertical_frames(pts[:2], G[:2], J[:2]).shape == (2, 1, 2)
    with pytest.raises(MapError, match=r"from 1 to 2 at point \[0\.5, 0\.6\]"):
        vertical_frames(pts, G, J)


def test_identity_map_has_empty_kernel():
    M = Chart("I2", ["x1", "x2"])
    g = diag_metric(M, ["1", "1"])
    F = SmoothMap(M, M, [M.parse("x1"), M.parse("x2")])
    mg = MapGeometry(F, g, g)
    sp = mg.split_at(np.array([0.3, 0.4]))
    assert len(sp.vertical) == 0
    assert len(sp.horizontal) == 2
    assert mg.require_constant_rank(M.sample_points(10, seed=1)) == 2


def test_declared_frame_validation_catches_bad_frames(ex31):
    mg, J, f = ex31
    bad = AdaptedFrames(vertical=[mg.frames.horizontal[0]])  # not in kernel
    bmg = MapGeometry(mg.F, mg.gM, mg.gN, bad)
    with pytest.raises(MapError):
        bmg.validate_frames(pts31(mg, 5))
    mg.validate_frames(pts31(mg, 10))  # the real frames validate cleanly


# -- isometry ---------------------------------------------------------------------

def test_riemannian_map_residual_examples(ex31, ex41):
    for mg in (ex31[0], ex41[0]):
        pts = mg.gM.chart.sample_points(100, seed=5)
        res = worst(isometry_residual(mg, pts))[0]
        assert res <= 1e-10


def test_riemannian_map_fails_on_scaled_target(ex31):
    mg, J, f = ex31
    scaled = MetricField(mg.gN.chart, 4.0 * np.vectorize(lambda e: e)(mg.gN.mat))
    # scaling the target metric by 4 breaks the isometry by 3 per unit pair,
    # but the pushed frame is no longer orthonormal; use computed splittings
    bad = MapGeometry(mg.F, mg.gM, scaled)
    res = worst(isometry_residual(bad, pts31(mg, 20)))[0]
    assert res >= 0.9


def test_constant_map_is_degenerate():
    M = Chart("C2", ["x1", "x2"])
    N = Chart("D2", ["y1", "y2"])
    gM, gN = diag_metric(M, ["1", "1"]), diag_metric(N, ["1", "1"])
    F = SmoothMap(M, N, [Const(0.25), Const(0.75)])
    mg = MapGeometry(F, gM, gN)
    sp = mg.split_at(np.array([0.3, 0.4]))
    assert len(sp.horizontal) == 0  # vacuous isometry: no horizontal directions
    res = worst(isometry_residual(mg, M.sample_points(5, seed=2)))[0]
    assert res == 0.0


# -- second fundamental form ---------------------------------------------------------

def test_sff_zero_for_flat_projection():
    mg = flat_projection()
    S = mg.second_fundamental_form(mg.gM.chart.sample_points(5, seed=9))
    assert not S.any()


def test_sff_example31_values(ex31):
    mg, J, f = ex31
    pts = pts31(mg, 20, seed=9)
    Sv = mg.second_fundamental_form(pts)
    for p, x in enumerate(pts):
        sp = mg.split_at(x)
        GN = mg.gN.values(sp.y)[0]
        # horizontal pairs: totally geodesic (all zero)
        H = sp.horizontal
        horiz = np.einsum("aij,ki,lj->kla", Sv[p], H, H)
        assert np.max(np.abs(horiz)) <= 1e-10
        # vertical pair (U1, U1): -(exp(-2 x4)) dy4
        V = sp.vertical
        vert = np.einsum("aij,i,j->a", Sv[p], V[0], V[0])
        expect = np.zeros(6)
        expect[3] = -1.0  # -(e^{-2x4}) * e^{2x4} after the orthonormal scaling
        assert np.allclose(vert, expect, atol=1e-10)


def test_sff_range_orthogonality(ex31, ex41):
    # g_N((nabla F_*)(X, Y), F_*Z) = 0 for horizontal X, Y, Z
    for mg, _, _ in (ex31, ex41):
        pts = mg.gM.chart.sample_points(25, seed=10)
        Sv = mg.second_fundamental_form(pts)
        for p, x in enumerate(pts):
            sp = mg.split_at(x)
            GN = mg.gN.values(sp.y)[0]
            H = sp.horizontal
            vals = np.einsum("aij,ki,lj->kla", Sv[p], H, H)
            J = mg.F.jac_values(x[None])[0]
            push = (J @ H.T).T
            inner = np.einsum("kla,ab,mb->klm", vals, GN, push)
            assert np.max(np.abs(inner)) <= 1e-9


def test_sff_example41_lands_in_normal_space(ex41):
    mg, Jp, g = ex41
    pts = mg.gM.chart.sample_points(20, seed=11)
    Sv = mg.second_fundamental_form(pts)
    for p, x in enumerate(pts):
        sp = mg.split_at(x)
        H = sp.horizontal
        vals = np.einsum("aij,ki,lj->kla", Sv[p], H, H)
        # for this map the horizontal second fundamental form vanishes
        assert np.max(np.abs(vals)) <= 1e-10


# -- shape operator --------------------------------------------------------------------

def test_shape_operator_flat_constant_normal():
    mg = flat_projection()
    # no normal directions at all (surjective): declare none -> FramesRequired
    with pytest.raises(FramesRequired):
        mg.shape_tensors(mg.gM.chart.sample_points(2, seed=12))


def test_shape_operator_duality(ex31, ex41):
    # g_N(S_D F_*X, F_*Y) = g_N(D, (nabla F_*)(X, Y))
    for mg, _, _ in (ex31, ex41):
        pts = mg.gM.chart.sample_points(25, seed=12)
        shapes = mg.shape_tensors(pts)
        Sv = mg.second_fundamental_form(pts)
        for p, x in enumerate(pts):
            sp = mg.split_at(x)
            GN = mg.gN.values(sp.y)[0]
            H = sp.horizontal
            Jx = mg.F.jac_values(x[None])[0]
            push = (Jx @ H.T).T
            sffH = np.einsum("aij,ki,lj->kla", Sv[p], H, H)
            for knorm, Skv in enumerate(shapes[p]):
                D = mg.frames.normal[knorm].values(sp.y)[0]
                lhs = np.einsum("ac,kc,ab,lb->kl", Skv, push, GN, push)
                rhs = np.einsum("a,ab,klb->kl", D, GN, sffH)
                assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_shape_operator_example41_e3_vanishes(ex41):
    mg, Jp, g = ex41
    pts = mg.gM.chart.sample_points(10, seed=13)
    Sk = mg.shape_tensors(pts)[:, 1]  # e3'
    for p, x in enumerate(pts):
        sp = mg.split_at(x)
        for V in sp.range:
            assert np.max(np.abs(Sk[p] @ V)) <= 1e-10


# -- O'Neill tensors ---------------------------------------------------------------------

def test_oneill_T_example31_table(ex31):
    mg, J, f = ex31
    pts = pts31(mg, 20, seed=14)
    Tv = mg.oneill_T(pts)
    for p, x in enumerate(pts):
        sp = mg.split_at(x)
        U1 = sp.vertical[0]
        got = np.einsum("kij,i,j->k", Tv[p], U1, U1)
        assert np.allclose(got, [0, 0, 0, 1, 0, 0], atol=1e-10)  # T(U1,U1) = d4


def test_oneill_T_symmetric_on_vertical_pairs(ex31, ex41):
    for mg, _, _ in (ex31, ex41):
        pts = mg.gM.chart.sample_points(25, seed=15)
        Tv = mg.oneill_T(pts)
        for p, x in enumerate(pts):
            sp = mg.split_at(x)
            V = sp.vertical
            vals = np.einsum("kij,ai,bj->abk", Tv[p], V, V)
            assert np.max(np.abs(vals - np.transpose(vals, (1, 0, 2)))) <= 1e-9


def test_oneill_A_example31_and_antisymmetry(ex31):
    mg, J, f = ex31
    pts = pts31(mg, 20, seed=16)
    Av = mg.oneill_A(pts)
    for p, x in enumerate(pts):
        sp = mg.split_at(x)
        H = sp.horizontal
        X1 = H[0]
        got = np.einsum("kij,i,j->k", Av[p], X1, X1)
        assert np.max(np.abs(got)) <= 1e-10  # A(X1, X1) = 0
        vals = np.einsum("kij,ai,bj->abk", Av[p], H, H)
        assert np.max(np.abs(vals + np.transpose(vals, (1, 0, 2)))) <= 1e-9


def test_oneill_skew_symmetry(ex31):
    # g(T_E G, G') = -g(G, T_E G'), likewise for A, for random vectors
    mg, J, f = ex31
    rng = np.random.default_rng(17)
    pts = pts31(mg, 10, seed=18)
    for x in pts:
        GM = mg.gM.values(x)[0]
        Tv = mg.oneill_T(x[None])[0]
        Av = mg.oneill_A(x[None])[0]
        for _ in range(4):
            E, G1, G2 = rng.normal(size=(3, 6))
            for Op in (Tv, Av):
                lhs = np.einsum("kij,i,j,kl,l->", Op, E, G1, GM, G2)
                rhs = np.einsum("kij,i,j,kl,l->", Op, E, G2, GM, G1)
                assert abs(lhs + rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))


def test_lemma1_reassembly(ex31):
    # nabla_V W = T(V, W) + vertical part; nabla_X Y = horizontal part + A(X, Y)
    mg, J, f = ex31
    pts = pts31(mg, 10, seed=19)
    T, A = mg.oneill_T(pts), mg.oneill_A(pts)
    fr = mg.frames
    for V in fr.vertical:
        for W in fr.vertical:
            full = covariant_derivative(mg.gM, V, W)
            for p, x in enumerate(pts):
                fv = full.values(x)[0]
                Tv = np.einsum("kij,i,j->k", T[p], V.values(x)[0], W.values(x)[0])
                sp = mg.split_at(x)
                GM = mg.gM.values(x)[0]
                vpart = np.einsum("ai,ij,j,ak->k", sp.vertical, GM, fv, sp.vertical)
                assert np.allclose(fv, Tv + vpart, atol=1e-10)
    for X in fr.horizontal:
        for Y in fr.horizontal:
            full = covariant_derivative(mg.gM, X, Y)
            for p, x in enumerate(pts):
                fv = full.values(x)[0]
                Avl = np.einsum("kij,i,j->k", A[p], X.values(x)[0], Y.values(x)[0])
                sp = mg.split_at(x)
                GM = mg.gM.values(x)[0]
                hpart = np.einsum("ai,ij,j,ak->k", sp.horizontal, GM, fv, sp.horizontal)
                assert np.allclose(fv, hpart + Avl, atol=1e-10)


def test_oneill_requires_declared_frames(ex31):
    mg, J, f = ex31
    bare = MapGeometry(mg.F, mg.gM, mg.gN)
    with pytest.raises(FramesRequired):
        bare.oneill_T(pts31(mg, 2))


# -- nabla of O'Neill tensors ---------------------------------------------------------

def test_nabla_T_flat_product_vanishes():
    mg = flat_projection()
    NT = mg.nabla_oneill("T", mg.gM.chart.sample_points(5, seed=9))
    assert not NT.any()


def test_nabla_T_example31_against_closed_form(ex31):
    """The O'Neill T of this map satisfies T(U,V) = -g(U,V) grad f on
    vertical pairs.  Differentiating that *closed form* as a global tensor
    gives -g(U,V) nabla_X grad f; the covariant derivative of the actual
    projection-extended T differs from it exactly by the cross terms the
    projections create.  Both are checked."""
    mg, J, f = ex31
    g = mg.gM
    from riemcheck.geometry import gradient, sym_zeros
    from source_calculus_oracle import covariant_derivative_tensor
    from riemcheck.expr.nodes import Mul, Neg
    gradf = gradient(g, f)
    n = 6
    closed = sym_zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                closed[k, i, j] = g._simp(Neg(Mul(g.mat[i, j], gradf.comps[k])))
    from riemcheck.geometry import TensorField
    closedT = TensorField(g.chart, (1, 2), closed)
    nabla_closed = covariant_derivative_tensor(g, closedT)
    x = pts31(mg, 1, seed=20)[0]
    NTx = mg.nabla_oneill("T", x[None])[0]
    sp = mg.split_at(x)
    U1 = sp.vertical[0]
    # closed form: (nabla_{U1} closed)(U1, U1) = -U1 (here)
    v_closed = np.einsum("klij,l,i,j->k", nabla_closed.values(x[None, :])[0], U1, U1, U1)
    assert np.allclose(v_closed, -U1, atol=1e-9)
    # actual O'Neill tensor: the same slots give zero (cross terms cancel it)
    v_actual = np.einsum("klij,l,i,j->k", NTx, U1, U1, U1)
    assert np.max(np.abs(v_actual)) <= 1e-9
    # and along horizontal directions the two agree on vertical arguments,
    # which is the combination the curvature identities consume
    X1 = sp.horizontal[0]
    a = np.einsum("klij,l,i,j->k", NTx, X1, U1, U1)
    b = np.einsum("klij,l,i,j->k", nabla_closed.values(x[None, :])[0], X1, U1, U1)
    assert np.allclose(a, b, atol=1e-9)


def test_nabla_T_linear_in_each_slot(ex31):
    mg, J, f = ex31
    rng = np.random.default_rng(21)
    x = pts31(mg, 1, seed=22)[0]
    NTv = mg.nabla_oneill("T", x[None])[0]
    a, b = rng.normal(size=(2, 6))
    lam = 0.731
    lhs = np.einsum("klij,l,i,j->k", NTv, a + lam * b, a, b)
    rhs = (np.einsum("klij,l,i,j->k", NTv, a, a, b)
           + lam * np.einsum("klij,l,i,j->k", NTv, b, a, b))
    assert np.allclose(lhs, rhs, atol=1e-9)


# -- fiber mean curvature / umbilical ---------------------------------------------------

def test_fiber_mean_curvature_example31(ex31):
    mg, J, f = ex31
    from riemcheck.geometry import gradient
    gradf = gradient(mg.gM, f)
    for x in pts31(mg, 10, seed=23):
        H = fiber_mean_curvature(mg, x[None])[0]
        assert np.allclose(H, [0, 0, 0, 1, 0, 0], atol=1e-10)  # H = d4
        assert np.allclose(H, -gradf.values(x)[0], atol=1e-10)  # H = -grad f


def test_fiber_mean_curvature_totally_geodesic_is_zero():
    mg = flat_projection()
    H = fiber_mean_curvature(mg, np.array([[0.3, 0.4, 0.5, 0.6]]))[0]
    assert np.max(np.abs(H)) == 0.0


def test_fiber_mean_curvature_needs_kernel():
    M = Chart("I1", ["x1"])
    g = diag_metric(M, ["1"])
    F = SmoothMap(M, M, [M.parse("x1")])
    mg = MapGeometry(F, g, g)
    with pytest.raises(MapError):
        fiber_mean_curvature(mg, np.array([[0.5]]))


def test_umbilical_fit_examples(ex31, ex41):
    for mg, _, _ in (ex31, ex41):
        pts = mg.gM.chart.sample_points(20, seed=24)
        res, Hs = umbilical_fit(mg, pts)
        res = worst(res)[0]
        assert res <= 1e-8
        assert np.max(np.abs(Hs)) <= 1e-8  # both examples are totally geodesic


def test_umbilical_fit_detects_non_umbilical():
    M = Chart("G2", ["x1", "x2"])
    N = Chart("G3", ["y1", "y2", "y3"])
    gM = diag_metric(M, ["1", "1"])
    gN = diag_metric(N, ["1", "1", "1"])
    F = SmoothMap(M, N, [M.parse("x1"), M.parse("x2"),
                         M.parse("x1^2 - x2^2")])
    mg = MapGeometry(F, gM, gN)
    res, Hs = umbilical_fit(mg, M.sample_points(10, seed=25))
    res = worst(res)[0]
    assert res >= 0.5


def test_declared_frame_validation_names_every_fault_once_in_order(monkeypatch):
    """Each fault of the declared frames is named in a fixed order, and g_M,
    g_N and every declared frame list are evaluated once, the lists through
    their own jets."""
    M, N = Chart("VF2", ["x1", "x2"]), Chart("VFT2", ["y1", "y2"])
    gM, gN = diag_metric(M, ["1", "1"]), diag_metric(N, ["1", "1"])
    F = SmoothMap(M, N, [M.parse("x1"), M.parse("0")])  # kernel: d/dx2
    frames = AdaptedFrames(vertical=[vf(M, ["2", "0"])], horizontal=[vf(M, ["1", "1"])],
                           range_=[vf(N, ["2", "0"])], normal=[vf(N, ["1", "1"])])
    calls = []
    for obj in (gM, gN):
        monkeypatch.setattr(obj, "values", lambda pts, f=obj.values, o=obj: (
            calls.append(o), f(pts))[1])
    mg = MapGeometry(F, gM, gN, frames)
    lists = list(mg._jets.values())
    monkeypatch.setattr(Jets, "evaluate", lambda self, pts, order=0, f=Jets.evaluate: (
        self in lists and calls.append(self), f(self, pts, order))[1])
    with pytest.raises(MapError) as err:
        mg.validate_frames(M.sample_points(3, seed=1))
    assert str(err.value) == (
        "declared frame validation failed: "
        "vertical frame not orthonormal (residual 3.000e+00); "
        "vertical frame not in ker F_* (residual 2.000e+00); "
        "horizontal frame not orthonormal (residual 1.000e+00); "
        "vertical/horizontal frames not orthogonal (residual 2.000e+00); "
        "range frame not orthonormal along F (residual 3.000e+00); "
        "normal frame not orthonormal along F (residual 1.000e+00); "
        "range/normal frames not orthogonal (residual 2.000e+00)")
    assert len(calls) == len(set(map(id, calls))) == 6


def heisenberg_submersion():
    """The Heisenberg group onto flat R^2, (x, y, z) -> (x, y), with the
    vertical frame d_z and the horizontal frame d_x, d_y + x d_z."""
    M, N = Chart("Heis", ["x", "y", "z"]), Chart("R2", ["u", "v"])
    gM = MetricField(M, [[1.0, 0.0, 0.0], [0.0, M.parse("1 + x^2"), M.parse("-x")],
                         [0.0, M.parse("-x"), 1.0]])
    F = SmoothMap(M, N, [M.parse("x"), M.parse("y")],
                  section=[N.parse(c) for c in ("u", "v", "0")])
    frames = AdaptedFrames(vertical=[vf(M, ["0", "0", "1"])],
                           horizontal=[vf(M, ["1", "0", "0"]), vf(M, ["0", "1", "x"])])
    return MapGeometry(F, gM, diag_metric(N, ["1", "1"]), frames)


@pytest.mark.parametrize("case", ["paper-3.1", "paper-4.1", "heisenberg"])
def test_connection_on_pairs_matches_the_symbolic_covariant_derivative(case):
    """nabla_{F_a} F_b from the fields' derivative tape and Gamma_M values,
    for every pair of a declared source frame and of a frame with
    non-constant fields added, equals the symbolic covariant_derivative
    within 1e-12 of the largest value."""
    from riemcheck.catalog import load

    mg = heisenberg_submersion() if case == "heisenberg" else load(case).map_geometry()
    M = mg.gM.chart
    x = M.sample_points(6, seed=5)
    gam = mg.gM.christoffel().values(x)
    c = M.coords
    extra = (vf(M, [f"{c[0]}*{c[-1]}"] + ["1"] * (M.dim - 1)),
             vf(M, ["0"] * (M.dim - 1) + [f"{c[1]}^2 - {c[0]}"]))
    for fields in (mg.frames.vertical, mg.frames.horizontal, extra):
        assert fields
        got = connection_on_pairs(gam, field_jet(Jets([c for W in fields for c in W.comps], M),
                                                 x, 2))
        want = np.stack([np.stack([covariant_derivative(mg.gM, a, b).values(x) for b in fields],
                                  axis=1) for a in fields], axis=1)
        assert got.shape == want.shape == (len(x), len(fields), len(fields), M.dim)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
