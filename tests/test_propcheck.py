"""Identity-verification tests: restricted Ricci, the Lagrangian reductions
on the flat model (exact), audits of the worked examples (frozen discrepancy
values from independent hand computation), theorem-level checks, and the
per-point contractions behind the O'Neill-derivative terms."""

import functools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemcheck import propcheck, suites
from riemcheck.catalog import CATALOG, load
from riemcheck.expr import Const, nodes
from riemcheck.geometry import (
    Chart,
    GeometryError,
    MetricField,
    TensorField,
    VectorField,
    worst,
)
from riemcheck.rmap import AdaptedFrames, MapGeometry, Split
from riemcheck.specfile import load_spec
from riemcheck.propcheck import (
    TABLE,
    PropositionCase,
    RestrictedGeometry,
    TargetCalculus,
    UnsupportedDistribution,
    coordinate_alignment,
    verify_alpha_soliton_on_range,
    verify_identity,
    verify_ric_lie_relation,
)

from fd_oracle import fd_ricci
from paper_fixtures import (
    CURVED_KAHLER,
    all_rows,
    diag_metric,
    example31,
    example41,
    flat_lagrangian,
    vf,
    warped_clairaut,
)
from target_calculus_oracle import SymbolicTargetCalculus


@pytest.fixture(scope="module")
def ex31():
    return example31()


@pytest.fixture(scope="module")
def ex41():
    return example41()


@pytest.fixture(scope="module")
def flatlag():
    return flat_lagrangian()


# -- restricted geometry ----------------------------------------------------------

def test_restricted_ricci_flat_fiber():
    M = Chart("R3", ["x1", "x2", "x3"])
    g = diag_metric(M, ["1", "1", "1"])
    rg = RestrictedGeometry(g, (0, 1))
    pts = M.sample_points(5, seed=1)
    assert np.max(np.abs(rg.at(pts).ricci)) == 0.0
    assert np.max(np.abs(rg.at(pts).scalar)) == 0.0


def test_restricted_ricci_example31_fibers(ex31):
    # induced metric e^{-2x4}(dx1^2 + dx3^2) with x4 frozen is flat
    mg, J, f = ex31
    rg = RestrictedGeometry(mg.gM, (0, 2))
    pts = mg.gM.chart.sample_points(10, seed=2)
    assert np.max(np.abs(rg.at(pts).ricci)) <= 1e-12


def test_restricted_ricci_sphere_factor():
    chart = Chart("SxR", ["theta", "phi", "z"])
    entries = ["1", "sin(theta)^2", "1"]
    mat = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            mat[i, j] = chart.parse(entries[i]) if i == j else Const(0.0)
    g = MetricField(chart, mat)
    rg = RestrictedGeometry(g, (0, 1))
    pts = chart.sample_points(10, seed=3, box=(0.3, 1.2))
    ric = rg.at(pts).ricci
    gv = g.values(pts)[:, :2, :2]
    assert np.max(np.abs(ric - gv)) <= 1e-10  # unit sphere: Ric = (r-1) K g
    assert np.max(np.abs(rg.at(pts).scalar - 2.0)) <= 1e-10


def test_restricted_ricci_example31_range(ex31):
    # range block (y1, y2, y4, y6): H^2 x R^2, Ricci = -1 on the H^2 block
    mg, J, f = ex31
    rg = RestrictedGeometry(mg.gN, (0, 1, 3, 5))
    ypts = mg.F.values(mg.gM.chart.sample_points(5, seed=4))
    ric = rg.at(ypts).ricci
    for p, y in enumerate(ypts):
        w = np.exp(y[3])
        e2p = np.array([0.0, w, 0.0, 0.0])   # e2' in block coordinates
        e4p = np.array([0.0, 0.0, 1.0, 0.0])
        assert float(e2p @ ric[p] @ e2p) == pytest.approx(-1.0, abs=1e-10)
        assert float(e4p @ ric[p] @ e4p) == pytest.approx(-1.0, abs=1e-10)


def test_restrict_vector_rejects_leakage():
    M = Chart("R3b", ["x1", "x2", "x3"])
    g = diag_metric(M, ["1", "1", "1"])
    rg = RestrictedGeometry(g, (0, 1))
    assert np.allclose(rg.restrict_vector(np.array([1.0, 2.0, 0.0])), [1.0, 2.0])
    with pytest.raises(UnsupportedDistribution):
        rg.restrict_vector(np.array([1.0, 2.0, 0.5]))
    # a NaN outside the block is a leak too, not a pass
    plane = Chart("R2b", ["x1", "x2"])
    line = RestrictedGeometry(diag_metric(plane, ["1", "1"]), (0,))
    with pytest.raises(UnsupportedDistribution):
        line.restrict_vector(np.array([1.0, np.nan]))


def test_coordinate_alignment_detection():
    frames = np.array([[[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
                       [[0.0, 0.5, 0.0], [0.0, 1e-12, 3.0]]])
    assert coordinate_alignment(frames) == (1, 2)
    assert coordinate_alignment(np.zeros((2, 0, 3))) == ()
    skew = np.array([[[1.0, 1.0, 0.0]]])
    with pytest.raises(UnsupportedDistribution, match=r"spans coordinates \[0, 1\]"):
        coordinate_alignment(skew)
    moving = np.array([[[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]])  # a line that turns
    with pytest.raises(UnsupportedDistribution):
        coordinate_alignment(moving)


def test_hess_g_alone_without_a_target_dilation_is_unsupported():
    """The Hessian of g, asked for before anything else on a case without g,
    is UnsupportedDistribution naming the missing dilation, as the other
    dilation ingredients are."""
    mg, Jp, _ = example41()
    x = mg.gM.chart.sample_points(3, seed=5)
    for ask in (lambda c: c.g_jet, lambda c: propcheck._Lazy(propcheck._BATCH, c=c).Hg):
        with pytest.raises(UnsupportedDistribution, match="case has no target dilation g"):
            ask(PropositionCase(mg, x, Jp=Jp))
    case = PropositionCase(mg, x, Jp=Jp, gfun=mg.gN.chart.parse("y5^2"))
    Hg = propcheck._Lazy(propcheck._BATCH, c=case).Hg
    assert Hg.shape == (3, 6, 6) and Hg[0, 4, 4] == 2.0


# -- Lagrangian reductions on the flat model ------------------------------------------

LAGRANGIAN_IDS = ("lric_uv", "lric_ux", "lric_xy", "lric_fxfy", "lric_de")


@pytest.mark.parametrize("ident", LAGRANGIAN_IDS)
def test_flat_lagrangian_identities_hold_exactly(ident, flatlag):
    mg, J, Jp, f, gfun = flatlag
    pts = mg.gM.chart.sample_points(10, seed=5)
    case = PropositionCase(mg, pts, J=J, Jp=Jp, f=f, gfun=gfun, lam=0.0)
    res = verify_identity(case, ident)
    assert res["n_pairs"] > 0
    assert res["max_residual"] <= 1e-10
    gates = case.gates(res["gates"])
    assert all(ok for ok, _ in gates.values()), gates


def test_flat_lagrangian_full_identities_also_collapse(flatlag):
    # with f and g constant the un-reduced identities hold as well
    mg, J, Jp, f, gfun = flatlag
    pts = mg.gM.chart.sample_points(6, seed=6)
    case = PropositionCase(mg, pts, J=J, Jp=Jp, f=f, gfun=gfun, lam=0.0)
    for ident in ("ric_uv", "ric_ux", "ric_xy", "ric_fxfy", "ric_fxe", "ric_de",
                  "lric_fxe"):
        res = verify_identity(case, ident)
        assert res["max_residual"] <= 1e-10, (ident, res["worst"])


# -- audits of the worked examples ------------------------------------------------------

def test_example31_ric_uv_discrepancy_frozen(ex31):
    """Independent hand computation for the diagonal pair (u1, u1):
    LHS = Ric(U1,U1) = -3 (hyperbolic block), RHS = Ric^range(e2',e2')
    + 2 Hess f(X1,X1) - divA = -1 + 2 - 0 = 1.  The identity misses by 4,
    consistent with the structure not being parallel."""
    mg, J, f = ex31
    pts = mg.gM.chart.sample_points(5, seed=7)
    case = PropositionCase(mg, pts, J=J, f=f)
    res = verify_identity(case, "ric_uv")
    first = [r for r in all_rows(res) if r["pair"] == ("u1", "u1")][0]
    assert first["lhs"] == pytest.approx(-3.0, abs=1e-9)
    assert first["terms"]["ric_range"] == pytest.approx(-1.0, abs=1e-9)
    assert first["terms"]["r_hess_f"] == pytest.approx(2.0, abs=1e-9)
    assert first["terms"]["div_A"] == pytest.approx(0.0, abs=1e-9)
    assert first["residual"] == pytest.approx(4.0, abs=1e-8)
    gates = case.gates(res["gates"])
    assert not gates["kahler_source"][0]      # structure is not parallel
    assert gates["anti_invariant_source"][0]
    assert gates["clairaut_source"][0]


def test_example41_ric_fxfy_partial_agreement(ex41):
    """(F1,F1): Ric_N(e2',e2') = 0 = Ric^perp(-e1',-e1'), residual 0;
    (F2,F2): Ric_N(e5',e5') = -2 vs Ric^perp(e6',e6') = 0, residual 2."""
    mg, Jp, gfun = ex41
    pts = mg.gM.chart.sample_points(5, seed=8)
    case = PropositionCase(mg, pts, Jp=Jp, gfun=gfun)
    res = verify_identity(case, "ric_fxfy")
    r11 = [r for r in all_rows(res) if r["pair"] == ("F1", "F1")][0]
    r22 = [r for r in all_rows(res) if r["pair"] == ("F2", "F2")][0]
    assert r11["residual"] <= 1e-9
    assert r22["lhs"] == pytest.approx(-2.0, abs=1e-9)
    assert r22["rhs"] == pytest.approx(0.0, abs=1e-9)
    gates = case.gates(res["gates"])
    assert not gates["kahler_target"][0]
    assert not gates["tg_normal"][0]   # nabla_{e3'} e3' = -e5' is tangent
    assert gates["anti_invariant_target"][0]
    assert gates["clairaut_target"][0]


def test_example31_lagrangian_gate_fails(ex31):
    mg, J, f = ex31
    case = PropositionCase(mg, mg.gM.chart.sample_points(4, seed=9), J=J, f=f)
    gates = case.gates(("lagrangian_source",))
    ok, mu_dim = gates["lagrangian_source"]
    assert not ok and mu_dim == 2


# -- theorem-level checks ---------------------------------------------------------------

def test_alpha_soliton_range_flat_case(flatlag):
    mg, J, Jp, f, gfun = flatlag
    zero_eta = vf(mg.gM.chart, ["0", "0", "0", "0"], "eta0")
    pts = mg.gM.chart.sample_points(8, seed=10)
    case = PropositionCase(mg, pts, J=J, Jp=Jp, f=f, gfun=gfun, eta=zero_eta, lam=0.0)
    res = verify_alpha_soliton_on_range(case)
    assert res["max_residual"] <= 1e-12
    assert res["alpha"] == 0.5 and res["beta"] == 0.0
    gates = case.gates(res["gates"])
    assert all(ok for ok, _ in gates.values())


def test_alpha_soliton_range_warped_bookkeeping():
    """On the warped Clairaut submersion the source is not an exact soliton
    (the gate fails), but the cross-pipeline bookkeeping that propagates the
    source residual through the Ricci identity must close to float noise."""
    mg, J, h = warped_clairaut()
    eta = vf(mg.gM.chart, ["0.2", "0", "0", "0"], "eta")
    pts = mg.gM.chart.sample_points(8, seed=11)
    case = PropositionCase(mg, pts, J=J, f=h, eta=eta, lam=0.3)
    res = verify_alpha_soliton_on_range(case)
    assert res["n_pairs"] > 0
    for row in all_rows(res):
        assert row["terms"]["bookkeeping_gap"] <= 1e-9
    gates = case.gates(res["gates"])
    assert not gates["source_soliton"][0]
    assert gates["tg_horizontal"][0]
    assert gates["clairaut_source"][0]


def test_warped_clairaut_identity_ric_uv_holds():
    """The warped model is Lagrangian with parallel-enough structure that the
    vertical Ricci identity itself closes: both sides are computed through
    independent pipelines, so this is the strongest positive test of the
    identity machinery."""
    mg, J, h = warped_clairaut()
    case = PropositionCase(mg, mg.gM.chart.sample_points(10, seed=12), J=J, f=h)
    res = verify_identity(case, "ric_uv")
    gates = case.gates(res["gates"])
    assert gates["anti_invariant_source"][0]
    assert gates["clairaut_source"][0]
    if gates["kahler_source"][0]:
        assert res["max_residual"] <= 1e-8


def test_curved_kahler_source_fails_ric_uv_and_ric_xy_where_every_gate_holds():
    """On the warped product H^2 x H^2 -> R x H^2 every structural check
    passes and every gate of the three source-side Ricci rows holds, yet
    ric_uv and ric_xy miss by 1: the rows as written lack a term of size 1
    here.  The left side Ric(U1, U1) = -1 is the finite-difference Ricci of
    the metric, so the gap is on the right side."""
    report = suites.run_suite(load_spec(CURVED_KAHLER, name="curved-kahler"))
    assert (report.seed, report.npoints) == (7, 40)
    got = {c.id: c for c in report.checks + report.audits}
    for ident in ("metric", "riemannian_map", "anti_invariant", "hermitian", "kahler",
                  "clairaut_source", "umbilical", "oneill", "fiber_curvature"):
        assert got[ident].verdict == "PASS", ident
    for ident in ("ric_uv", "ric_ux", "ric_xy"):
        gates = got[ident].terms["gates"]
        assert set(gates) == {"kahler_source", "anti_invariant_source", "clairaut_source"}
        assert all(ok for ok, _ in gates.values()), (ident, gates)
    for ident in ("ric_uv", "ric_xy"):
        assert got[ident].verdict == "FAIL"
        assert abs(got[ident].max_residual - 1.0) <= 1e-12, ident
    uv = got["ric_uv"]
    x = np.array(uv.worst_point["coords"])
    u1 = np.array([math.exp(x[1]), 0.0, 0.0, 0.0])
    metric = lambda p: np.diag([math.exp(-2 * p[1]), 1.0, math.exp(-2 * p[3]), 1.0])
    assert uv.terms["worst_pair"] == ["u1", "u1"]  # the one unit vertical direction, U1
    assert abs(uv.terms["lhs"] + 1.0) <= 1e-10
    assert abs(u1 @ fd_ricci(metric, x) @ u1 - uv.terms["lhs"]) <= 1e-5


def test_polar_kahler_identities():
    """A configuration where every stated hypothesis genuinely holds (flat
    C^2, parallel structure, circle fibers of a Lagrangian plane, dilation
    f = log r).  The vertical and mixed identities close exactly; the
    horizontal identity misses by exactly sin(t)^2 / r^2 on the (X2, X2)
    pair, the cross-terms the printed right side drops.  Both behaviors are
    frozen from an independent hand derivation."""
    from paper_fixtures import polar_kahler
    mg, J, f = polar_kahler()
    pts = mg.gM.chart.sample_points(8, seed=3)
    mg.validate_frames(pts)
    case = PropositionCase(mg, pts, J=J, f=f)
    gates = case.gates(("kahler_source", "anti_invariant_source", "clairaut_source"))
    assert all(ok for ok, _ in gates.values()), gates
    assert verify_identity(case, "ric_uv")["max_residual"] <= 1e-10
    assert verify_identity(case, "ric_ux")["max_residual"] <= 1e-10
    res = verify_identity(case, "ric_xy")
    gaps = {}
    for row in all_rows(res):
        x = pts[row["point"]]
        expect = (np.sin(x[1]) ** 2) / x[0] ** 2 if row["pair"] == ("X2", "X2") \
            else (np.cos(x[1]) ** 2) / x[0] ** 2 if row["pair"] == ("X3", "X3") \
            else None
        if expect is not None:
            assert row["residual"] == pytest.approx(expect, rel=1e-9)


def test_ric_lie_vacuous_on_lagrangian(flatlag):
    mg, J, Jp, f, gfun = flatlag
    case = PropositionCase(mg, mg.gM.chart.sample_points(5, seed=13), J=J, f=f)
    res = verify_ric_lie_relation(case)
    assert res["vacuous"]
    assert res["n_pairs"] == 0


def test_ric_lie_example31_computed_both_sides(ex31):
    mg, J, f = ex31
    case = PropositionCase(mg, mg.gM.chart.sample_points(5, seed=14), J=J, f=f)
    res = verify_ric_lie_relation(case)
    assert not res["vacuous"]
    assert res["n_pairs"] > 0  # both sides reported for the audit


def test_unknown_identity_rejected(flatlag):
    mg, J, Jp, f, gfun = flatlag
    case = PropositionCase(mg, mg.gM.chart.sample_points(2, seed=15), J=J, f=f)
    with pytest.raises(Exception):
        verify_identity(case, "nope")


# M = R x (e^{x1+1}-warped line) x R^2 onto the hyperbolic plane
# dy1^2 + e^{2 y1} dy2^2 by y = (x1 + 1, x2): the range is all of N, so
# Ric^range = Ric_N = -g_N, and it must be taken at F(x), not at x.
IMAGE_POINT_SPEC = """
version 1
manifold M
  coords x1 x2 x3 x4
  metric diag 1, exp(2*(x1 + 1)), 1, 1
end
manifold N
  coords y1 y2
  metric diag 1, exp(2*y1)
end
map F
  source M
  target N
  components x1 + 1, x2
end
structure J
  manifold M
  row 0, 0, 1, 0
  row 0, 0, 0, 1
  row -1, 0, 0, 0
  row 0, -1, 0, 0
end
"""


def test_range_ricci_is_evaluated_at_the_image_point():
    cfg = load_spec(IMAGE_POINT_SPEC, name="image-point")
    mg, J = cfg.map_geometry(), cfg.structure_on("M")
    pts = mg.gM.chart.sample_points(4, seed=7)
    res = verify_identity(PropositionCase(mg, pts, J=J), "lric_uv")
    assert res["n_pairs"] == 12
    for row in all_rows(res):
        x = pts[row["point"]]
        sp = mg.split_at(x)
        a, b = (int(label[1:]) - 1 for label in row["pair"])
        Jac = mg.F.jac_values(x[None])[0]
        FJU, FJV = (Jac @ J.values(x)[0] @ sp.vertical[k] for k in (a, b))
        expect = -float(FJU @ mg.gN.values(mg.F.values(x)[0])[0] @ FJV)
        assert row["terms"]["ric_range"] == pytest.approx(expect, rel=1e-9, abs=1e-12)


# -- per-point contractions ----------------------------------------------------------

# The per-pair contractions the per-point forms replace, written out in full:
# (identity, term key, frame of the first index, frame of the second index)
# -> (einsum subscripts, operands of one pair, sign).
_PER_PAIR = {
    ("ric_uv", "div_A", "JU", "JU"): (
        "klij,al,i,j,km,am->", lambda q, a, b: (q.NAv, q.V, q.JU[a], q.JU[b], q.GM, q.V), 1),
    ("ric_ux", "div_A_JU_CX", "JU", "C"): (
        "klij,al,i,j,km,am->", lambda q, a, i: (q.NAv, q.V, q.JU[a], q.C[i], q.GM, q.V), 1),
    ("ric_ux", "nablaA_frame_trace", "JU", "C"): (
        "klij,cl,ci,j,km,m->", lambda q, a, i: (q.NAv, q.H, q.H, q.JU[a], q.GM, q.B[i]), 1),
    ("ric_xy", "A_A", "C", "C"): (
        "kij,li,j,km,mpq,lp,q->",
        lambda q, i, j: (q.Av, q.H, q.B[i], q.GM, q.Av, q.H, q.B[j]), 1),
    ("ric_xy", "A_mu", "C", "C"): (
        "kij,i,aj,km,mpq,p,aq->",
        lambda q, i, j: (q.Av, q.C[i], q.V, q.GM, q.Av, q.C[j], q.V), 1),
    ("ric_xy", "div_A_CC", "C", "C"): (
        "klij,al,i,j,km,am->", lambda q, i, j: (q.NAv, q.V, q.C[i], q.C[j], q.GM, q.V), 1),
    ("ric_xy", "sff_sff", "C", "C"): (
        "aij,li,j,ab,bpq,p,lq->",
        lambda q, i, j: (q.Sv, q.H, q.C[j], q.GN, q.Sv, q.C[i], q.H), -1),
    ("ric_xy", "sff_tension", "C", "C"): (
        "aij,i,j,ab,bpq,kp,kq->",
        lambda q, i, j: (q.Sv, q.C[i], q.C[j], q.GN, q.Sv, q.H, q.H), 1),
    ("ric_xy", "nablaA_CY", "C", "C"): (
        "klij,al,i,aj,km,m->", lambda q, i, j: (q.NAv, q.H, q.C[j], q.H, q.GM, q.B[i]), -1),
    ("ric_xy", "nablaA_CX", "C", "C"): (
        "klij,al,i,aj,km,m->", lambda q, i, j: (q.NAv, q.H, q.C[i], q.H, q.GM, q.B[j]), -1),
}


def _spd(rng, n):
    L = rng.normal(size=(n, n))
    return L @ L.T + n * np.eye(n)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 6), n=st.integers(2, 6), P=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_per_point_forms_match_the_per_pair_contractions(m, n, P, seed, data):
    r0 = data.draw(st.integers(0, m), label="r0")
    h = data.draw(st.integers(0, m), label="h")
    rng = np.random.default_rng(seed)
    q = SimpleNamespace(
        NAv=rng.normal(size=(P, m, m, m, m)), Av=rng.normal(size=(P, m, m, m)),
        Sv=rng.normal(size=(P, n, m, m)), GM=np.array([_spd(rng, m) for _ in range(P)]),
        GN=np.array([_spd(rng, n) for _ in range(P)]),
        V=rng.normal(size=(P, r0, m)), H=rng.normal(size=(P, h, m)),
        JU=rng.normal(size=(P, r0, m)), B=rng.normal(size=(P, h, m)),
        C=rng.normal(size=(P, h, m)))
    batch = propcheck._Lazy(propcheck._BATCH, r0=r0, **vars(q))
    for (ident, key, first, second), (subs, operands, sign) in _PER_PAIR.items():
        fn = next(fn for k, _, fn in TABLE[ident].terms if k == key)
        got = fn(batch)
        assert got.shape == (P, len(getattr(q, first)[0]), len(getattr(q, second)[0]))
        for i in range(P):
            at = SimpleNamespace(**{k: v[i] for k, v in vars(q).items()})
            at_abs = SimpleNamespace(**{k: np.abs(v) for k, v in vars(at).items()})
            for a, b in np.ndindex(got.shape[1:]):
                want = sign * np.einsum(subs, *operands(at, a, b), optimize=True)
                scale = np.einsum(subs, *operands(at_abs, a, b), optimize=True)
                assert abs(got[i, a, b] - want) <= 1e-12 * scale, (ident, key, i, a, b)


@pytest.mark.parametrize("ident", ["ric_uv", "ric_ux", "ric_xy"])
def test_identity_contractions_run_once_per_point(ident, ex31, monkeypatch):
    """No einsum of five or more operands, no contraction after the rows are
    emitted, and as many einsum and matmul calls for 4 points as for 2."""
    mg, J, f = ex31
    pts = mg.gM.chart.sample_points(4, seed=5)
    real_einsum, real_matmul, real_rows = np.einsum, np.matmul, propcheck._rows
    operand_counts, matmuls, row_marks = [], [], []

    def einsum(subscripts, *operands, **kwargs):
        operand_counts.append(len(operands))
        return real_einsum(subscripts, *operands, **kwargs)

    def matmul(*args, **kwargs):
        matmuls.append(1)
        return real_matmul(*args, **kwargs)

    def rows(*args, **kwargs):
        row_marks.append(len(operand_counts) + len(matmuls))
        return real_rows(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    monkeypatch.setattr(np, "matmul", matmul)
    monkeypatch.setattr(propcheck, "_rows", rows)
    calls = {}
    for npts in (2, 4):
        case = PropositionCase(mg, pts[:npts], J=J, f=f)
        verify_identity(case, ident)  # the symbolic ingredients, built once
        operand_counts.clear()
        matmuls.clear()
        row_marks.clear()
        res = verify_identity(case, ident)
        calls[npts] = (len(operand_counts), len(matmuls))
        assert all(k < 5 for k in operand_counts)
        assert row_marks == [sum(calls[npts])] and res["n_pairs"] > 0
        assert {r["point"] for r in all_rows(res)} == set(range(npts))
    assert calls[4] == calls[2]
    assert sum(calls[4]) > 0


def test_target_fields_sharing_a_name_keep_their_own_memo_entries():
    cfg = load("flat-lagrangian")
    mg = cfg.map_geometry()
    fr = mg.frames
    N = mg.gN.chart
    R1 = fr.range[0]
    twin = VectorField(N, fr.normal[0].comps, name=R1.name)  # normal E1 named R1
    nameless = [VectorField(N, fr.range[1].comps), VectorField(N, fr.normal[1].comps)]
    frames = AdaptedFrames(vertical=fr.vertical, horizontal=fr.horizontal,
                           range_=[R1, nameless[0]], normal=[twin, nameless[1]])
    Jp = cfg.structure_on("N")
    tc = SymbolicTargetCalculus(MapGeometry(mg.F, mg.gM, mg.gN, frames), Jp)
    y = mg.F.values(mg.gM.chart.sample_points(1, seed=3)[0])[0]
    PR, PP = (TensorField(N, (1, 1), P).values(y)[0] for P in (tc.PR, tc.PP))
    for W in (R1, twin, *nameless):
        w = W.values(y)[0]
        assert np.array_equal(tc.J(W).values(y)[0], Jp.values(y)[0] @ w), W
        assert np.array_equal(tc.proj_range(W).values(y)[0], PR @ w), W
        assert np.array_equal(tc.proj_perp(W).values(y)[0], PP @ w), W
    assert np.array_equal(tc.J(twin).values(y)[0], [-1.0, 0.0, 0.0, 0.0])


# -- batching ---------------------------------------------------------------------------

_CHECKED = list(TABLE) + ["alpha_soliton_range", "ric_lie"]


@functools.lru_cache(maxsize=None)
def _catalog_case(entry):
    """The identity case of a catalog entry, as a run builds it."""
    cfg = load(entry)
    return cfg, suites._Ctx(cfg, 7, 1, cfg.check["tol"], cfg.check["box"]).case()


def _at(case, pts):
    """A case with the configuration of `case`, bound to the points `pts`."""
    return PropositionCase(case.mg, pts, J=case.J, Jp=case.Jp, f=case.f, gfun=case.gfun,
                           eta=case.eta, alpha=case.alpha, lam=case.lam)


def _verify(case, ident):
    """The result of one identity check, or the (type, message) it raised."""
    run = {"alpha_soliton_range": verify_alpha_soliton_on_range,
           "ric_lie": verify_ric_lie_relation}.get(ident)
    try:
        return run(case) if run else verify_identity(case, ident)
    except GeometryError as exc:
        return (type(exc), str(exc))


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("entry", ["paper-3.1", "paper-4.1", "flat-lagrangian"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), P=st.integers(2, 4))
def test_batching_is_invisible(entry, seed, P):
    """One call over P points gives the rows of P one-point calls, in the
    same order and with the same worst row."""
    cfg, case = _catalog_case(entry)
    pts = case.mg.gM.chart.sample_points(P, seed=seed, box=cfg.check["box"])
    whole, ones = _at(case, pts), [_at(case, pts[i:i + 1]) for i in range(P)]
    for ident in _CHECKED:
        batch = _verify(whole, ident)
        singles = [_verify(one, ident) for one in ones]
        if isinstance(batch, tuple):
            assert all(s == batch for s in singles), (ident, batch, singles)
            continue
        rows = [(i, r) for i, s in enumerate(singles) for r in all_rows(s)]
        assert [(r["point"], r["pair"]) for r in all_rows(batch)] == \
            [(i, r["pair"]) for i, r in rows], ident
        for got, (_, want) in zip(all_rows(batch), rows):
            assert list(got["terms"]) == list(want["terms"]), ident
            for key in ("lhs", "rhs", "residual"):
                assert _close(got[key], want[key]), (ident, key, got, want)
            for key, value in got["terms"].items():
                assert _close(value, want["terms"][key]), (ident, key, got, want)
        assert batch["vacuous"] == all(s["vacuous"] for s in singles), ident
        if rows:
            i, top = rows[worst([r["residual"] for _, r in rows])[1]]
            assert (batch["worst"]["point"], batch["worst"]["pair"]) == (i, top["pair"])


@pytest.mark.parametrize("ident", ["lric_uv", "ric_uv", "alpha_soliton_range"])
@pytest.mark.parametrize("leak", [0.5, float("nan")])
def test_a_vector_leaving_its_block_at_one_point_raises(ident, leak, monkeypatch):
    """flat-lagrangian pushes JU_1 = X_1 onto the range frame R1 = d_y1; with
    dy3/dx3 set to `leak` at point 2 of 4, F_*(JU_1) leaves the range block
    (y1, y2) there, and the identity raises instead of contracting it."""
    cfg, case = _catalog_case("flat-lagrangian")
    mg = case.mg
    pts = mg.gM.chart.sample_points(4, seed=7, box=cfg.check["box"])
    case = _at(case, pts)
    assert not isinstance(_verify(case, ident), tuple)
    sp = mg.split(pts)
    Jac = sp.Jac.copy()
    Jac[2, 2, 2] = leak
    bad = Split(sp.x, sp.y, sp.GM, sp.GN, Jac, sp.vertical, sp.horizontal, sp.range,
                sp.normal)
    monkeypatch.setattr(mg, "split", lambda points: bad)
    assert _verify(case, ident) == (
        UnsupportedDistribution, f"vector leaves the restricted block (leak {leak:.3e})")


def test_each_gate_is_evaluated_once_per_point_set(monkeypatch):
    calls = Counter()
    real = PropositionCase._gate

    def gate(self, name):
        calls[(name, self.pts.tobytes())] += 1
        return real(self, name)

    monkeypatch.setattr(PropositionCase, "_gate", gate)
    suites.run_suite(load("flat-lagrangian"), points=4)
    assert len(calls) >= 15
    assert set(calls.values()) == {1}, calls


def test_target_calculus_builds_no_structural_zero_product(monkeypatch):
    """shape, nabla_tilde_S and r_perp build no product or difference with a
    zero-constant operand; before, flat-lagrangian built 320 of them."""
    inside, zero_operands, built = [0], [], Counter()
    real_init = nodes.Binary.__init__

    def init(self, op, a, b):
        if inside[0] and op in ("mul", "sub") and (
                nodes.is_const(a, 0.0) or nodes.is_const(b, 0.0)):
            zero_operands.append(op)
        real_init(self, op, a, b)

    def counted(name, method):
        def run(self, *args):
            built[name] += 1
            inside[0] += 1
            try:
                return method(self, *args)
            finally:
                inside[0] -= 1
        return run

    monkeypatch.setattr(nodes.Binary, "__init__", init)
    for name in ("shape", "nabla_tilde_S", "r_perp"):
        monkeypatch.setattr(TargetCalculus, name,
                            counted(name, getattr(TargetCalculus, name)))
    suites.run_suite(load("flat-lagrangian"), points=4)
    assert all(built[name] > 0 for name in ("shape", "nabla_tilde_S", "r_perp")), built
    assert zero_operands == []


def test_the_source_soliton_gate_reads_a_gradient_potential():
    """flat-lagrangian with `soliton grad u alpha 1 lambda -1`: Hess u = g and
    Ric = 0, so the source is a soliton with potential grad u.  The gate
    tests u, not the Clairaut dilation f = 0 (which gave [false, 1.0]), and
    the source residual of `alpha_soliton_range` has Hess u in its Lie
    term."""
    text = CATALOG["flat-lagrangian"].replace(
        "soliton field zero alpha 1 lambda 0", "soliton grad u alpha 1 lambda -1").replace(
        "function f on M = 0\n",
        "function f on M = 0\nfunction u on M = 0.5*(x1^2 + x2^2 + x3^2 + x4^2)\n")
    cfg = load_spec(text, name="gradient-soliton")
    report = suites.run_suite(cfg, suite=["soliton", "alpha_soliton_range"], points=4)
    soliton, on_range = report.checks
    assert soliton.verdict == "PASS"
    holds, residual = on_range.terms["gates"]["source_soliton"]
    assert holds and residual <= cfg.check["tol"]
    assert on_range.terms["term_breakdown"]["source_residual"] == 0.0
