"""The jet calculus against its symbolic oracle.

`geometry.function_at` (grad f, Hess f, the Laplacian), `geometry.lie_derivative`
(L_X g), `TargetCalculus.geometry` (Gamma_N, its derivatives, P_range,
P_perp and their derivatives) and `TargetCalculus.images` (J'F, P_range J'E
and P_perp J'E with their derivatives) are arrays at a point set, from jets
by the product rule.  These tests compare each with the symbolic body it
replaced (`source_calculus_oracle`, `target_calculus_oracle`) on every
catalog metric and map, on H^2 x H^2, the Heisenberg metric and the warped
Heisenberg and sheared maps, with functions, fields and structures that are
not constant, so that every term of each product rule is far from 0
somewhere.  The last test pins that a run without a geodesic check never
builds the symbolic Christoffel symbols.
"""

import numpy as np
import pytest

import source_calculus_oracle as oracle
from riemcheck import catalog, geometry, suites
from riemcheck.expr import Tape, differentiate
from riemcheck.geometry import (
    Jets,
    VectorField,
    _mirror,
    function_at,
    gradient,
    lie_derivative,
)
from riemcheck.propcheck import PropositionCase, TargetCalculus
from riemcheck.rmap import pushforward_field
from riemcheck.specfile import load_spec
from riemcheck.structure import AlmostComplexStructure
from target_calculus_oracle import SymbolicTargetCalculus
from test_geometry import heisenberg
from test_source_calculus import h2xh2, sheared, warped_heisenberg
from test_symbolic_oracle import sample_function
from test_target_calculus import H2H2, heisenberg as heisenberg_target

REL = 1e-12


def close(got, want):
    return float(np.max(np.abs(got - want))) <= REL * max(1.0, float(np.max(np.abs(want))))


def field(chart):
    """A polynomial field whose covariant derivative is neither symmetric
    nor skew, so each term of L_X g matters."""
    c, n = chart.coords, chart.dim
    return VectorField(chart, [chart.parse(f"0.3*{c[(k + 1) % n]}^2 + 0.2*{c[k]}*{c[0]} + {k}")
                               for k in range(n)])


def _metrics():
    out = {"heisenberg": heisenberg(), "h2xh2": h2xh2(),
           "warped-heisenberg": warped_heisenberg().gM, "sheared": sheared().gM}
    for name in catalog.names():
        for chart, g in catalog.load(name).metrics.items():
            out[f"{name}:{chart}"] = g
    return out


METRICS = _metrics()


@pytest.mark.parametrize("case", list(METRICS))
def test_function_and_lie_derivative_arrays_match_the_symbolic_oracle(case):
    g = METRICS[case]
    chart = g.chart
    x = chart.sample_points(5, seed=31)
    f = sample_function(chart)
    got = function_at(g, f, x)
    gradf = gradient(g, f)
    want_d = Tape([differentiate(f, c) for c in chart.coords], chart.coords).evaluate(x)
    want_lap = Tape([oracle.divergence(g, gradf)], chart.coords).evaluate(x)[:, 0]
    want_hess = oracle.hessian(g, f).values(x)
    assert close(got.d, want_d)
    assert close(got.grad, gradf.values(x))
    assert close(got.hess, want_hess)
    assert close(got.lap, want_lap)
    assert np.max(np.abs(want_hess)) > 1e-2
    X = field(chart)
    want_lie = oracle.lie_derivative_metric(g, X).values(x)
    assert close(lie_derivative(g, X, x), want_lie)
    assert np.max(np.abs(want_lie)) > 1e-2


def test_the_product_rule_terms_are_exercised():
    """Gamma df, X^k d_k g and the two g dX terms are each far from 0 on
    some metric, so a sign error in any of them fails the test above."""
    gamma_df, x_dg, g_dx = [], [], []
    for g in METRICS.values():
        x = g.chart.sample_points(5, seed=31)
        m, X = g.at(x), field(g.chart)
        df = function_at(g, sample_function(g.chart), x).d
        gamma_df.append(np.max(np.abs(np.einsum("pkij,pk->pij", m.gam, df))))
        v, d, _ = X.jets.at(x, 1)
        x_dg.append(np.max(np.abs(np.einsum("pk,pkij->pij", v, m.dG))))
        GdX = np.matmul(d, m.G)
        g_dx.append(np.max(np.abs(GdX - GdX.swapaxes(1, 2))))
    assert min(max(gamma_df), max(x_dg), max(g_dx)) > 0.1


def _maps():
    out = {"warped-heisenberg": warped_heisenberg(), "sheared": sheared()}
    for name in catalog.names():
        mg = catalog.load(name).map_geometry()
        if mg is not None:
            out[name] = mg
    return out


MAPS = _maps()


@pytest.mark.parametrize("case", list(MAPS))
def test_case_jets_match_the_symbolic_oracle(case):
    """The identity case's f and g jets, with non-constant f on M and g on
    N, and L_W g_N for W = F_*(grad f) where the map has a section."""
    mg = MAPS[case]
    M, N = mg.gM.chart, mg.gN.chart
    x = M.sample_points(4, seed=37)
    f, gfun = sample_function(M), sample_function(N)
    c = PropositionCase(mg, x, f=f, gfun=gfun, eta=field(M))
    y = mg.F.values(x)
    for jet, g, pts, fn in ((c.f_jet, mg.gM, x, f), (c.g_jet, mg.gN, y, gfun)):
        assert close(jet.grad, gradient(g, fn).values(pts))
        assert close(jet.hess, oracle.hessian(g, fn).values(pts))
    if mg.F.section is not None:
        W = pushforward_field(mg.F, gradient(mg.gM, f))
        want = oracle.lie_derivative_metric(mg.gN, W).values(y)
        assert close(lie_derivative(mg.gN, W, y), want)


@pytest.mark.parametrize("entry", ["paper-3.1", "polar-kahler", "warped-clairaut"])
def test_the_lie_ingredient_matches_the_symbolic_oracle(entry):
    """L_W g_N of the identity case, for the entry's own Clairaut dilation,
    whose gradient is basic."""
    cfg = catalog.load(entry)
    c = suites._Ctx(cfg, 7, 6, cfg.check["tol"], cfg.check["box"]).case()
    W = pushforward_field(c.mg.F, gradient(c.mg.gM, c.f))
    y = c.mg.F.values(c.pts)
    assert close(c.LW, oracle.lie_derivative_metric(c.mg.gN, W).values(y))


# -- the target calculus ---------------------------------------------------------------

def _structure(chart):
    """A matrix field on the chart that is not constant in any coordinate:
    the product rule does not need J'^2 = -1."""
    c, n = chart.coords, chart.dim
    return AlmostComplexStructure(chart, [[chart.parse(
        f"{0.3 * (i - j)}*{c[(i + j) % n]}^2 + {1.0 if i == j else 0.1}*exp(0.2*{c[i]}*{c[j]})")
        for j in range(n)] for i in range(n)])


def _targets():
    """(map geometry, J', target points) of every map with declared range and
    normal frames, each with a non-constant J'; and paper-4.1 with its own
    J', where g_N, the frames and J' depend on y5 only."""
    h2 = load_spec(H2H2, name="h2xh2").map_geometry()
    out = {"h2xh2": (h2, h2.gN.chart.sample_points(5, seed=3, box=(0.3, 1.5)))}
    hmg, _, hy = heisenberg_target()
    out["heisenberg"] = (hmg, np.concatenate([hy, hmg.gN.chart.sample_points(18, seed=4)]))
    for name in ("flat-lagrangian", "paper-3.1", "paper-4.1"):
        mg = MAPS[name]
        out[name] = (mg, mg.F.values(mg.gM.chart.sample_points(5, seed=41)))
    out = {k: (mg, _structure(mg.gN.chart), y) for k, (mg, y) in out.items()}
    out["paper-4.1:Jp"] = (MAPS["paper-4.1"], catalog.load("paper-4.1").structure_on("N"),
                           out["paper-4.1"][2])
    return out


TARGETS = _targets()


def _jets(fields, chart, y):
    """The oracle's values and first and second derivatives of symbolic
    fields, by symbolic differentiation: (k, P, n), (k, P, n, n) and (k, P,
    n, n, n) as in `rmap.Jet`."""
    n = chart.dim
    v, d, dd = Jets([c for W in fields for c in W.comps], chart).at(y, 2)
    P, k, dd = len(y), len(fields), dd[:, _mirror(n)]
    return (v.reshape(P, k, n).swapaxes(0, 1), d.reshape(P, n, k, n).transpose(2, 0, 3, 1),
            dd.reshape(P, n, n, k, n).transpose(3, 0, 4, 1, 2))


def _along(a, D, axes):
    """The oracle's array a at the coordinates D on each derivative axis,
    after checking that it vanishes at the others: the target calculus
    takes derivatives along D only."""
    for axis in axes:
        assert not np.any(np.delete(a, D, axis=axis)), axis
        a = np.take(a, D, axis=axis)
    return a


@pytest.mark.parametrize("case", list(TARGETS))
def test_target_geometry_matches_the_symbolic_oracle(case):
    mg, Jp, y = TARGETS[case]
    N, n = mg.gN.chart, mg.gN.chart.dim
    at = TargetCalculus(mg, Jp).geometry(y)
    assert close(at.gam, mg.gN.christoffel().values(y))
    want = oracle.christoffel_derivative(mg.gN)
    dgam = Tape(list(want.flat), N.coords).evaluate(y).reshape((len(y),) + want.shape)
    assert close(at.dgam, _along(dgam, at.D, [1]))
    for (P, dP, ddP), fields in ((at.PR, mg.frames.range), (at.PP, mg.frames.normal)):
        sym = oracle.projector_from_fields(mg.gN, fields)
        v, d, _ = Jets(sym.flat, N).at(y, 1)
        assert ddP is None
        assert close(P, v.reshape(P.shape))
        d = d.reshape(len(y), n, n, n).transpose(0, 2, 1, 3)  # [m, a, k]
        assert close(dP, _along(d, at.D, [2]))


@pytest.mark.parametrize("case", list(TARGETS))
def test_target_images_match_the_symbolic_oracle(case):
    """J'F, P_range J'E and P_perp J'E with first and (but for P_range J'E)
    second derivatives along D, against the jets of the oracle's symbolic
    fields; on the Heisenberg target, at 23 points, over two blocks."""
    mg, Jp, y = TARGETS[case]
    tc, sym = TargetCalculus(mg, Jp), SymbolicTargetCalculus(mg, Jp)
    at, fr = tc.geometry(y), mg.frames
    want = {"JF": [sym.J(f) for f in fr.range],
            "PE": [sym.proj_range(sym.J(e)) for e in fr.normal],
            "QE": [sym.proj_perp(sym.J(e)) for e in fr.normal]}
    for name, got in zip(want, tc.images(at)):
        ref = _jets(want[name], mg.gN.chart, y)
        parts = 2 if name == "PE" else 3
        assert got.dd is None if name == "PE" else got.dd is not None
        for i in range(parts):
            assert close(got[i], _along(ref[i], at.D, range(-i, 0))), (name, i)
    if case == "heisenberg":  # each term of the product rules is far from 0 here
        assert np.max(np.abs(at.PR[1])) > 0.1 and np.max(np.abs(at.PP[1])) > 0.1
        assert min(np.max(np.abs(a)) for a in Jp.at(y, second=True)) > 0.1
    if case == "paper-4.1:Jp":  # the images are made along y5 only, and J' varies
        assert np.max(np.abs(Jp.at(y, second=True)[2])) > 0.1
        assert np.array_equal(at.D, [4])


# -- the symbolic Christoffel symbols serve the geodesic equation only -----------------

def test_runs_without_a_geodesic_check_never_build_the_symbolic_christoffel(monkeypatch):
    entries = [e for e in catalog.names() if "geodesic" not in
               catalog.load(e).check["suite"] + catalog.load(e).check["audit"]]
    assert len(entries) == 8

    def outcome(entry):  # the machine report: verdicts, residuals, terms and ledger
        return suites.run_suite(catalog.load(entry), points=4).to_machine()

    want = {e: outcome(e) for e in entries}

    def christoffel(g):
        raise AssertionError("symbolic Christoffel symbols built outside geodesic_tape")

    monkeypatch.setattr(geometry, "christoffel", christoffel)
    for e in entries:
        assert outcome(e) == want[e], e
