"""The numeric source-side tensors against their oracles: Ricci and scalar
curvature of `MetricField.at` against the finite-difference pipeline and the
symbolic bodies of `source_calculus_oracle`, on every catalog metric, on the
restricted leaves the identity checks use, on H^2 x H^2 and on the Heisenberg
metric; the O'Neill tensors, their covariant derivatives and the second
fundamental form of `MapGeometry` against the symbolic oracle; and the rule
that each metric's jets are evaluated once per point set."""

from collections import Counter

import numpy as np
import pytest

import source_calculus_oracle as oracle
from fd_oracle import fd_ricci, fd_scalar
from paper_fixtures import diag_metric, vf
from riemcheck import catalog, suites
from riemcheck.expr import Const, Tape, substitute
from riemcheck.geometry import Chart, Jets, MetricField, ricci, scalar_curvature
from riemcheck.propcheck import PropositionCase, UnsupportedDistribution
from riemcheck.rmap import AdaptedFrames, MapGeometry, SmoothMap
from riemcheck.specfile import load_spec
from test_geometry import heisenberg
from test_rmap import heisenberg_submersion

REL = 1e-12


def close(got, want, rel=REL):
    return float(np.max(np.abs(got - want))) <= rel * max(1.0, float(np.max(np.abs(want))))


def h2xh2():
    """The product of two hyperbolic planes, Ric = -g."""
    chart = Chart("H2xH2", ["x", "s", "y", "t"])
    return diag_metric(chart, ["exp(-2*s)", "1", "exp(-2*t)", "1"])


def _leaves():
    """The restricted geometries of the catalog's identity cases, by name."""
    out = {}
    for name in ("paper-3.1", "paper-4.1", "flat-lagrangian", "polar-kahler", "warped-clairaut"):
        cfg = catalog.load(name)
        case = suites._Ctx(cfg, 7, 4, cfg.check["tol"], cfg.check["box"]).case()
        for part in ("ker_rg", "range_rg", "perp_rg"):
            try:
                out[f"{name}:{part}"] = (case, getattr(case, part), part)
            except UnsupportedDistribution:
                continue
    return out


LEAVES = _leaves()
METRICS = (["heisenberg", "h2xh2"]
           + [f"{name}:{chart}" for name in catalog.names() for chart in catalog.load(name).metrics])


def _leaf_through(rg, x):
    """The leaf of rg through the point x as a metric of its own: the parent's
    entries at the block, with the values of the other coordinates at x
    substituted."""
    chart, I = rg.parent.chart, rg.indices
    fixed = {c: Const(float(v)) for i, (c, v) in enumerate(zip(chart.coords, x)) if i not in I}
    leaf = Chart(f"{chart.name}|leaf", [chart.coords[i] for i in I])
    return MetricField(leaf, [[substitute(rg.parent.mat[i, j], fixed) for j in I] for i in I])


def _metric_cases(case):
    """[(metric, points on its chart, the engine's Ricci and scalar curvature
    there)]: one entry at 4 sample points for a metric; for a leaf, one per
    point of its case, the leaf through that point (`_leaf_through`) at the
    point's block coordinates, with the values of `RestrictedGeometry.at`."""
    if case in LEAVES:
        c, rg, part = LEAVES[case]
        at = c.pts if part == "ker_rg" else c.mg.F.values(c.pts)
        m = rg.at(at)
        return [(_leaf_through(rg, x), x[None, list(rg.indices)], m.ricci[p:p + 1],
                 m.scalar[p:p + 1]) for p, x in enumerate(at)]
    g = heisenberg() if case == "heisenberg" else h2xh2() if case == "h2xh2" else \
        catalog.load(case.split(":")[0]).metrics[case.split(":")[1]]
    pts = g.chart.sample_points(4, seed=19)
    return [(g, pts, ricci(g, pts), scalar_curvature(g, pts))]


def test_the_leaves_are_every_restricted_geometry_of_the_identity_cases():
    assert sorted(LEAVES) == [
        "flat-lagrangian:ker_rg", "flat-lagrangian:perp_rg", "flat-lagrangian:range_rg",
        "paper-3.1:ker_rg", "paper-3.1:perp_rg", "paper-3.1:range_rg",
        "paper-4.1:ker_rg", "paper-4.1:perp_rg", "paper-4.1:range_rg",
        "polar-kahler:ker_rg", "polar-kahler:range_rg",
        "warped-clairaut:ker_rg", "warped-clairaut:range_rg"]


@pytest.mark.parametrize("case", METRICS + sorted(LEAVES))
def test_ricci_and_scalar_match_the_symbolic_and_fd_oracles(case):
    for g, pts, ric, s in _metric_cases(case):
        assert close(ric, oracle.ricci(g).values(pts)), "ricci"
        want_s = Tape([oracle.scalar_curvature(g)], g.chart.coords).evaluate(pts)[:, 0]
        assert close(s, want_s), "scalar"
        scale = max(1.0, float(np.max(np.abs(ric[0]))))
        fn = lambda x: g.values(x)[0]
        assert np.max(np.abs(ric[0] - fd_ricci(fn, pts[0]))) / scale <= 1e-5, "fd ricci"
        assert abs(s[0] - fd_scalar(fn, pts[0])) / max(1.0, abs(s[0])) <= 1e-5, "fd scalar"
        if case == "h2xh2":
            assert np.max(np.abs(ric + g.values(pts))) <= 1e-12
            assert np.max(np.abs(s + 4.0)) <= 1e-12


def test_the_curvature_cases_are_not_all_flat():
    curved = {case for case in METRICS + sorted(LEAVES)
              if max(np.max(np.abs(ric)) for _, _, ric, _ in _metric_cases(case)) > 0.1}
    assert {"heisenberg", "h2xh2", "paper-3.1:M", "paper-4.1:N"} <= curved
    assert any(case in curved for case in LEAVES), sorted(curved)


def warped_heisenberg():
    """(x, y, z) -> (x, y) for g = dx^2 + dy^2 + e^{2x} (dz - x dy)^2: the
    fibers are warped (T is not 0) and the horizontal space d_x, d_y + x d_z
    is not integrable (A is not 0)."""
    M, N = Chart("WHeis", ["x", "y", "z"]), Chart("R2w", ["u", "v"])
    e = M.parse
    gM = MetricField(M, [[1.0, 0.0, 0.0], [0.0, e("1 + x^2*exp(2*x)"), e("-x*exp(2*x)")],
                         [0.0, e("-x*exp(2*x)"), e("exp(2*x)")]])
    F = SmoothMap(M, N, [e("x"), e("y")], section=[N.parse(c) for c in ("u", "v", "0")])
    frames = AdaptedFrames(vertical=[vf(M, ["0", "0", "exp(-x)"])],
                           horizontal=[vf(M, ["1", "0", "0"]), vf(M, ["0", "1", "x"])])
    return MapGeometry(F, gM, diag_metric(N, ["1", "1"]), frames)


def sheared():
    """(x, y, z) -> (x, z - x y^2 / 2) with a vertical frame that turns
    with x y: the projectors have nonzero second derivatives, which the
    other maps' projectors (linear in the coordinates, or constant) lack."""
    M, N = Chart("Sh", ["x", "y", "z"]), Chart("Sh2", ["u", "v"])
    r = "sqrt(1 + x^2*y^2)"
    frames = AdaptedFrames(vertical=[vf(M, ["0", f"1/{r}", f"x*y/{r}"])],
                           horizontal=[vf(M, ["exp(-0.5*x)", "0", "0"]),
                                       vf(M, ["0", f"-x*y/{r}", f"1/{r}"])])
    return MapGeometry(SmoothMap(M, N, [M.parse("x"), M.parse("z - 0.5*x*y^2")]),
                       diag_metric(M, ["exp(x)", "1", "1"]), diag_metric(N, ["1", "1"]), frames)


MAPS = {"heisenberg": heisenberg_submersion, "warped-heisenberg": warped_heisenberg,
        "sheared": sheared}


def _map(case):
    return MAPS[case]() if case in MAPS else catalog.load(case).map_geometry()


def _source_tensors(mg, x):
    """(name, numeric values, symbolic oracle values) of each source tensor."""
    return [("T", mg.oneill_T(x), oracle.oneill(mg, "T").values(x)),
            ("A", mg.oneill_A(x), oracle.oneill(mg, "A").values(x)),
            ("nabla T", mg.nabla_oneill("T", x), oracle.nabla_oneill(mg, "T").values(x)),
            ("nabla A", mg.nabla_oneill("A", x), oracle.nabla_oneill(mg, "A").values(x)),
            ("SFF", mg.second_fundamental_form(x),
             oracle.second_fundamental_form(mg).values(x))]


def test_oneill_tensors_and_sff_match_the_symbolic_oracle():
    """Every tensor agrees with the oracle on each map, and each is far from
    zero on the warped Heisenberg and the sheared maps."""
    largest = Counter()
    for case in ("paper-3.1", "paper-4.1", "heisenberg", "warped-heisenberg", "sheared"):
        mg = _map(case)
        x = mg.gM.chart.sample_points(5, seed=23)
        for name, got, want in _source_tensors(mg, x):
            assert got.shape == want.shape, (case, name)
            assert close(got, want), (case, name, np.max(np.abs(got - want)))
            largest[name, case] = float(np.max(np.abs(want)))
    for name in ("T", "A", "nabla T", "nabla A", "SFF"):
        assert min(largest[name, "warped-heisenberg"], largest[name, "sheared"]) > 0.1, name


def _rotated(mg, angle):
    """The map geometry with each declared source frame turned, pair by pair,
    by the angle expression `angle`: the same subbundles and projectors from
    frames whose derivatives differ."""
    M = mg.gM.chart
    c, s = f"cos({angle})", f"sin({angle})"

    def turn(fields):
        out = list(fields)
        for a in range(0, len(out) - 1, 2):
            u, w = out[a].comps, out[a + 1].comps
            out[a] = vf(M, [f"{c}*({p}) + {s}*({q})" for p, q in zip(u, w)])
            out[a + 1] = vf(M, [f"-{s}*({p}) + {c}*({q})" for p, q in zip(u, w)])
        return out

    fr = mg.frames
    return MapGeometry(mg.F, mg.gM, mg.gN,
                       AdaptedFrames(turn(fr.vertical), turn(fr.horizontal), fr.range, fr.normal))


@pytest.mark.parametrize("case", ["paper-3.1", "warped-heisenberg", "sheared"])
def test_turning_the_declared_frames_leaves_the_oneill_tensors(case):
    mg = _map(case)
    M = mg.gM.chart
    turned = _rotated(mg, f"{M.coords[0]}*{M.coords[1]} + {M.coords[-1]}")
    x = M.sample_points(5, seed=29)
    turned.validate_frames(x)
    for which in ("T", "A"):
        assert close(turned.oneill_T(x) if which == "T" else turned.oneill_A(x),
                     mg.oneill_T(x) if which == "T" else mg.oneill_A(x)), which
        assert close(turned.nabla_oneill(which, x), mg.nabla_oneill(which, x)), which


def test_each_metric_jet_tape_is_evaluated_once_per_point_set(monkeypatch):
    """The second-order tape of each metric's entries i <= j, which
    `MetricField.at` reads, runs once per point set."""
    metrics, tapes, evaluated = [], set(), Counter()
    real_init, real_tape, real_evaluate = MetricField.__init__, Jets.tape, Tape.evaluate

    def init(self, *args):
        real_init(self, *args)
        metrics.append(self)

    def jet_tape(self, order=0):
        tape = real_tape(self, order)
        if order == 2 and any(self is g._upper for g in metrics):
            tapes.add(id(tape))
        return tape

    def evaluate(self, points):
        if id(self) in tapes:
            evaluated[id(self), np.asarray(points).tobytes()] += 1
        return real_evaluate(self, points)

    monkeypatch.setattr(MetricField, "__init__", init)
    monkeypatch.setattr(Jets, "tape", jet_tape)
    monkeypatch.setattr(Tape, "evaluate", evaluate)
    suites.run_suite(catalog.load("paper-4.1"))
    assert len(tapes) == 2  # g_M and g_N; the restricted leaves read their jets
    assert evaluated and set(evaluated.values()) == {1}, evaluated


def _restricted_arrays(case):
    """(the coordinates some derivative is taken along, n) and the source
    arrays of a case: T, A, nabla T, nabla A, the SFF and Ric_M, Ric_N at 23
    points, over two blocks, with the Ricci tensors of the restricted leaves
    of a catalog case; Ricci alone for H^2 x H^2."""
    if case == "h2xh2":
        g = h2xh2()
        x = g.chart.sample_points(23, seed=31)
        return (g.at(x).D, g.chart.dim), [ricci(g, x)]
    mg = _map(case)
    x = mg.gM.chart.sample_points(23, seed=31)
    out = [mg.oneill_T(x), mg.oneill_A(x), mg.nabla_oneill("T", x), mg.nabla_oneill("A", x),
           mg.second_fundamental_form(x), ricci(mg.gM, x), ricci(mg.gN, mg.F.values(x))]
    if case in catalog.names():
        c = PropositionCase(mg, x)
        out += [rg.at(x if part == "ker_rg" else mg.F.values(x)).ricci
                for part in ("ker_rg", "range_rg", "perp_rg") for rg in [getattr(c, part)]]
    return (np.union1d(mg.gM.at(x).D, mg.used("vertical", "horizontal")), mg.gM.chart.dim), out


@pytest.mark.parametrize("case", ["warped-heisenberg", "sheared", "h2xh2", "paper-3.1",
                                  "paper-4.1"])
def test_derivatives_along_the_used_coordinates_only_give_the_same_tensors(case, monkeypatch):
    """Taking every derivative along the coordinates that the metric and
    the frames use (`Jets.used`), and none along the others, gives the
    tensors of the same code run along every coordinate, bit for bit."""
    (along, n), restricted = _restricted_arrays(case)
    assert 0 < len(along) < n, along
    monkeypatch.setattr(Jets, "used", property(lambda self: np.arange(self.chart.dim)))
    (every, _), full = _restricted_arrays(case)
    assert len(every) == n and len(full) == len(restricted)
    for i, (got, want) in enumerate(zip(restricted, full)):
        assert got.shape == want.shape and np.array_equal(got, want), (case, i)


def test_a_metric_entry_that_carries_nan_still_fails_einstein_and_oneill():
    """paper-3.1 with 1e-30 sqrt(x1 - 0.5) added to g_11, NaN where x1 <
    0.5: `einstein` and `oneill` FAIL with a NaN residual, and oneill names
    the same first non-finite point, index 1 of 51 such points, for every
    term, as it did when every derivative was taken along every
    coordinate."""
    text = catalog.CATALOG["paper-3.1"].replace(
        "metric diag exp(-2*x4), exp(-2*x4)",
        "metric diag exp(-2*x4) + 1e-30*sqrt(x1 - 0.5), exp(-2*x4)")
    cfg = load_spec(text, name="nan-carrier")
    assert cfg.metrics["M"].at(cfg.metrics["M"].chart.sample_points(2, seed=1)).D.tolist() == [0, 3]
    checks = suites.run_suite(cfg, suite=["einstein", "oneill"]).to_dict()["checks"]
    einstein, oneill = checks
    for result in checks:
        assert result["verdict"] == "FAIL" and result["max_residual"] == "nan", result
    assert einstein["worst_point"] is None and oneill["worst_point"] is None
    assert len(oneill["notes"]) == 7 and all(
        note.endswith(": non-finite residual at 51 of 100 points, first at index 1")
        for note in oneill["notes"]), oneill["notes"]
