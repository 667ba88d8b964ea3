"""The numeric target calculus against its symbolic oracle.

`propcheck.TargetCalculus` evaluates the covariant derivative, the normal
connection, the shape operator, its pullback derivative and the normal
curvature as array contractions of derivative tapes.  Every catalog term
built from them is 0 (the catalog's targets are flat or their fields stay
in their bundles), so these tests compare the operations with
`target_calculus_oracle.SymbolicTargetCalculus` on curved targets, with
fields that leave their bundles, where the values are far from 0.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from riemcheck import propcheck, suites
from riemcheck.catalog import load, names
from riemcheck.expr import nodes
from riemcheck.expr.tape import Tape
from riemcheck.geometry import Chart, GeometryError, Jets, MetricField, VectorField
from riemcheck.propcheck import TargetCalculus, verify_identity
from riemcheck.rmap import AdaptedFrames, MapGeometry, SmoothMap, field_jet
from riemcheck.specfile import load_spec

from paper_fixtures import all_rows
from target_calculus_oracle import SymbolicTargetCalculus, oracle_tc_values

# H^2 x H^2 in upper-half-plane coordinates, with a product of geodesics as
# the range of the map: a totally geodesic Lagrangian surface in a Kaehler
# manifold with Ric_N = -g_N, whose normal leaves y2, y4 = const are
# horocycles (so P_range nabla_E E' != 0 for normal E, E').
H2H2 = """
version 1

manifold M
  coords x1 x2 x3 x4
  metric diag 1, 1, 1, 1
end

manifold N
  coords y1 y2 y3 y4
  constraint positive y2
  constraint positive y4
  metric diag 1/y2^2, 1/y2^2, 1/y4^2, 1/y4^2
end

map F
  source M
  target N
  components 0, exp(x3), 0, exp(x4)
  section 0, 0, log(y2), log(y4)
end

frames F
  vertical U1 = 1, 0, 0, 0
  vertical U2 = 0, 1, 0, 0
  horizontal X1 = 0, 0, 1, 0
  horizontal X2 = 0, 0, 0, 1
  range R1 = 0, y2, 0, 0
  range R2 = 0, 0, 0, y4
  normal E1 = y2, 0, 0, 0
  normal E2 = 0, 0, y4, 0
end

structure J
  manifold M
  row 0, 0, -1, 0
  row 0, 0, 0, -1
  row 1, 0, 0, 0
  row 0, 1, 0, 0
end

structure Jp
  manifold N
  row 0, -1, 0, 0
  row 1, 0, 0, 0
  row 0, 0, 0, -1
  row 0, 0, 1, 0
end

function f on M = 0
function gfun on N = 0

check
  seed 7
  points 4
  tol 1e-8
  suite metric riemannian_map ric_fxfy ric_fxe ric_de lric_fxfy lric_fxe lric_de
  clairaut source f
  clairaut target gfun
end
"""

TARGET_ROWS = ("ric_fxfy", "ric_fxe", "ric_de", "lric_fxfy", "lric_fxe", "lric_de")


def h2h2():
    """The H^2 x H^2 target calculus and target points."""
    cfg = load_spec(H2H2, name="h2xh2")
    mg = cfg.map_geometry()
    return mg, cfg.structure_on("N"), mg.gN.chart.sample_points(5, seed=3, box=(0.3, 1.5))


def heisenberg():
    """The Heisenberg metric, which is not diagonal, as the target of the
    identity map; its range X2 = d_y + x d_z has a projector that depends on
    the point."""
    M = Chart("R3", ["u", "v", "w"])
    N = Chart("Heis", ["x", "y", "z"])
    gM = MetricField(M, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    e = N.parse
    gN = MetricField(N, [[1.0, 0.0, 0.0], [0.0, e("1 + x^2"), e("-x")], [0.0, e("-x"), 1.0]])
    F = SmoothMap(M, N, [M.parse(c) for c in ("u", "v", "w")],
                  section=[N.parse(c) for c in ("x", "y", "z")])
    frames = AdaptedFrames(range_=[VectorField(N, [0.0, 1.0, e("x")], name="X2")],
                           normal=[VectorField(N, [1.0, 0.0, 0.0], name="X1"),
                                   VectorField(N, [0.0, 0.0, 1.0], name="V")])
    return MapGeometry(F, gM, gN, frames), None, N.sample_points(5, seed=3, box=(-1.0, 1.0))


def _fields(chart):
    """Two lists of fields that leave every bundle: a coordinate field and a
    polynomial one (W), and two polynomial fields with second derivatives
    (D)."""
    a, b, c = chart.coords[:3]
    z = chart.coords[-1]
    rest = chart.dim - 2

    def vf(*comps):
        return VectorField(chart, [chart.parse(x) for x in comps])

    W = [vf("1", *["0"] * (chart.dim - 1)), vf(f"{b}*{c}", *[f"{a}^2 + {z}"] * (chart.dim - 1))]
    D = [vf(f"{a}*{b}^2", *[f"{c}*{a} + 2"] * rest, f"{b}^3"),
         vf(f"{z}^2", *["0"] * rest, f"{a}*{c}")]
    return W, D


OPERATIONS = {  # method: field lists, by name
    "cov": ("W", "D"),
    "nperp": ("W", "D"),
    "shape": ("D", "W"),
    "nabla_tilde_S": ("W", "D", "W"),
    "r_perp": ("W", "W", "D"),
}


@pytest.mark.parametrize("target", [h2h2, heisenberg])
@pytest.mark.parametrize("method", list(OPERATIONS))
def test_numeric_operation_matches_the_symbolic_oracle(target, method, monkeypatch):
    """Every combination of fields from the lists agrees with the symbolic
    field to 1e-12 relative to the largest oracle value, and that value is
    far from 0.  The fields vary along every coordinate, so the target
    calculus takes its derivatives along every coordinate here."""
    monkeypatch.setattr(Jets, "used", property(lambda self: np.arange(self.chart.dim)))
    mg, Jp, y = target()
    tc, oracle = TargetCalculus(mg, Jp), SymbolicTargetCalculus(mg, Jp)
    lists = dict(zip("WD", _fields(mg.gN.chart)))
    slots = OPERATIONS[method]
    p = SimpleNamespace(c=SimpleNamespace(tc=tc), tg=tc.geometry(y), tc_values={},
                        **{k: field_jet(Jets([c for W in v for c in W.comps], mg.gN.chart), y, 2)
                           for k, v in lists.items()})
    got = propcheck._tc_values(p, method, *slots)
    shape = (len(y),) + tuple(len(lists[s]) for s in slots) + (mg.gN.chart.dim,)
    assert got.shape == shape
    want = np.empty(shape)
    for ix in np.ndindex(*shape[1:-1]):
        fields = [lists[s][i] for s, i in zip(slots, ix)]
        want[(slice(None),) + ix] = getattr(oracle, method)(*fields).values(y)
    scale = np.max(np.abs(want))
    assert scale > 1e-3
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _rows_close(got, want):
    """The results agree row by row, to 1e-12 relative to each row's largest
    value, or raised the same error."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    if [(r["point"], r["pair"]) for r in all_rows(got)] != \
            [(r["point"], r["pair"]) for r in all_rows(want)]:
        return False
    for a, b in zip(all_rows(got), all_rows(want)):
        values = [(a["lhs"], b["lhs"]), (a["rhs"], b["rhs"])] + [
            (a["terms"][k], b["terms"][k]) for k in b["terms"]]
        if any(math.isnan(u) != math.isnan(v) for u, v in values):
            return False
        values = [(u, v) for u, v in values if not math.isnan(u)]
        scale = max((max(abs(u), abs(v)) for u, v in values), default=0.0)
        if any(abs(u - v) > 1e-12 * scale for u, v in values):
            return False
    return True


def _verify(case, ident):
    try:
        return verify_identity(case, ident)
    except GeometryError as exc:
        return (type(exc), str(exc))


def _case(cfg, points):
    return suites._Ctx(cfg, 7, points, cfg.check["tol"], cfg.check["box"]).case()


@pytest.mark.parametrize("entry", [e for e in names() if load(e).the_map()] + ["h2xh2"])
def test_target_rows_match_the_symbolic_oracle(entry, monkeypatch):
    """Every target-side row, numeric and through the symbolic oracle, on
    every catalog entry with a map and on H^2 x H^2, whatever its gates
    say.  (On H^2 x H^2 the range is totally geodesic and its frames stay in
    their bundles, so the target terms are 0 there too; the operations'
    test above is the one on values far from 0.)"""
    case = _case(load_spec(H2H2, name="h2xh2") if entry == "h2xh2" else load(entry), 3)
    got = {ident: _verify(case, ident) for ident in TARGET_ROWS}
    monkeypatch.setattr(propcheck, "_tc_values", oracle_tc_values)
    for ident in TARGET_ROWS:
        assert _rows_close(got[ident], _verify(case, ident)), (entry, ident)


def _target_arrays(entry):
    """(the coordinates D of the target calculus, n) and, at 23 points (two
    blocks of the images where D is every coordinate), every TABLE
    identity's rows (lhs, rhs and each term) or the error it raised, and the
    tg_normal gate."""
    case = _case(load_spec(H2H2, name="h2xh2") if entry == "h2xh2" else load(entry), 23)
    out = {}
    for ident in propcheck.TABLE:
        res = _verify(case, ident)
        if isinstance(res, tuple):
            out[ident] = res
        else:
            rows = res["rows"]
            out[ident] = [rows.lhs, rows.rhs, *rows.terms.values()] if len(rows) else []
    out["tg_normal"] = list(map(np.array, case.gates(["tg_normal"])["tg_normal"]))
    return (case.tg.D, case.mg.gN.chart.dim), out


@pytest.mark.parametrize("entry", ["paper-3.1", "paper-4.1", "h2xh2", "flat-lagrangian"])
def test_derivatives_along_the_used_coordinates_only_give_the_same_rows(entry, monkeypatch):
    """Taking every target-side derivative along the coordinates that g_N,
    the range and normal frames and J' use (`Jets.used`), and none along the
    others, gives the rows and the tg_normal gate of the same code run along
    every coordinate, bit for bit (NaN where NaN)."""
    (D, n), restricted = _target_arrays(entry)
    assert len(D) == 0 if entry == "flat-lagrangian" else 0 < len(D) < n, D
    assert any(len(v) for k, v in restricted.items() if k != "tg_normal")
    monkeypatch.setattr(Jets, "used", property(lambda self: np.arange(self.chart.dim)))
    (every, _), full = _target_arrays(entry)
    assert len(every) == n and full.keys() == restricted.keys()
    for key, got in restricted.items():
        want = full[key]
        assert len(got) == len(want), (entry, key)
        assert got == want if isinstance(got, tuple) else all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want)), (entry, key)


def test_target_calculus_builds_nothing_per_field_combination(monkeypatch):
    """paper-4.1: J', the projectors and the five derivative operations
    differentiate nothing and build no field; the only field jets are those
    of the declared range and normal frames, and the only tapes the target
    geometry builds are theirs, with first and with second derivatives, and
    J''s, so no symbolic work grows with the number of fields or of their
    combinations."""
    inside, building, built, called = [0], [0], Counter(), Counter()
    fields = set()
    real_diff, real_vf, real_tape = nodes._diff, VectorField.__init__, Tape.__init__

    def diff(e, v):
        built["differentiate"] += inside[0] > 0
        return real_diff(e, v)

    def vf_init(self, *args, **kwargs):
        built["VectorField"] += inside[0] > 0
        real_vf(self, *args, **kwargs)

    def tape_init(self, *args):
        built["tapes"] += building[0] > 0
        real_tape(self, *args)

    def counted(name, method):
        def run(self, *args):
            called[name] += 1
            inside[0] += 1
            try:
                return method(self, *args)
            finally:
                inside[0] -= 1
        return run

    def tapes(method, record=False):
        def run(self, *args, **kwargs):
            if record:  # the target frames' jets; the source frames' serve O'Neill
                if args[0] not in ("range", "normal"):
                    return method(self, *args, **kwargs)
                fields.update(getattr(self.frames, args[0]))
            building[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                building[0] -= 1
        return run

    monkeypatch.setattr(nodes, "_diff", diff)
    monkeypatch.setattr(VectorField, "__init__", vf_init)
    monkeypatch.setattr(Tape, "__init__", tape_init)
    operations = ("J", "proj_range", "proj_perp", "cov", "nperp", "shape", "nabla_tilde_S",
                  "r_perp")
    for name in operations:
        monkeypatch.setattr(TargetCalculus, name, counted(name, getattr(TargetCalculus, name)))
    monkeypatch.setattr(TargetCalculus, "geometry", tapes(TargetCalculus.geometry))
    monkeypatch.setattr(MapGeometry, "frame_jet", tapes(MapGeometry.frame_jet, True))
    cfg = load("paper-4.1")
    suites.run_suite(cfg, points=4)
    assert all(called[name] > 0 for name in operations if name != "cov"), called
    assert built["differentiate"] == 0 and built["VectorField"] == 0, built
    frames = cfg.map_geometry().frames
    assert fields == {*frames.range, *frames.normal}
    assert 0 < built["tapes"] <= 5, built
