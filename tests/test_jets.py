"""`geometry.Jets`: one tape per derivative order of a declared expression
list, the values and first derivatives kept for the last point set.

Every catalog run evaluates each value and first-order tape at most once per
point set.  A `Jets` gives the same bits for its values at every order (and
for its first derivatives at orders 1 and 2), and a map's Jacobian read from
its first-order jets has the bits of a tape of its symbolic Jacobian.  Its
tapes differentiate along the coordinates it uses only, and the arrays it
gives have the bits of tapes that differentiate along every coordinate.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemcheck import catalog, suites
from riemcheck.expr import Tape
from riemcheck.geometry import Jets, function_at


@pytest.mark.parametrize("entry", catalog.names())
def test_no_value_or_first_order_tape_runs_twice_at_one_point_set(monkeypatch, entry):
    orders, evaluated = {}, Counter()
    real_tape, real_evaluate = Jets.tape, Tape.evaluate

    def tape(self, order=0):
        t = real_tape(self, order)
        orders[t] = order
        return t

    def evaluate(self, points):  # keyed by the tape itself, so no id is reused
        evaluated[self, np.asarray(points).tobytes()] += 1
        return real_evaluate(self, points)

    monkeypatch.setattr(Jets, "tape", tape)
    monkeypatch.setattr(Tape, "evaluate", evaluate)
    suites.run_suite(catalog.load(entry))
    assert any(orders.get(t) == 1 for t, _ in evaluated)
    twice = Counter(orders[t] for (t, _), k in evaluated.items() if k > 1 and orders.get(t, 2) < 2)
    assert not twice, twice


def test_values_and_first_derivatives_are_kept_read_only_for_the_last_point_set():
    g = catalog.load("sphere-2").metrics["S"]
    x, y = g.chart.sample_points(3, seed=1), g.chart.sample_points(3, seed=2)
    jets = Jets(g.mat.flat, g.chart)
    v, d, dd = jets.at(x, 1)
    assert dd is None and not v.flags.writeable and not d.flags.writeable
    assert jets.at(x, 1)[1] is d and jets.at(x.copy(), 1)[0] is v
    assert jets.at(y, 1)[0] is not v and jets.at(x, 1)[0] is not v
    v2, d2, dd2 = jets.at(x, 2)
    assert v2.flags.writeable and jets.at(x, 2)[2] is not dd2
    assert dd2.shape == (3, 3, 4)  # the pairs a <= b of 2 coordinates, 4 entries


@functools.cache
def _declared(entry):
    """(sample box, [Jets], map geometry or None) of a catalog entry: the
    Jets of every declared expression list, metrics (all entries and i <=
    j), fields, functions, structures, the map and its frame lists."""
    cfg = catalog.load(entry)
    out = [g.jets for g in cfg.metrics.values()] + [g._upper for g in cfg.metrics.values()]
    out += [X.jets for X in cfg.fields.values()]
    out += [cfg.metrics[c].function_jets(f) for (c, _), f in cfg.functions.items()]
    out += [J._tensor.jets for _, J in cfg.structures.values()]
    mg = cfg.map_geometry()
    if mg is not None:
        out += [mg.F.jets] + [jets for jets in mg._jets.values() if jets.exprs]
    return cfg.check["box"], out, mg


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(catalog.names()), npoints=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_values_agree_across_orders_and_the_jacobian_with_its_symbolic_tape(entry, npoints,
                                                                              seed):
    (lo, hi), lists, mg = _declared(entry)
    rng = np.random.default_rng(seed)
    for jets in lists:
        x = rng.uniform(lo, hi, size=(npoints, jets.chart.dim))
        (v0, _, _), (v1, d1, _), (v2, d2, _) = (jets.at(x, order) for order in (0, 1, 2))
        assert _same_bits(v0, v1) and _same_bits(v0, v2), (entry, jets.exprs)
        assert _same_bits(d1, d2), (entry, jets.exprs)
    if mg is not None:
        F = mg.F
        x = rng.uniform(lo, hi, size=(npoints, F.source.dim))
        want = Tape(list(F.jacobian.flat), F.source.coords).evaluate(x)
        assert _same_bits(F.jac_values(x), want.reshape(npoints, F.target.dim, F.source.dim))


def test_a_functions_operators_are_kept_for_the_last_point_set(monkeypatch):
    """One paper-3.1 run evaluates the second-order jets of f once:
    `function_at` keeps the gradient, Hessian and Laplacian of the last
    point set, read-only, as `MetricField.at` keeps its `MetricAt`."""
    cfg = catalog.load("paper-3.1")
    g, f = cfg.metrics["M"], cfg.functions[("M", "f")]
    jets, orders = g.function_jets(f), Counter()
    real_evaluate = Jets.evaluate

    def evaluate(self, points, order=0):
        if self is jets:
            orders[order] += 1
        return real_evaluate(self, points, order)

    monkeypatch.setattr(Jets, "evaluate", evaluate)
    suites.run_suite(cfg)
    assert orders == {2: 1}, orders
    x = g.chart.sample_points(3, seed=1)
    fa = function_at(g, f, x)
    assert function_at(g, f, x.copy()) is fa and orders == {2: 2}
    assert not any(a.flags.writeable for a in fa)
    assert function_at(g, f, g.chart.sample_points(3, seed=2)) is not fa


@pytest.mark.parametrize("entry, most, source_second", [("paper-3.1", 30, 2),
                                                         ("paper-4.1", 26, 0)])
def test_a_paper_run_evaluates_each_frame_list_through_its_jets(monkeypatch, entry, most,
                                                                source_second):
    """A run of a paper example evaluates at most `most` tapes: every
    declared frame field is read through its frame list's jets, and the
    source frames' second-order jets run only for nabla T and nabla A, which
    paper-3.1 asks for once and paper-4.1 never."""
    cfg = catalog.load(entry)
    fr = cfg.frames[cfg.the_map().name]
    source = [tuple(c for W in getattr(fr, w) for c in W.comps) for w in ("vertical", "horizontal")]
    calls, second = Counter(), Counter()
    real_jets, real_tape = Jets.evaluate, Tape.evaluate

    def jets_evaluate(self, points, order=0):
        if order == 2 and self.exprs in source:
            second[self.exprs] += 1
        return real_jets(self, points, order)

    def tape_evaluate(self, points):
        calls["evaluate"] += 1
        return real_tape(self, points)

    monkeypatch.setattr(Jets, "evaluate", jets_evaluate)
    monkeypatch.setattr(Tape, "evaluate", tape_evaluate)
    suites.run_suite(cfg)
    assert calls["evaluate"] <= most, calls
    assert sum(second.values()) == source_second and set(second.values()) <= {1}, second


def _bits(arrays):
    return [None if a is None else np.ascontiguousarray(a).view(np.uint64).copy()
            for a in arrays]


@pytest.mark.parametrize("entry", catalog.names())
def test_jets_along_the_used_coordinates_have_the_bits_of_jets_along_all(monkeypatch, entry):
    """Every array that the `Jets` of a run give, and those of the other
    orders up to 2 at the same points, has the bits (NaN and the sign of
    zero included) of a new `Jets` of the same expressions with `Jets.used`
    every coordinate, whose tapes differentiate along all of them."""
    got, seen = {}, {}
    real = Jets.evaluate

    def evaluate(self, points, order=0):
        out = real(self, points, order)
        pts = np.array(np.atleast_2d(points), dtype=float)
        seen[id(self), pts.tobytes()] = self, pts
        got[id(self), pts.tobytes(), order] = _bits(out)  # as the run reads them
        return out

    monkeypatch.setattr(Jets, "evaluate", evaluate)
    suites.run_suite(catalog.load(entry))
    assert any(order == 2 for *_, order in got)
    for key, (jets, pts) in seen.items():
        for order in range(3):
            got.setdefault(key + (order,), _bits(real(jets, pts, order)))
    monkeypatch.setattr(Jets, "used", property(lambda self: np.arange(self.chart.dim)))
    for (*key, order), arrays in got.items():
        jets, pts = seen[tuple(key)]
        for a, b in zip(arrays, _bits(real(Jets(jets.exprs, jets.chart), pts, order))):
            assert (a is None) == (b is None), (jets.exprs, order)
            assert a is None or (a.shape == b.shape and np.array_equal(a, b)), \
                (jets.exprs, order)


@pytest.mark.parametrize("entry, most", [("paper-3.1", 800), ("paper-4.1", 800)])
def test_a_paper_run_tapes_derivatives_along_the_used_coordinates_only(monkeypatch, entry,
                                                                        most):
    """A run of a paper example compiles at most `most` tape outputs (3,310
    and 4,378 with derivatives along every coordinate): each `Jets` tape has
    its E values, E first derivatives per coordinate in `Jets.used` and, at
    order 2, E second derivatives per pair a <= b of them."""
    outputs, tapes = Counter(), {}
    real_init, real_tape = Tape.__init__, Jets.tape

    def init(self, exprs, var_names):
        real_init(self, exprs, var_names)
        outputs["all"] += self.nout

    def tape(self, order=0):
        t = real_tape(self, order)
        tapes[t] = self, order
        return t

    monkeypatch.setattr(Tape, "__init__", init)
    monkeypatch.setattr(Jets, "tape", tape)
    suites.run_suite(catalog.load(entry))
    assert outputs["all"] <= most, outputs
    for t, (jets, order) in tapes.items():
        E, k = len(jets.exprs), len(jets.used)
        assert len(t) == E * (1 + k * (order > 0) + k * (k + 1) // 2 * (order == 2)), jets.exprs
    assert any(order and len(jets.used) < jets.chart.dim for jets, order in tapes.values())
