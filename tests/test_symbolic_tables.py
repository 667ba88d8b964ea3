"""`expr.nodes.SymbolicTables`: a chart's tables for `simplify` and
`differentiate`, which live as long as the chart.

Through the tables every result is the one a call without them makes, to
the bits of every constant (the sign of zero included), whatever was done
before in the same tables.  A run builds every tape it built without
tables, simplifies each distinct subtree about once per nonvanishing set
and differentiates each (expression, coordinate) pair once; a new load of
an entry starts with new tables.
"""

import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from riemcheck import catalog, suites
from riemcheck.expr import Const, Tape, Var, differentiate, nodes, simplify
from riemcheck.expr.nodes import (
    ZERO,
    Add,
    Binary,
    Mul,
    Neg,
    Pow,
    SignedZeroKey,
    SymbolicTables,
    Unary,
)
from riemcheck.geometry import Chart

COLD_BUILD = ("euclidean-kahler", "flat-lagrangian", "gaussian-soliton", "hyperbolic-2",
              "polar-kahler", "warped-clairaut")


def _bits(v):
    return struct.pack("<d", v)


def _exact(e):
    """e's key with every constant and exponent as its IEEE bytes."""
    if isinstance(e, Const):
        return ("c", _bits(e.value))
    if isinstance(e, Var):
        return ("v", e.name)
    if isinstance(e, Unary):
        return (e.op, _exact(e.arg))
    if isinstance(e, Binary):
        return (e.op, _exact(e.a), _exact(e.b))
    return ("pow", _exact(e.base), _bits(e.exponent))


def _flip(v):
    return -v if v == 0.0 else v


def _flip_zeros(e):
    """e with the sign of every zero constant and exponent flipped: a tree
    with the same key."""
    if isinstance(e, Const):
        return Const(_flip(e.value))
    if isinstance(e, Var):
        return e
    if isinstance(e, Unary):
        return Unary(e.op, _flip_zeros(e.arg))
    if isinstance(e, Binary):
        return Binary(e.op, _flip_zeros(e.a), _flip_zeros(e.b))
    return Pow(_flip_zeros(e.base), _flip(e.exponent))


# -- signed zeros ------------------------------------------------------------------------

def test_a_key_with_a_negative_zero_equals_the_plain_key_and_is_tagged():
    x = Var("x")
    for signed, plain in [(Const(-0.0), Const(0.0)), (Neg(Const(-0.0)), Neg(Const(0.0))),
                          (Add(x, Const(-0.0)), Add(x, Const(0.0))),
                          (Pow(x, -0.0), Pow(x, 0.0)), (Pow(Const(-0.0), 2.0), Pow(ZERO, 2.0))]:
        assert signed.key() == plain.key() and hash(signed.key()) == hash(plain.key())
        assert type(signed.key()) is SignedZeroKey and type(plain.key()) is tuple


def test_the_tables_never_hand_back_the_result_for_the_other_zero():
    tables = SymbolicTables()
    for first, second in [(Neg(Const(0.0)), Neg(Const(-0.0))),
                          (Neg(Const(-0.0)), Neg(Const(0.0)))]:
        for e in (first, second):
            assert _exact(simplify(e, (), tables)) == _exact(simplify(e))
    x = Var("x")
    assert _exact(differentiate(nodes.Cos(x), "y", tables)) == ("c", _bits(-0.0))
    for e in (Mul(x, nodes.Log(Const(0.0))), Mul(x, nodes.Log(Const(-0.0)))):
        assert _exact(differentiate(e, "x", tables)) == _exact(differentiate(e, "x"))


def test_leaves_come_back_as_themselves_and_stay_out_of_the_tables():
    tables, x = SymbolicTables(), Var("x")
    assert simplify(ZERO, (), tables) is ZERO and simplify(x, (x,), tables) is x
    simplify(Add(x, Const(1.0)), (), tables)
    assert tables.simplified and all(k[0] not in ("c", "v")
                                     for table in tables.simplified.values() for k in table)


# -- the property ------------------------------------------------------------------------

_VARS = ("x", "y", "z")
_CONSTS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0)


def _trees(names):
    leaf = st.one_of(st.sampled_from([Var(n) for n in names]),
                     st.sampled_from(_CONSTS).map(Const),
                     st.sampled_from([Neg(Const(0.0)), Neg(Const(-0.0))]))
    return st.recursive(leaf, lambda t: st.one_of(
        st.tuples(st.sampled_from(Unary.OPS), t).map(lambda a: Unary(*a)),
        st.tuples(st.sampled_from(Binary.OPS), t, t).map(lambda a: Binary(*a)),
        st.tuples(t, st.sampled_from([2.0, 3.0, -1.0, 0.5, 0.0, -0.0])).map(lambda a: Pow(*a))),
        max_leaves=10)


@st.composite
def _cases(draw):
    names = _VARS[:draw(st.integers(2, 3))]
    trees = draw(st.lists(_trees(names), min_size=2, max_size=5))
    trees += [_flip_zeros(t) for t in trees[:draw(st.integers(0, 2))]]
    candidates = [Var(n) for n in names] + [Add(Var(names[0]), Const(1.0))] + trees
    nonvanishing = draw(st.lists(st.sampled_from(candidates), max_size=3))
    return names, trees, nonvanishing


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_cases())
def test_shared_tables_give_the_results_of_calls_without_them_in_any_order(case):
    """Each tree is simplified with and without the nonvanishing set and
    differentiated along every variable, through one `SymbolicTables`: tree
    by tree, then backwards from the last step."""
    names, trees, nonvanishing = case
    steps = [(kind, i, v) for i in range(len(trees))
             for kind, v in [("s", None), ("p", None)] + [("d", v) for v in names]]

    def run(step, tables=None):
        kind, i, v = step
        if kind == "d":
            return _exact(differentiate(trees[i], v, tables))
        return _exact(simplify(trees[i], nonvanishing if kind == "s" else (), tables))

    fresh = {step: run(step) for step in steps}
    for order in (steps, steps[::-1]):
        tables = SymbolicTables()
        assert {step: run(step, tables) for step in order} == fresh


# -- catalog runs ------------------------------------------------------------------------

def _tapes_of_run(monkeypatch, entry):
    built = []
    real = Tape.__init__

    def init(self, exprs, var_names):
        real(self, exprs, var_names)
        built.append((self._shape, self.consts.tobytes()))

    with monkeypatch.context() as m:
        m.setattr(Tape, "__init__", init)
        suites.run_suite(catalog.load(entry))
    return built


@pytest.mark.parametrize("entry", catalog.names())
def test_a_run_builds_the_tapes_of_a_run_without_tables(monkeypatch, entry):
    """Every tape of a catalog run (its `Jets` tapes among them) has the
    instructions and constant bytes of the same run with each chart's
    `simplify` and `differentiate` made without tables."""
    with_tables = _tapes_of_run(monkeypatch, entry)
    monkeypatch.setattr(Chart, "simplify", lambda self, e, nonvanishing=None: simplify(
        e, self.nonvanishing_keys() if nonvanishing is None else nonvanishing))
    monkeypatch.setattr(Chart, "differentiate", lambda self, e, v: differentiate(e, v))
    assert with_tables == _tapes_of_run(monkeypatch, entry)


@pytest.mark.parametrize("entry", catalog.names())
def test_no_run_differentiates_an_expression_along_a_coordinate_twice(monkeypatch, entry):
    built, depth = Counter(), [0]
    real = nodes._diff

    def diff(e, v):  # _diff recurses through the module name: count the outermost call
        if not depth[0]:
            built[e.key(), v] += 1
        depth[0] += 1
        try:
            return real(e, v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(nodes, "_diff", diff)
    suites.run_suite(catalog.load(entry))
    assert set(built.values()) <= {1}, [k for k, n in built.items() if n > 1]


def _node_visits(monkeypatch, entries, points):
    visits = Counter()
    real = nodes._simp_node

    def node(*args):
        visits["all"] += 1
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(nodes, "_simp_node", node)
        for entry in entries:
            suites.run_suite(catalog.load(entry), points=points, seed=7)
    return visits["all"]


@pytest.mark.parametrize("entries, points, most", [(COLD_BUILD, 4, 300),
                                                   (("paper-3.1", "paper-4.1"), None, 260)])
def test_a_pass_simplifies_each_distinct_subtree_about_once(monkeypatch, entries, points, most):
    """A seed-7 cold-build pass (248 `_simp_node` visits; 1,938 with a new
    table per call) and an identities pass (211; 2,280)."""
    assert 0 < _node_visits(monkeypatch, entries, points) <= most


def test_a_new_load_of_an_entry_starts_with_new_tables(monkeypatch):
    first = catalog.load("warped-clairaut")
    suites.run_suite(first, points=4)
    assert all(c.tables.simplified and c.tables.derivatives for c in first.charts.values())
    visits = [_node_visits(monkeypatch, ["warped-clairaut"], 4) for _ in range(2)]
    assert visits[0] == visits[1] > 0
    second = catalog.load("warped-clairaut")
    assert not {id(c.tables) for c in first.charts.values()} & {
        id(c.tables) for c in second.charts.values()}
