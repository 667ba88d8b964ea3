"""Tape compilation: agreement between tree evaluation, the single-point
path and the batch path."""

import math
import random
import warnings

import numpy as np
import pytest

from riemcheck.expr import Tape, evaluate, parse
from riemcheck.expr.nodes import DomainError

from test_expr import _random_tree, _VARS


def test_tape_matches_tree_evaluation():
    rng = random.Random(31415)
    exprs, pts = [], []
    for _ in range(60):
        exprs.append(_random_tree(rng, rng.randint(1, 5)))
    X = np.array([[rng.uniform(0.2, 1.2) for _ in _VARS] for _ in range(40)])
    tape = Tape(exprs, _VARS)
    vals = tape.evaluate(X)
    ones = np.array([tape.evaluate_at(x) for x in X])
    for j, e in enumerate(exprs):
        for i in range(X.shape[0]):
            env = dict(zip(_VARS, X[i]))
            try:
                ref = evaluate(e, env)
            except DomainError:
                continue
            if not math.isfinite(ref):
                continue
            assert vals[i, j] == pytest.approx(ref, rel=1e-14, abs=1e-14)
            assert ones[i, j] == pytest.approx(ref, rel=1e-14, abs=1e-14)


def test_common_subexpressions_are_shared():
    e1 = parse("exp(2*x)*sin(y)")
    e2 = parse("exp(2*x)*cos(y)")
    tape = Tape([e1, e2], ("x", "y"))
    # exp(2*x) must be computed once: LOADV x, LOADC 2, MUL, EXP appear once
    assert list(tape.code).count(3) == 1  # OP_EXP


def test_single_point_path_matches_batch():
    rng = random.Random(2718)
    exprs = [_random_tree(rng, 4) for _ in range(10)]
    tape = Tape(exprs, _VARS)
    x = np.array([0.4, 0.9, 1.1])
    a = tape.evaluate_at(x)
    b = tape.evaluate(x[None, :])[0]
    mask = np.isfinite(a) & np.isfinite(b)
    assert np.allclose(a[mask], b[mask], rtol=1e-13, atol=1e-13)


def test_tapes_sharing_a_shape_keep_their_own_values():
    t1 = Tape([parse("2*x + 3"), parse("x^4")], ("x", "y"))
    t2 = Tape([parse("5*p + 7"), parse("p^3")], ("p", "q"))
    assert t1._run_one is t2._run_one  # one compiled function for the shape
    assert list(t1.evaluate_at([1.5, 9.0])) == [6.0, 5.0625]
    assert list(t2.evaluate_at([2.0, 9.0])) == [17.0, 8.0]
    assert t1.evaluate(np.array([[1.5, 9.0]])).tolist() == [[6.0, 5.0625]]
    assert t2.evaluate(np.array([[2.0, 9.0]])).tolist() == [[17.0, 8.0]]


def test_out_of_domain_becomes_nonfinite_not_exception():
    tape = Tape([parse("log(x)"), parse("1/x"), parse("sqrt(x)")], ("x",))
    vals = tape.evaluate(np.array([[-1.0], [0.0], [2.0]]))
    assert not np.isfinite(vals[0, 0])
    assert not np.isfinite(vals[1, 1])
    assert np.isfinite(vals[2]).all()
    # a point that faults on the single-point path gives the batch row
    cases = [(src, x) for src in ("log(x)", "1/x", "sqrt(x)", "x^0.5")
             for x in (-1.0, 0.0)] + [("exp(x)", 1000.0)]
    for src, x in cases:
        tape = Tape([parse(src), parse("x + 1")], ("x",))
        row = tape.evaluate(np.array([[x]]))[0]
        one = tape.evaluate_at(np.array([x]))
        assert np.array_equal(one, row, equal_nan=True), (src, x, one, row)
    assert Tape([parse("exp(x)")], ("x",)).evaluate_at([1000.0])[0] == math.inf
    assert Tape([parse("log(x)")], ("x",)).evaluate_at([0.0])[0] == -math.inf


def test_tape_rejects_unknown_variable():
    with pytest.raises(Exception):
        Tape([parse("x + q")], ("x",))


def test_the_single_point_path_takes_an_array_as_its_list_of_floats():
    """An array given to `evaluate_list` is evaluated as the list of its
    floats: a division by zero takes the numpy path, without a warning,
    instead of computing in numpy scalars."""
    tape = Tape([parse("1/x"), parse("x/y"), parse("x + y")], ("x", "y"))
    for x in ([0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [1.5, 3.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tape.evaluate_list(np.array(x))
        assert all(type(v) is float for v in got), got
        assert np.array_equal(got, tape.evaluate_list(x), equal_nan=True), x
        assert np.array_equal(got, tape.evaluate(np.array([x]))[0], equal_nan=True), x
