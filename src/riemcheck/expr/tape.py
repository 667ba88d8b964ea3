"""Flat register programs for fast pointwise evaluation of expression sets.

A `Tape` compiles a list of expression trees over a fixed variable ordering
into a linear instruction stream with common subexpressions shared, then
turns that stream into one straight-line Python function `run(x, c)`: one
assignment per instruction, reading variables from `x` and constants from `c`,
returning the output registers.  The source depends only on the program's
shape (the constants are an argument), so it is compiled once per distinct
shape and bound twice:

- to `math` functions for `evaluate_list`, with `x` and `c` lists of floats;
- to numpy ufuncs for `evaluate`, with `x` the columns of the (npoints,
  nvars) input and `c` the constants broadcast over the points.

The tapes of the engine's declarations are made by `geometry.Jets`, one per
derivative order of each expression list, and every check evaluates them over
the whole point set with `evaluate`, values and first derivatives once per
point set.  `evaluate_list` (one point, a list of floats in, a sequence out)
serves the geodesic RK4 integrator, whose stages come one point at a time on
a state of Python floats; `evaluate_at` wraps it in arrays for
`Chart.check_domain`, which tests every accepted geodesic step.

Batch evaluation takes an (npoints, nvars) array and returns (npoints, nexprs).
Out-of-domain inputs produce non-finite outputs instead of exceptions: a
single point whose `math` evaluation faults is evaluated again through the
numpy path, so single-point and batch results agree on domain faults.  The
engine evaluates every expression through a tape; the tree interpreter
`nodes.evaluate` serves only as the tests' independent reference.
"""

from __future__ import annotations

import math

import numpy as np

from . import nodes
from .nodes import Binary, Const, Expr, Pow, Unary, Var

OP_LOADV = 0
OP_LOADC = 1
OP_NEG = 2
OP_EXP = 3
OP_LOG = 4
OP_SIN = 5
OP_COS = 6
OP_SQRT = 7
OP_ADD = 8
OP_SUB = 9
OP_MUL = 10
OP_DIV = 11
OP_POWC = 12

_UNARY_OPS = {"neg": OP_NEG, "exp": OP_EXP, "log": OP_LOG,
              "sin": OP_SIN, "cos": OP_COS, "sqrt": OP_SQRT}
_BINARY_OPS = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV}

# Right-hand side of each instruction, indexed by opcode; `a` and `b` are the
# operand fields (register, variable or constant index, as the op dictates).
_RHS = ("x[{a}]", "c[{a}]", "-r{a}", "exp(r{a})", "log(r{a})", "sin(r{a})",
        "cos(r{a})", "sqrt(r{a})", "r{a} + r{b}", "r{a} - r{b}",
        "r{a} * r{b}", "r{a} / r{b}", "pow(r{a}, c[{b}])")

_FUNCS = ("exp", "log", "sin", "cos", "sqrt")
_MATH = {name: getattr(math, name) for name in _FUNCS} | {"pow": math.pow}
_NUMPY = {name: getattr(np, name) for name in _FUNCS} | {"pow": np.power}

# (ops, a, b, out_regs) -> (single-point function, batch function).  Shapes
# repeat across the tapes of one run, and compiling is the expensive step.
_SHAPES: dict[tuple, tuple] = {}


def backend_name() -> str:
    return "pure"


def _compile(shape):
    ops, a, b, out_regs = shape
    lines = ["def run(x, c):"]
    lines += [f"    r{i} = " + _RHS[op].format(a=ia, b=ib)
              for i, (op, ia, ib) in enumerate(zip(ops, a, b))]
    lines.append("    return (" + "".join(f"r{r}, " for r in out_regs) + ")")
    code = compile("\n".join(lines), "<tape>", "exec")
    fns = []
    for names in (_MATH, _NUMPY):
        scope = dict(names)
        exec(code, scope)
        fns.append(scope["run"])
    return tuple(fns)


class Tape:
    """Compiled evaluation program for `exprs` over the ordered `var_names`."""

    def __init__(self, exprs, var_names):
        self.var_names = tuple(var_names)
        self.nvars = len(self.var_names)
        var_index = {name: i for i, name in enumerate(self.var_names)}
        if len(var_index) != self.nvars:
            raise nodes.ExprError("duplicate variable names in tape ordering")

        ops, a, b = [], [], []
        consts = []
        const_ix = {}
        reg_of = {}

        def cix(v):
            i = const_ix.get(v)
            if i is None:
                i = len(consts)
                consts.append(v)
                const_ix[v] = i
            return i

        def emit(e: Expr) -> int:
            k = e.key()
            r = reg_of.get(k)
            if r is not None:
                return r
            if isinstance(e, Const):
                ops.append(OP_LOADC); a.append(cix(e.value)); b.append(0)
            elif isinstance(e, Var):
                try:
                    vi = var_index[e.name]
                except KeyError:
                    raise nodes.ExprError(
                        f"expression uses variable '{e.name}' not in tape ordering"
                    ) from None
                ops.append(OP_LOADV); a.append(vi); b.append(0)
            elif isinstance(e, Unary):
                ra = emit(e.arg)
                ops.append(_UNARY_OPS[e.op]); a.append(ra); b.append(0)
            elif isinstance(e, Binary):
                ra, rb = emit(e.a), emit(e.b)
                ops.append(_BINARY_OPS[e.op]); a.append(ra); b.append(rb)
            elif isinstance(e, Pow):
                ra = emit(e.base)
                ops.append(OP_POWC); a.append(ra); b.append(cix(e.exponent))
            else:
                raise nodes.ExprError(f"unknown node {e!r}")
            r = len(ops) - 1
            reg_of[k] = r
            return r

        out_regs = tuple(emit(nodes.as_expr(e)) for e in exprs)
        self.nout = len(out_regs)
        self.code = tuple(ops)
        self.consts = np.asarray(consts, dtype=np.float64)
        fixed = [j for j, r in enumerate(out_regs) if ops[r] == OP_LOADC]
        self._fixed = fixed, self.consts[[a[out_regs[j]] for j in fixed]]
        self._live = [j for j, r in enumerate(out_regs) if ops[r] != OP_LOADC]
        self._const_list = self.consts.tolist()
        self.nregs = len(ops)
        shape = (self.code, tuple(a), tuple(b), out_regs)
        fns = _SHAPES.get(shape)
        if fns is None:
            fns = _SHAPES[shape] = _compile(shape)
        self._run_one, self._run_batch = fns

    def __len__(self):
        return self.nout

    def evaluate(self, points) -> np.ndarray:
        """points: (npoints, nvars) -> values (npoints, nout)."""
        X = np.ascontiguousarray(points, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.nvars:
            raise ValueError(f"expected points of shape (P, {self.nvars})")
        P = X.shape[0]
        c = np.broadcast_to(self.consts[:, None], (len(self.consts), P))
        with np.errstate(all="ignore"):
            cols = self._run_batch(X.T, c)
        out = np.empty((P, self.nout), dtype=np.float64)
        out[:, self._fixed[0]] = self._fixed[1]  # constant outputs in one assignment
        for j in self._live:
            out[:, j] = cols[j]
        return out

    def evaluate_list(self, x):
        """Single point as a list of `nvars` floats -> sequence of `nout`
        floats, through the `math` functions.  A point whose `math`
        evaluation faults is evaluated again through the numpy path, which
        gives non-finite values instead of an exception."""
        try:
            return self._run_one(x, self._const_list)
        except (ArithmeticError, ValueError):
            return self.evaluate([x])[0].tolist()

    def evaluate_at(self, x) -> np.ndarray:
        """Single point (nvars,) -> (nout,): `evaluate_list` in arrays."""
        return np.array(self.evaluate_list(np.asarray(x, dtype=np.float64).tolist()),
                        dtype=np.float64)
