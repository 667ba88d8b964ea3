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
point set.  The geodesic integrator's RK4 steps are `rk4_chain`: a loop
over step sizes, each pass the right-hand side's four stages and the metric
tape at the new state, written by the same emitter and bound to `math`.
There an instruction that loads a state component or a constant is not an
assignment: its uses read the state's local or the constant's global name,
and only a later stage's input `(s + half * k)` is assigned.  A
step or metric that faults runs again through `evaluate_list` (one point, a
list of floats in, a sequence out), which also serves `Chart.check_domain`
and the integrator's other metric values.  `evaluate_at` wraps it in arrays
and has no caller in the engine.

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

# Right-hand side of each instruction on registers, by opcode; `a` and `b`
# are the expressions of the operand registers.
_RHS = {OP_NEG: "-{a}", OP_EXP: "exp({a})", OP_LOG: "log({a})", OP_SIN: "sin({a})",
        OP_COS: "cos({a})", OP_SQRT: "sqrt({a})", OP_ADD: "{a} + {b}", OP_SUB: "{a} - {b}",
        OP_MUL: "{a} * {b}", OP_DIV: "{a} / {b}"}

_FUNCS = ("exp", "log", "sin", "cos", "sqrt")
_MATH = {name: getattr(math, name) for name in _FUNCS} | {"pow": math.pow}
_NUMPY = {name: getattr(np, name) for name in _FUNCS} | {"pow": np.power}

# (ops, a, b, out_regs) -> (single-point function, batch function), and in
# `_CHAINS` (step shape, metric shape, positions) -> RK4 chain code.  Shapes
# repeat across the tapes of one run, and compiling is the expensive step.
_SHAPES: dict[tuple, tuple] = {}
_CHAINS: dict[tuple, object] = {}


def backend_name() -> str:
    return "pure"


def _emit(shape, x, r, c="c[{}]".format):
    """The instructions of `shape` as straight-line assignments: register i
    is the local `{r}{i}`, variable a reads the expression `x(a)` and
    constant a the expression `c(a)`.  A constant or variable whose
    expression is a name is not assigned: its uses read that name.  Returns
    the lines and the output expressions."""
    ops, a, b, out_regs = shape
    lines, names = [], []
    for i, (op, ia, ib) in enumerate(zip(ops, a, b)):
        if op == OP_LOADV:
            rhs = x(ia)
        elif op == OP_LOADC:
            rhs = c(ia)
        elif op == OP_POWC:
            rhs = f"pow({names[ia]}, {c(ib)})"
        else:
            rhs = _RHS[op].format(a=names[ia], b=names[ib])
        if op in (OP_LOADV, OP_LOADC) and rhs.isidentifier():
            names.append(rhs)
        else:
            lines.append(f"{r}{i} = {rhs}")
            names.append(f"{r}{i}")
    return lines, [names[i] for i in out_regs]


def _compile(shape):
    lines, outs = _emit(shape, "x[{}]".format, "r")
    lines.append("return (" + "".join(o + ", " for o in outs) + ")")
    code = compile("\n    ".join(["def run(x, c):", *lines]), "<tape>", "exec")
    fns = []
    for names in (_MATH, _NUMPY):
        scope = dict(names)
        exec(code, scope)
        fns.append(scope["run"])
    return tuple(fns)


def _compile_chain(shape, metric_shape, npos):
    """`Tape.rk4_chain`'s code, each step `Tape._rk4_stages`'s float
    operations in their order.  Variables and constants are read by name
    where they are used, not loaded into registers: the state `s{i}`, the
    step's constants `c{j}` and the metric's `cg{j}`; a later stage's input
    `(s{i} + half * k)` is assigned once.  `slow` (the step that faults),
    `gslow` (the metric that faults) and the constants are globals of the
    scope it is bound in."""
    n = len(shape[3])
    s, pos = "".join(f"s{i}, " for i in range(n)), "".join(f"s{i}, " for i in range(npos))
    step, x, ks = ["half = 0.5 * h"], "s{}".format, []
    for stage, hk in enumerate(("half", "half", "h", None), 1):
        body, k = _emit(shape, x, f"r{stage}_", "c{}".format)
        step += body
        ks.append(k)
        x = lambda i, k=k, hk=hk: f"(s{i} + {hk} * {k[i]})"  # the next stage's inputs
    step += ["sixth = h / 6.0", s + "= " + ", ".join(
        f"s{i} + sixth * ({k1} + 2.0 * {k2} + 2.0 * {k3} + {k4})"
        for i, (k1, k2, k3, k4) in enumerate(zip(*ks)))]
    metric, gs = _emit(metric_shape, "s{}".format, "g", "cg{}".format)
    lines = [s + "= s", "xs, gs = [], []", "for h in hs:",
             "    try:", *("        " + ln for ln in step),
             "    except (ArithmeticError, ValueError):",
             f"        {s}= slow([{s}], h)",
             "    if not (" + " and ".join(f"isfinite(s{i})" for i in range(n)) + "):",
             "        break",
             f"    xs += ({s})",
             "    if every:",
             "        try:", *("            " + ln for ln in metric),
             "            gs += (" + "".join(g + ", " for g in gs) + ")",
             "        except (ArithmeticError, ValueError):",
             f"            gs += gslow([{pos}])",
             "return xs, gs"]
    return compile("\n    ".join(["def chain(s, hs, every):", *lines]), "<rk4>", "exec")


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
        self._shape = shape = (self.code, tuple(a), tuple(b), out_regs)
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
        """Single point as a list of `nvars` floats (any other sequence is
        made one) -> sequence of `nout` floats, through the `math` functions.
        A point whose `math` evaluation faults is evaluated again through the
        numpy path, which gives non-finite values instead of an exception."""
        if type(x) is not list:
            x = np.asarray(x, dtype=np.float64).tolist()
        try:
            return self._run_one(x, self._const_list)
        except (ArithmeticError, ValueError):
            return self.evaluate([x])[0].tolist()

    def evaluate_at(self, x) -> np.ndarray:
        """Single point (nvars,) -> (nout,): `evaluate_list` in arrays."""
        return np.array(self.evaluate_list(np.asarray(x, dtype=np.float64).tolist()),
                        dtype=np.float64)

    def rk4_chain(self, metric):
        """`chain(s, hs, every)`: from the list of floats `s`, one classical
        RK4 step of ds/dt = (this tape at s) per size in `hs`, up to the first
        non-finite state, as straight-line code bound to `math`.  Returns the
        states and, if `every`, the `metric` tape's values at each one's
        first `metric.nvars` components, as flat lists.  A step or metric
        evaluation that faults runs again through `evaluate_list`."""
        if self.nout != self.nvars or metric.var_names != self.var_names[:metric.nvars]:
            raise ValueError("an RK4 chain needs one output per variable and a metric "
                             "of the leading variables")
        key = self._shape, metric._shape, metric.nvars
        code = _CHAINS.get(key)
        if code is None:
            code = _CHAINS[key] = _compile_chain(*key)
        scope = _MATH | {"isfinite": math.isfinite, "slow": self._rk4_stages,
                         "gslow": metric.evaluate_list}
        scope |= {f"c{j}": v for j, v in enumerate(self._const_list)}
        scope |= {f"cg{j}": v for j, v in enumerate(metric._const_list)}
        exec(code, scope)
        return scope["chain"]

    def _rk4_stages(self, s, h):
        # per component, the float order of the array form `s + 0.5 * h * k`
        half = 0.5 * h
        k1 = self.evaluate_list(s)
        k2 = self.evaluate_list([a + half * k for a, k in zip(s, k1)])
        k3 = self.evaluate_list([a + half * k for a, k in zip(s, k2)])
        k4 = self.evaluate_list([a + h * k for a, k in zip(s, k3)])
        sixth = h / 6.0
        return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
