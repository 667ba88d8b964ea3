"""Immutable scalar expression trees.

Node kinds: real constants, named variables, the unary functions
neg/exp/log/sin/cos/sqrt, the binary operators +,-,*,/ and powers with a
constant real exponent.  Trees are never mutated after construction, so they
can be shared freely between threads and cached aggressively.

Equality of expressions is always decided numerically at sample points;
`Expr.key()` exists for hashing/deduplication, not for deciding
mathematical equality.
"""

from __future__ import annotations

import math
from typing import Mapping


class ExprError(Exception):
    pass


class DomainError(ExprError):
    """Evaluation hit a domain fault (log of non-positive, division by zero).

    Carries the offending subtree so callers can report exactly which factor
    failed.
    """

    def __init__(self, message, subtree):
        super().__init__(f"{message} in subexpression '{subtree}'")
        self.subtree = subtree


class Expr:
    __slots__ = ("_key",)

    def __init__(self):
        self._key = None

    # -- construction sugar ------------------------------------------------
    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, k):
        return Pow(self, float(k))

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        return f"<Expr {to_str(self)}>"

    def key(self):
        if self._key is None:
            self._key = self._make_key()
        return self._key


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = float(value)

    def _make_key(self):
        return _tagged(("c", self.value), _negative_zero(self.value))


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__()
        self.name = name

    def _make_key(self):
        return ("v", self.name)


class Unary(Expr):
    __slots__ = ("op", "arg")
    OPS = ("neg", "exp", "log", "sin", "cos", "sqrt")

    def __init__(self, op, arg):
        super().__init__()
        if op not in self.OPS:
            raise ExprError(f"unknown unary op {op!r}")
        self.op = op
        self.arg = arg

    def _make_key(self):
        ka = self.arg.key()
        return _tagged((self.op, ka), type(ka) is SignedZeroKey)


class Binary(Expr):
    __slots__ = ("op", "a", "b")
    OPS = ("add", "sub", "mul", "div")

    def __init__(self, op, a, b):
        super().__init__()
        if op not in self.OPS:
            raise ExprError(f"unknown binary op {op!r}")
        self.op = op
        self.a = a
        self.b = b

    def _make_key(self):
        ka, kb = self.a.key(), self.b.key()
        return _tagged((self.op, ka, kb), SignedZeroKey in (type(ka), type(kb)))


class Pow(Expr):
    """base ** exponent with a *constant* real exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        super().__init__()
        self.base = base
        self.exponent = float(exponent)

    def _make_key(self):
        kb = self.base.key()
        return _tagged(("pow", kb, self.exponent),
                       type(kb) is SignedZeroKey or _negative_zero(self.exponent))


class SignedZeroKey(tuple):
    """The key of a tree holding a -0.0 (constant or exponent): equal and
    hash-equal to the plain tuple, as keys do not tell the zeros apart, but
    marked, because such a tree may simplify to a result with the other zero
    (`Neg(Const(0.0))` gives -0.0, `Neg(Const(-0.0))` 0.0)."""

    __slots__ = ()


def _negative_zero(x):
    return x == 0.0 and math.copysign(1.0, x) < 0.0


def _tagged(key, signed):
    return SignedZeroKey(key) if signed else key


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise ExprError(f"cannot coerce {x!r} to an expression")


def Neg(a):
    return Unary("neg", as_expr(a))


def Exp(a):
    return Unary("exp", as_expr(a))


def Log(a):
    return Unary("log", as_expr(a))


def Sin(a):
    return Unary("sin", as_expr(a))


def Cos(a):
    return Unary("cos", as_expr(a))


def Sqrt(a):
    return Unary("sqrt", as_expr(a))


def Add(a, b):
    return Binary("add", as_expr(a), as_expr(b))


def Sub(a, b):
    return Binary("sub", as_expr(a), as_expr(b))


def Mul(a, b):
    return Binary("mul", as_expr(a), as_expr(b))


def Div(a, b):
    return Binary("div", as_expr(a), as_expr(b))


def is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def variables(e: Expr) -> frozenset:
    """Set of variable names occurring in the tree."""
    out = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            out.add(n.name)
        elif isinstance(n, Unary):
            stack.append(n.arg)
        elif isinstance(n, Binary):
            stack.append(n.a)
            stack.append(n.b)
        elif isinstance(n, Pow):
            stack.append(n.base)
    return frozenset(out)


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Pointwise IEEE-double evaluation; raises DomainError with the offending
    subtree on log/division/sqrt/pow faults."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise ExprError(f"point does not cover variable '{e.name}'") from None
    if isinstance(e, Unary):
        v = evaluate(e.arg, env)
        op = e.op
        if op == "neg":
            return -v
        if op == "exp":
            return math.exp(v)
        if op == "log":
            if v <= 0.0:
                raise DomainError(f"log of non-positive value {v}", e)
            return math.log(v)
        if op == "sin":
            return math.sin(v)
        if op == "cos":
            return math.cos(v)
        if op == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v}", e)
            return math.sqrt(v)
    if isinstance(e, Binary):
        a = evaluate(e.a, env)
        b = evaluate(e.b, env)
        op = e.op
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            if b == 0.0:
                raise DomainError("division by zero", e)
            return a / b
    if isinstance(e, Pow):
        v = evaluate(e.base, env)
        try:
            return math.pow(v, e.exponent)
        except (ValueError, OverflowError):
            raise DomainError(f"{v} ** {e.exponent} undefined", e) from None
    raise ExprError(f"unknown node {e!r}")


class SymbolicTables:
    """The results `simplify` and `differentiate` keep from call to call for
    one chart (`Chart.tables`): a simplification table per nonvanishing set
    and a derivative table keyed by (expression key, variable).  Trees with
    a `SignedZeroKey` and `Const`/`Var` leaves never enter them."""

    def __init__(self):
        self.simplified = {}  # frozenset of nonvanishing keys -> {key: result}
        self.derivatives = {}  # (key, variable) -> derivative


def differentiate(e: Expr, v: str, tables: SymbolicTables | None = None) -> Expr:
    """Exact partial derivative with respect to variable name `v`.

    The result is passed through `simplify` so derivatives of the catalog
    metrics come out in the compact form the verification reports print.
    With `tables`, each (expression, variable) pair is differentiated once.
    """
    if tables is None or type(e.key()) is SignedZeroKey:
        return simplify(_diff(e, v))
    k = (e.key(), v)
    d = tables.derivatives.get(k)
    if d is None:
        d = tables.derivatives[k] = simplify(_diff(e, v), (), tables)
    return d


def _diff(e, v):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Unary):
        da = _diff(e.arg, v)
        op = e.op
        if op == "neg":
            return Neg(da)
        if op == "exp":
            return Mul(da, e)
        if op == "log":
            return Div(da, e.arg)
        if op == "sin":
            return Mul(da, Cos(e.arg))
        if op == "cos":
            return Neg(Mul(da, Sin(e.arg)))
        if op == "sqrt":
            return Div(da, Mul(Const(2.0), e))
    if isinstance(e, Binary):
        da, db = _diff(e.a, v), _diff(e.b, v)
        op = e.op
        if op == "add":
            return Add(da, db)
        if op == "sub":
            return Sub(da, db)
        if op == "mul":
            return Add(Mul(da, e.b), Mul(e.a, db))
        if op == "div":
            return Div(Sub(Mul(da, e.b), Mul(e.a, db)), Mul(e.b, e.b))
    if isinstance(e, Pow):
        db = _diff(e.base, v)
        return Mul(Mul(Const(e.exponent), Pow(e.base, e.exponent - 1.0)), db)
    raise ExprError(f"unknown node {e!r}")


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (used for pulling target-chart
    quantities back through a map)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.arg, mapping))
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Conservative simplification.
#
# Value-preserving only: constant folding, 0/1 identities, flattening of
# sum/product chains with like-term and exp-factor combination, and the
# sin^2+cos^2 pairing.  Factors cancel between numerator and denominator only
# when known (or declared) to be nonvanishing.  No factoring, no canonical
# forms: mathematical equality is always decided numerically elsewhere.
# ---------------------------------------------------------------------------


def _is_nonvanishing(e, declared):
    if isinstance(e, Const):
        return e.value != 0.0
    if isinstance(e, Unary) and e.op == "exp":
        return True
    if isinstance(e, Unary) and e.op == "neg":
        return _is_nonvanishing(e.arg, declared)
    if isinstance(e, Pow):
        return _is_nonvanishing(e.base, declared)
    return e.key() in declared


def simplify(e: Expr, nonvanishing=(), tables: SymbolicTables | None = None) -> Expr:
    """Value-preserving simplification.

    `nonvanishing` is a collection of structural keys (from `Expr.key()`)
    declared by the caller to never vanish on its domain; only such factors
    may cancel against their own reciprocals.  Subtrees met twice in one
    call are simplified once, and with `tables` once in all the calls that
    share them.
    """
    declared = frozenset(k.key() if isinstance(k, Expr) else k for k in nonvanishing)
    shared = tables is not None and type(e.key()) is not SignedZeroKey
    memo = tables.simplified.setdefault(declared, {}) if shared else {}

    def simp(n):
        if shared and isinstance(n, (Const, Var)):
            return n
        k = n.key()
        hit = memo.get(k)
        if hit is not None:
            return hit
        out = _simp_node(n, simp, declared, tables)
        memo[k] = out
        return out

    return simp(e)


def _simp_node(n, simp, declared, tables):
    if isinstance(n, (Const, Var)):
        return n
    if isinstance(n, Unary):
        a = simp(n.arg)
        return _simp_unary(n.op, a)
    if isinstance(n, Pow):
        b = simp(n.base)
        return _simp_pow(b, n.exponent)
    if isinstance(n, Binary):
        if n.op in ("add", "sub"):
            return _simp_sum(n, simp)
        return _simp_product(n, simp, declared, tables)
    raise ExprError(f"unknown node {n!r}")


def _simp_unary(op, a):
    if op == "neg":
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Unary) and a.op == "neg":
            return a.arg
        return Unary("neg", a)
    if isinstance(a, Const):
        v = a.value
        try:
            if op == "exp":
                return Const(math.exp(v))
            if op == "log" and v > 0.0:
                return Const(math.log(v))
            if op == "sin":
                return Const(math.sin(v))
            if op == "cos":
                return Const(math.cos(v))
            if op == "sqrt" and v >= 0.0:
                return Const(math.sqrt(v))
        except OverflowError:
            pass
    return Unary(op, a)


def _simp_pow(b, k):
    if k == 0.0:
        return ONE
    if k == 1.0:
        return b
    if isinstance(b, Const):
        try:
            return Const(math.pow(b.value, k))
        except (ValueError, OverflowError):
            return Pow(b, k)
    if isinstance(b, Unary) and b.op == "exp":
        return _simp_unary("exp", _simp_product(Mul(Const(k), b.arg), lambda x: x, frozenset()))
    # (u^a)^k -> u^(a*k) only for integer a, k (value-safe on all of R)
    if isinstance(b, Pow) and float(b.exponent).is_integer() and float(k).is_integer():
        return _simp_pow(b.base, b.exponent * k)
    return Pow(b, k)


def _sum_terms(n, simp, out, sign):
    # flatten nested add/sub without re-simplifying subtrees already simplified
    if isinstance(n, Binary) and n.op == "add":
        _sum_terms(n.a, simp, out, sign)
        _sum_terms(n.b, simp, out, sign)
    elif isinstance(n, Binary) and n.op == "sub":
        _sum_terms(n.a, simp, out, sign)
        _sum_terms(n.b, simp, out, -sign)
    else:
        s = simp(n)
        if isinstance(s, Binary) and s.op in ("add", "sub"):
            _sum_terms(s, lambda x: x, out, sign)
        elif isinstance(s, Unary) and s.op == "neg":
            out.append((-sign, s.arg))
        else:
            out.append((sign, s))


def _split_coeff(e):
    # peel a leading constant coefficient off a term
    coeff = 1.0
    while True:
        if isinstance(e, Unary) and e.op == "neg":
            coeff, e = -coeff, e.arg
        elif isinstance(e, Binary) and e.op == "mul" and isinstance(e.a, Const):
            coeff, e = coeff * e.a.value, e.b
        elif isinstance(e, Binary) and e.op == "mul" and isinstance(e.b, Const):
            coeff, e = coeff * e.b.value, e.a
        else:
            return coeff, e


def _simp_sum(n, simp):
    raw = []
    _sum_terms(n, simp, raw, +1)
    const = 0.0
    terms = {}  # key -> [coeff, expr]
    order = []
    for sign, t in raw:
        if isinstance(t, Const):
            const += sign * t.value
            continue
        c, rest = _split_coeff(t)
        c *= sign
        if isinstance(rest, Const):
            const += c * rest.value
            continue
        k = rest.key()
        if k in terms:
            terms[k][0] += c
        else:
            terms[k] = [c, rest]
            order.append(k)

    # sin^2 + cos^2 -> 1 (the one trig identity the simplifier knows)
    for k in list(order):
        if k not in terms:
            continue
        item = terms.get(k)
        if item is None:
            continue
        rest = item[1]
        if (isinstance(rest, Pow) and rest.exponent == 2.0
                and isinstance(rest.base, Unary) and rest.base.op == "sin"):
            mate_key = Pow(Unary("cos", rest.base.arg), 2.0).key()
            mate = terms.get(mate_key)
            if mate is not None and mate[0] == item[0]:
                const += item[0]
                del terms[k]
                del terms[mate_key]

    def piece(c, rest):
        if c == 1.0:
            return rest
        if c == -1.0:
            return Neg(rest)
        return Mul(Const(c), rest)

    acc = None
    for k in order:
        item = terms.get(k)
        if item is None:
            continue
        c, rest = item
        if c == 0.0:
            continue
        if acc is None:
            acc = piece(c, rest)
        elif c < 0.0:
            acc = Sub(acc, piece(-c, rest))
        else:
            acc = Add(acc, piece(c, rest))
    if acc is None:
        return Const(const)
    if const != 0.0:
        acc = Sub(acc, Const(-const)) if const < 0.0 else Add(acc, Const(const))
    return acc


def _product_factors(n, simp, num, den, side):
    if isinstance(n, Binary) and n.op == "mul":
        _product_factors(n.a, simp, num, den, side)
        _product_factors(n.b, simp, num, den, side)
    elif isinstance(n, Binary) and n.op == "div":
        _product_factors(n.a, simp, num, den, side)
        _product_factors(n.b, simp, num, den, -side)
    else:
        s = simp(n)
        if isinstance(s, Binary) and s.op in ("mul", "div"):
            _product_factors(s, lambda x: x, num, den, side)
        elif isinstance(s, Unary) and s.op == "neg":
            num.append(Const(-1.0))
            _product_factors(s.arg, lambda x: x, num, den, side)
        else:
            (num if side > 0 else den).append(s)


def _simp_product(n, simp, declared, tables=None):
    num, den = [], []
    _product_factors(n, simp, num, den, +1)

    coeff = 1.0
    exp_arg_terms = []  # summed arguments of exp factors
    bases = {}  # key -> [net integer-ish exponent, base expr]
    order = []
    other = []  # non-combinable factors as (expr, +1/-1 side)

    def eat(f, side):
        nonlocal coeff
        if isinstance(f, Const) and not (side < 0 and f.value == 0.0):
            # literal zero denominators stay inert so evaluate() can report them
            coeff = coeff * f.value if side > 0 else coeff / f.value
            return
        if isinstance(f, Unary) and f.op == "exp":
            exp_arg_terms.append((side, f.arg))
            return
        base, k = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1.0)
        bk = base.key()
        if bk in bases:
            bases[bk][0] += side * k
        else:
            bases[bk] = [side * k, base]
            order.append(bk)

    for f in num:
        eat(f, +1)
    for f in den:
        eat(f, -1)

    if coeff == 0.0:
        return ZERO

    if exp_arg_terms:
        acc = None
        for side, a in exp_arg_terms:
            piece = a if side > 0 else Neg(a)
            acc = piece if acc is None else Add(acc, piece)
        earg = _simp_sum(acc, lambda x: x) if isinstance(acc, Binary) else simplify(acc, (), tables)
        ef = _simp_unary("exp", earg)
        if isinstance(ef, Const):
            coeff *= ef.value
        else:
            bases[ef.key()] = [1.0, ef]
            order.append(ef.key())

    top, bottom = [], []
    for bk in order:
        k, base = bases[bk]
        if k == 0.0:
            if not _is_nonvanishing(base, declared):
                # keep an inert base^a/base^a pair rather than claim cancellation
                top.append(base)
                bottom.append(base)
            continue
        f = _simp_pow(base, k) if k > 0 else _simp_pow(base, -k)
        if isinstance(f, Const) and not (k < 0 and f.value == 0.0):
            coeff = coeff * f.value if k > 0 else coeff / f.value
            continue
        (top if k > 0 else bottom).append(f)

    def chain(fs):
        acc = None
        for f in fs:
            acc = f if acc is None else Mul(acc, f)
        return acc

    tnum = chain(top)
    tden = chain(bottom)
    if tnum is None and tden is None:
        return Const(coeff)
    if tnum is None:
        tnum = Const(coeff)
        coeff = 1.0
    if coeff == -1.0:
        out = Neg(tnum)
    elif coeff != 1.0:
        out = Mul(Const(coeff), tnum)
    else:
        out = tnum
    if tden is not None:
        out = Div(out, tden)
    return out


# ---------------------------------------------------------------------------
# Printing.  Output re-parses under the package grammar to a value-equal tree.
# ---------------------------------------------------------------------------

_PREC_SUM, _PREC_PROD, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_str(e: Expr) -> str:
    s, _ = _to_str(e)
    return s


def _to_str(e):
    if isinstance(e, Const):
        if e.value < 0.0:
            return "-" + _fmt_num(-e.value), _PREC_NEG
        return _fmt_num(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Unary):
        if e.op == "neg":
            s, p = _to_str(e.arg)
            if p < _PREC_NEG:
                s = f"({s})"
            return "-" + s, _PREC_NEG
        s, _ = _to_str(e.arg)
        return f"{e.op}({s})", _PREC_ATOM
    if isinstance(e, Pow):
        s, p = _to_str(e.base)
        if p < _PREC_ATOM:
            s = f"({s})"
        k = e.exponent
        ks = _fmt_num(k) if k >= 0 else f"({_fmt_num(k)})"
        return f"{s}^{ks}", _PREC_POW
    if isinstance(e, Binary):
        sa, pa = _to_str(e.a)
        sb, pb = _to_str(e.b)
        if e.op == "add":
            if sb.startswith("-"):
                sb = f"({sb})"
            return f"{sa} + {sb}", _PREC_SUM
        if e.op == "sub":
            if pb <= _PREC_SUM or sb.startswith("-"):
                sb = f"({sb})"
            return f"{sa} - {sb}", _PREC_SUM
        if e.op == "mul":
            if pa < _PREC_PROD:
                sa = f"({sa})"
            if pb < _PREC_PROD or sb.startswith("-"):
                sb = f"({sb})"
            return f"{sa}*{sb}", _PREC_PROD
        if pa < _PREC_PROD:
            sa = f"({sa})"
        if pb <= _PREC_PROD or sb.startswith("-"):
            sb = f"({sb})"
        return f"{sa}/{sb}", _PREC_PROD
    raise ExprError(f"unknown node {e!r}")
