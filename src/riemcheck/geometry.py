"""Chart-level Riemannian geometry.

Symbolic side: the Christoffel symbols (for the geodesic equation) and the
gradient (for a field a map pushes forward) as expression-valued tensors.
Every declared expression list (the components of a field, a tensor, a
metric, a map or a frame list, or a function) has one `Jets`: one tape per
derivative order, whose values and first derivatives are evaluated once per
point set.  Numeric side, from those arrays: the curvature of a metric at a
point set (`MetricField.at`: the second-order jets of the entries i <= j,
then Gamma, its derivatives along the coordinates they use, Riemann, Ricci
and the scalar curvature, for the metric or for a coordinate block), the
gradient, Hessian and Laplacian of a function (`function_at`) and the Lie
derivative of the metric along a field (`lie_derivative`), seeded
sample-point generation, Gram-Schmidt orthonormalization, a 4th-order
geodesic integrator with energy monitoring (first attempts run ahead in
chains, whose energies are one stacked `qform`), and the contractions every
check evaluates frames with: `matvec`, `tvec`, `vdot` and `qform` on stacked
vectors, `pair_form`, `tform` and `on_pairs` on pairs of frame vectors, the
metric norm `gnorm` and the `umbilic_gap` reduction.

Index conventions (documented once, used everywhere):
  * tensor components store contravariant indices first, e.g. a (1,2) tensor
    T has T[a, i, j] = (T(d_i, d_j))^a; arrays at P points put the point axis
    first and, for derivatives, the derivative index next: d[p, a, ...] is
    d_a of the value [p, ...];
  * riemann(g, x)[p, l, i, j, k] = (R(d_i, d_j) d_k)^l with
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z;
  * ricci(g, x)[p, i, j] = sum_k riemann[p, k, k, i, j], i.e. Ric(X, Y) is the
    trace of Z -> R(Z, X) Y.  The unit sphere then has Ric = +(n-1) g.
  * the derivative slot of a covariant derivative is the first covariant
    index: (nabla T)[a, l, i, j] = (nabla_{d_l} T)(d_i, d_j)^a.

All field objects are immutable after construction; cached tensors are
write-once, and arrays kept for a point set are read-only.  Per-point
evaluations are pure functions.
"""

from __future__ import annotations

import contextlib
import math
from functools import cache, cached_property
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .expr import (
    Const,
    Expr,
    as_expr,
    differentiate,
    parse,
    simplify,
    to_str,
    variables,
)
from .expr.nodes import ZERO, Add, Div, Mul, Neg, Sub, SymbolicTables, Var, is_const
from .expr.tape import Tape

CURVATURE_CONVENTION = ("R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z "
                        "- nabla_[X,Y] Z; Ric(X,Y) = trace(Z -> R(Z,X)Y); "
                        "unit sphere has Ric = +(n-1) g")
ORTHO_TOL = 1e-10  # orthonormalize's rank threshold on a squared norm
BLOCK = 20  # points per block of the n**4-sized curvature intermediates
CHAIN_CAP = 256  # geodesic_integrate's longest chain of speculative steps


class GeometryError(Exception):
    pass


class ChartDomainError(GeometryError):
    pass


# -- small symbolic helpers ---------------------------------------------------

def _add(a, b):
    if is_const(a, 0.0):
        return b
    if is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if is_const(b, 0.0):
        return a
    if is_const(a, 0.0):
        return Neg(b)
    return Sub(a, b)


def _mul(a, b):
    if is_const(a, 0.0) or is_const(b, 0.0):
        return ZERO
    if is_const(a, 1.0):
        return b
    if is_const(b, 1.0):
        return a
    return Mul(a, b)


def _prod(*factors):
    """The product of `factors`, formed left to right; ZERO, with no
    multiplication built, when one of them is the zero constant."""
    for f in factors:
        if isinstance(f, Const) and f.value == 0.0:
            return ZERO
    p = factors[0]
    for f in factors[1:]:
        p = _mul(p, f)
    return p


def sym_zeros(shape):
    return np.full(shape, ZERO, dtype=object)


def sym_einsum(spec, *operands, acc=None, sign=1):
    """Sparse contraction of expression arrays in einsum notation, e.g.
    "kl,lij->kij": each output entry is acc's entry (ZERO without acc) plus,
    or with sign -1 minus, one product per assignment of the summed letters,
    formed left to right from the operands' entries.

    Only assignments whose factors are all nonzero are visited, so no
    structural zero is multiplied and an empty sum stays ZERO.  The visit
    order is fixed: per output entry, the summed letters in order of first
    appearance, the first slowest.  `simplify` keeps a sum's terms in the
    order it meets them, so this order is part of the result."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    ops = [np.asarray(op, dtype=object) for op in operands]
    letters = out + "".join(dict.fromkeys(c for c in "".join(ins) if c not in out))
    nonzero = [np.array([not (isinstance(e, Const) and e.value == 0.0) for e in op.flat],
                        dtype=bool).reshape(op.shape) for op in ops]
    hits = np.einsum(",".join(ins) + "->" + letters, *nonzero)
    res = sym_zeros(hits.shape[:len(out)]) if acc is None else acc.copy()
    step = _add if sign > 0 else _sub
    entry = [itemgetter(*[letters.index(c) for c in s]) for s in ins]
    for h in np.argwhere(hits).tolist():
        o = tuple(h[:len(out)])
        res[o] = step(res[o], _prod(*[op[get(h)] for op, get in zip(ops, entry)]))
    return res


def _symmetrized(acc, simp):
    """simp of every entry of an array symmetric in its last two slots: the
    entries with i <= j there are simplified and mirrored."""
    out = np.empty(acc.shape, dtype=object)
    for idx in np.ndindex(*acc.shape):
        i, j = idx[-2:]
        if i <= j:
            out[idx] = out[idx[:-2] + (j, i)] = simp(acc[idx])
    return out


class Chart:
    """A named coordinate system with optional domain constraints.

    Constraints are (expression, kind) pairs with kind 'nonzero' or
    'positive'; they gate sample-point generation and are offered to the
    simplifier as declared-nonvanishing factors.  Every expression on the
    chart is simplified and differentiated through its `tables`, so a run
    does each distinct one once.
    """

    def __init__(self, name, coords, constraints=()):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise GeometryError(f"chart {name!r}: duplicate coordinate names")
        if len(coords) < 1:
            raise GeometryError(f"chart {name!r}: dimension must be >= 1")
        self.name = name
        self.coords = coords
        self.dim = len(coords)
        cons = []
        for c, kind in constraints:
            if kind not in ("nonzero", "positive"):
                raise GeometryError(f"unknown constraint kind {kind!r}")
            cons.append((as_expr(c), kind))
        self.constraints = tuple(cons)
        # every constraint in one tape, shared by sampling and domain checks
        self._cons_tape = Tape([c for c, _ in cons], coords) if cons else None
        self.tables = SymbolicTables()

    def __repr__(self):
        return f"<Chart {self.name} dim={self.dim}>"

    def nonvanishing_keys(self):
        return [c for c, _ in self.constraints]

    def simplify(self, e, nonvanishing=None):
        """`simplify` through the chart's tables, with the declared
        nonvanishing factors or, given, with `nonvanishing` (() for none)."""
        return simplify(e, self.nonvanishing_keys() if nonvanishing is None else nonvanishing,
                        self.tables)

    def differentiate(self, e, v):
        return differentiate(e, v, self.tables)

    def parse(self, text, extra=()):
        return parse(text, allowed=self.coords + tuple(extra))

    def check_domain(self, x):
        """Raises ChartDomainError naming the first constraint violated at
        the coordinates x, a list of floats; a constraint that is not finite
        there is violated."""
        if self._cons_tape is None:
            return
        for (c, kind), v in zip(self.constraints, self._cons_tape.evaluate_list(x)):
            if kind == "nonzero" and not (abs(v) >= 1e-12 and math.isfinite(v)):
                raise ChartDomainError(f"constraint {to_str(c)} != 0 violated")
            if kind == "positive" and not (v > 0.0 and math.isfinite(v)):
                raise ChartDomainError(f"constraint {to_str(c)} > 0 violated")

    def sample_points(self, n, seed, box=(0.1, 1.0)) -> np.ndarray:
        """Seeded uniform samples over box^dim, rejection-filtered through the
        chart constraints (a non-finite constraint value rejects the
        candidate).  Returns an (n, dim) array."""
        rng = np.random.default_rng(seed)
        lo, hi = float(box[0]), float(box[1])
        out = np.empty((n, self.dim))
        got = 0
        for _ in range(200):
            cand = rng.uniform(lo, hi, size=(max(n, 8), self.dim))
            if self._cons_tape is not None:
                vals = self._cons_tape.evaluate(cand)
                ok = np.all(np.isfinite(vals), axis=1)
                for j, (_, kind) in enumerate(self.constraints):
                    col = vals[:, j]
                    ok &= (np.abs(col) > 1e-9) if kind == "nonzero" else (col > 1e-9)
                cand = cand[ok]
            take = min(n - got, len(cand))
            out[got:got + take] = cand[:take]
            got += take
            if got == n:
                return out
        raise ChartDomainError(
            f"could not draw {n} sample points satisfying constraints of {self.name}")


class VectorField:
    """Contravariant components (expressions) in the coordinate basis, with
    their `Jets`."""

    def __init__(self, chart, comps, name=None):
        comps = tuple(as_expr(c) for c in comps)
        if len(comps) != chart.dim:
            raise GeometryError(
                f"vector field on {chart.name} needs {chart.dim} components, got {len(comps)}")
        self.chart = chart
        self.comps = comps
        self.name = name
        self.jets = Jets(comps, chart)

    def __repr__(self):
        parts = ", ".join(to_str(c) for c in self.comps)
        return f"<VectorField {self.name or ''} ({parts})>"

    def values(self, points) -> np.ndarray:
        return self.jets.at(points)[0]


class TensorField:
    """Dense expression-valued tensor with signature (p contravariant,
    q covariant); component array shape is (dim,) * (p + q).  Its `Jets`
    list the components in C order."""

    def __init__(self, chart, sig, comps):
        p, q = sig
        comps = np.asarray(comps, dtype=object)
        if comps.shape != (chart.dim,) * (p + q):
            raise GeometryError(
                f"tensor of signature {sig} on {chart.name} needs shape "
                f"{(chart.dim,) * (p + q)}, got {comps.shape}")
        self.chart = chart
        self.sig = (p, q)
        self.comps = comps
        self.jets = Jets(comps.flat, chart)

    def values(self, points) -> np.ndarray:
        v = self.jets.at(points)[0]
        return v.reshape((len(v),) + self.comps.shape)


class MetricField(TensorField):
    """Symmetric positive-definite (0,2) expression matrix `mat` on a chart.

    The symbolic inverse (adjugate, exact for the catalog's dimensions, for
    `gradient`) and the symbolic Christoffel symbols (for `geodesic_tape`)
    are cached write-once.  Curvature is numeric, from the `Jets` of the
    entries i <= j at a point set (`at`); the values read the full n x n
    `jets`, so that `check_spd` sees an asymmetric declaration.  The `Jets`
    of each function on the chart (`function_jets`) are kept, one per
    function.  Positive definiteness is checked at sample points only, never
    proven globally.
    """

    def __init__(self, chart, mat):
        mat = np.asarray(mat, dtype=object)
        if mat.shape != (chart.dim, chart.dim):
            raise GeometryError(
                f"metric on {chart.name} must be {chart.dim}x{chart.dim}, got {mat.shape}")
        super().__init__(chart, (0, 2), [[chart.simplify(as_expr(e)) for e in row] for row in mat])
        self.mat = self.comps
        self._cache = {}
        self._upper = Jets(self.mat[np.triu_indices(chart.dim)], chart)
        self._functions, self._function_at = {}, {}
        self._last_at = LastPointSet()

    def check_spd(self, points, tol=1e-12):
        """Symmetry and positive definiteness at the given points; raises
        GeometryError on the first offending point, which the loop over the
        points finds only where the test of the whole stack fails."""
        pts = np.atleast_2d(points)
        G = self.values(pts)
        with contextlib.suppress(np.linalg.LinAlgError):
            if np.all(np.isfinite(G)) and np.all(
                    np.max(np.abs(G - G.swapaxes(1, 2)), axis=(1, 2))
                    <= tol * np.maximum(1.0, np.max(np.abs(G), axis=(1, 2)))):
                np.linalg.cholesky(G)
                return
        for i, g in enumerate(G):
            if not np.all(np.isfinite(g)):
                raise GeometryError(f"metric not finite at sample point {pts[i]}")
            if np.max(np.abs(g - g.T)) > tol * max(1.0, float(np.max(np.abs(g)))):
                raise GeometryError(f"metric asymmetric at sample point {pts[i]}")
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise GeometryError(
                    f"metric not positive definite at sample point {pts[i]}") from None

    # ---- symbolic side ----
    def _simp(self, e):
        return self.chart.simplify(e)

    def inverse(self) -> np.ndarray:
        """Symbolic inverse via the adjugate; exact for the chart sizes used
        here.  Numeric work should invert the metric values instead."""
        if "inv" not in self._cache:
            n = self.chart.dim
            if n > 6:
                raise GeometryError("symbolic inverse limited to dim <= 6; "
                                    "invert the metric values instead")
            d = self._simp(_sym_det(self.mat))
            if is_const(d, 0.0):
                raise GeometryError("metric is symbolically degenerate (det == 0)")
            inv = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(n):
                    minor = _sym_det(np.delete(np.delete(self.mat, i, 0), j, 1))
                    sign = -1.0 if (i + j) % 2 else 1.0
                    inv[j, i] = self._simp(Div(_prod(Const(sign), minor), d))
            self._cache["inv"] = inv
        return self._cache["inv"]

    def christoffel(self):
        if "gamma" not in self._cache:
            self._cache["gamma"] = christoffel(self)
        return self._cache["gamma"]

    def function_jets(self, f) -> Jets:
        """The `Jets` of the function f on the chart, made on first use and
        kept: `function_at` and the Clairaut invariant share them."""
        f = as_expr(f)
        if f.key() not in self._functions:
            self._functions[f.key()] = Jets([f], self.chart)
        return self._functions[f.key()]

    def at(self, points) -> MetricAt:
        """The metric's jets and curvature at a point set.  A run evaluates
        a metric at one point set, its sample points x or their images
        y = F(x), so those of the last point set are kept."""
        def build(pts):
            v, d, dd = self._upper.at(pts, 2)
            m = _mirror(self.chart.dim)
            return MetricAt(v[:, m], d[:, :, m], dd, m, self._upper.used)
        return self._last_at.get(points, build)


class LastPointSet:
    """The value built for the last point set: asking again for the same
    set returns it, and a new set replaces it."""
    key = value = None

    def get(self, points, build=None):  # without `build`, None for a new set
        pts = np.array(np.atleast_2d(points), dtype=float)
        if (pts.shape, pts.tobytes()) != self.key:
            if build is None:
                return None
            self.key, self.value = (pts.shape, pts.tobytes()), build(pts)
        return self.value


class Jets:
    """The jets of a list of E expressions over a chart: one tape per
    derivative order, built on first use.  Order 0 lists the expressions;
    order 1 adds d_a of each for every coordinate a in `used`; order 2 adds
    d_a d_b of each for the pairs a <= b in `used`, in C order.  Every
    derivative along another coordinate vanishes and is not on a tape.

    `at(points, order)` gives the arrays at P points: values v (P, E), from
    order 1 d (P, n, E) with d[:, a] = d_a v, and at order 2 dd (P,
    n(n+1)/2, E), the d_a d_b v at the pair index `_mirror(n)[a, b]`; each
    None past the order, and +0.0 along the coordinates outside `used`.
    Orders 0 and 1 keep the arrays of the last point set, read-only (values
    from either), so their tapes run once per point set.  Second-order
    arrays are made on each call and not kept.  `evaluate(points, order)`
    gives the same arrays and keeps none, for a point set that no other
    caller reads."""

    def __init__(self, exprs, chart):
        self.exprs = tuple(exprs)
        self.chart = chart
        self._tapes = {}
        self._last = (LastPointSet(), LastPointSet())

    @cached_property
    def used(self):
        """The indices of the coordinates used: derivatives along others vanish."""
        names = set().union(*map(variables, self.exprs))
        return np.array([a for a, c in enumerate(self.chart.coords) if c in names], dtype=int)

    @cached_property
    def _first(self):  # the first derivatives along `used`, which orders 1 and 2 share
        return _partials(self.chart, self.exprs, [self.chart.coords[a] for a in self.used])

    def tape(self, order=0) -> Tape:
        if order not in self._tapes:
            coords, d = self.chart.coords, self._first if order else []
            along = [coords[a] for a in self.used]
            dd = ([_partials(self.chart, row, along[i:]) for i, row in enumerate(d)]
                  if order == 2 else [])
            self._tapes[order] = Tape([*self.exprs, *(e for row in d for e in row),
                                       *(e for rows in dd for row in rows for e in row)],
                                      coords)
        return self._tapes[order]

    def at(self, points, order=0):
        if order == 2:
            return self.evaluate(points, 2)
        if order == 0 and self._last[1].get(points) is not None:
            return self._last[1].value[0], None, None
        return self._last[order].get(points, lambda pts: self.evaluate(pts, order))

    def evaluate(self, points, order=0):
        vals = self.tape(order).evaluate(np.atleast_2d(points))
        if order < 2:
            frozen(vals)
        P, n, E, U = len(vals), self.chart.dim, len(self.exprs), self.used
        d = dd = None
        if order:  # the tape's derivatives, put at their coordinates
            k = E * (len(U) + 1)
            d = np.zeros((P, n, E))
            d[:, U] = vals[:, E:k].reshape(P, len(U), E)
        if order == 2:
            m = _mirror(n)
            pairs = [m[a, b] for i, a in enumerate(U) for b in U[i:]]  # a <= b, C order
            dd = np.zeros((P, n * (n + 1) // 2, E))
            dd[:, pairs] = vals[:, k:].reshape(P, len(pairs), E)
        return vals[:, :E], frozen(d) if order == 1 else d, dd


def _sym_det(mat) -> Expr:
    n = mat.shape[0]
    if n == 0:  # the minor of a 1x1 matrix
        return Const(1.0)
    if n == 1:
        return mat[0, 0]
    if n == 2:
        return _sub(_prod(mat[0, 0], mat[1, 1]), _prod(mat[0, 1], mat[1, 0]))
    acc = ZERO
    for j in range(n):
        a = mat[0, j]
        if is_const(a, 0.0):
            continue
        minor = _sym_det(np.delete(np.delete(mat, 0, 0), j, 1))
        term = _prod(a, minor)
        acc = _add(acc, term) if j % 2 == 0 else _sub(acc, term)
    return acc


# -- curvature ----------------------------------------------------------------

def christoffel(g: MetricField) -> TensorField:
    """Levi-Civita connection coefficients, Gamma[k, i, j], symmetric in
    (i, j)."""
    n = g.chart.dim
    coords = g.chart.coords
    dg = np.empty((n, n, n), dtype=object)  # dg[k][i][j] = d_k g_ij
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                d = g.chart.differentiate(g.mat[i, j], coords[k])
                dg[k, i, j] = d
                dg[k, j, i] = d
    inner = np.empty((n, n, n), dtype=object)  # d_i g_jl + d_j g_il - d_l g_ij
    for l, i, j in np.ndindex(n, n, n):
        inner[l, i, j] = _sub(_add(dg[i, j, l], dg[j, i, l]), dg[l, i, j])
    acc = sym_einsum("kl,lij->kij", g.inverse(), inner)
    return TensorField(g.chart, (1, 2),
                       _symmetrized(acc, lambda e: g._simp(_prod(Const(0.5), e))))


def _partials(chart, exprs, coords):
    """[a][e] = d_a of each expression on the chart for each coordinate a;
    ZERO, with nothing differentiated, where the expression does not contain
    a."""
    names = [variables(e) for e in exprs]
    return [[chart.differentiate(e, a) if a in v else ZERO for e, v in zip(exprs, names)]
            for a in coords]


@cache
def _mirror(n):
    """m[i, j] = m[j, i] = the index of (i, j), i <= j, in C order; read-only,
    made once per n."""
    m = np.zeros((n, n), dtype=int)
    m[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    return frozen(m + np.triu(m, 1).T)


def _sym(a):
    """a, exactly symmetric in its last two axes, from their upper triangle."""
    return np.triu(a) + np.swapaxes(np.triu(a, 1), -1, -2)


def frozen(a):
    """a, read-only: arrays kept for a point set are shared by every check."""
    a.flags.writeable = False
    return a


def blocks(P, size=BLOCK):
    """Consecutive slices of at most `size` of P points (one, empty, for
    none): the n**4-sized intermediates of the curvature, of the O'Neill
    derivatives and of the target images are made a block at a time."""
    return [slice(i, i + size) for i in range(0, max(P, 1), size)]


def by_blocks(fn, P):
    """fn(s) for each of the `blocks` s of P points, joined along the point
    axis."""
    return np.concatenate([fn(s) for s in blocks(P)])


class MetricAt:
    """A metric at P points, from one evaluation of its second-order jets
    (`MetricField.at`): G [i, j], dG [a, i, j] = d_a g_ij and ddG(s) [a, b,
    i, j] = d_a d_b g_ij; by the product rule with the inverse Ginv of the
    values, gam [k, i, j] = Gamma^k_ij, dgam(s) [a, k, i, j] = d_a
    Gamma^k_ij, riemann(s) [l, i, j, k], ricci [i, j] (its trace) and
    scalar; each with a leading point axis, or at the points of the slice s.
    The n**4-sized ones are made on each use, the others on first use and
    kept, read-only.  ricci takes d Gamma along the coordinates D that the
    entries use only (`Jets.used`).

    The second derivatives dd [pair, entry] are kept packed: m[a, b] is the
    index of the pair a, b and of the entry a, b (`_mirror`)."""

    def __init__(self, G, dG, dd, m, D):
        self.G, self.dG, self._dd, self._m, self.D = frozen(G), frozen(dG), dd, m, D
        self._blocks = {}

    def block(self, I) -> MetricAt:
        """The induced metric of the coordinate block I (a tuple of indices),
        on the submanifolds where the other coordinates are constant, at the
        same points: the entries i, j in I of G, their derivatives along I,
        the packed second derivatives read through m at I x I, and D in I.
        Kept per block."""
        if I not in self._blocks:
            i, j = np.ix_(I, I)
            self._blocks[I] = MetricAt(self.G[:, i, j], self.dG[:, I][:, :, i, j], self._dd,
                                       self._m[i, j], np.flatnonzero(np.isin(I, self.D)))
        return self._blocks[I]

    def ddG(self, s, along=slice(None)):
        """d_a d_b g_ij at the points of s, for the a of `along` only."""
        return self._dd[s][:, self._m[along][..., None, None], self._m]

    @cached_property
    def Ginv(self):
        return frozen(np.linalg.inv(self.G))

    @cached_property
    def gam(self):
        # Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2
        dG = self.dG
        return frozen(_sym(0.5 * pdot(self.Ginv, dG.transpose(0, 3, 1, 2)
                                      + dG.transpose(0, 3, 2, 1) - dG)))

    def dgam(self, s, along=slice(None)):
        # g^kl (d_a Gamma_lij - d_a g_lm Gamma^m_ij), Gamma_lij = g_lk Gamma^k_ij,
        # for the a of `along` only
        ddG = self.ddG(s, along)
        low = ddG.transpose(0, 1, 4, 2, 3) + ddG.transpose(0, 1, 4, 3, 2)
        low -= ddG
        low *= 0.5
        low -= pdot(self.dG[s][:, along], self.gam[s])
        return pdot(self.Ginv[s], low.swapaxes(1, 2)).swapaxes(1, 2)

    def riemann(self, s):
        # X[l, i, j, k] - X[l, j, i, k], X = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk
        X = pdot(self.gam[s], self.gam[s])
        X += self.dgam(s).swapaxes(1, 2)
        return X - X.swapaxes(2, 3)

    def _ricci(self, s):
        # sum_i X[i, i, j, k] - X[i, j, i, k], X as in `riemann` with d Gamma
        # along D only, summed over i as np.trace sums Riemann's diagonal
        gam, ii, D = self.gam[s], np.arange(len(self.G[0])), self.D
        first = pdot(gam[:, ii, ii], gam)  # [i, j, k] = Gamma^i_im Gamma^m_jk
        second = np.matmul(gam, gam.transpose(0, 2, 1, 3))  # Gamma^i_jm Gamma^m_ik
        dgam = self.dgam(s, D)  # [a, l, j, k] = d_{D_a} Gamma^l_jk
        first[:, D] += dgam[:, np.arange(len(D)), D]
        second[:, :, D] += dgam[:, :, ii, ii].swapaxes(1, 2)
        return _sym(np.moveaxis(first - second, 1, -1).sum(-1))

    @cached_property
    def ricci(self):
        return frozen(by_blocks(self._ricci, len(self.G)))

    @cached_property
    def scalar(self):
        return frozen(np.trace(np.matmul(self.Ginv, self.ricci), axis1=1, axis2=2))


def riemann(g: MetricField, points) -> np.ndarray:
    """R[p, l, i, j, k] = (R(d_i, d_j) d_k)^l at the points."""
    m = g.at(points)
    return by_blocks(m.riemann, len(m.G))


def ricci(g: MetricField, points) -> np.ndarray:
    """Ric[p, i, j] = sum_k R[p, k, k, i, j] at the points; symmetric."""
    return g.at(points).ricci


def scalar_curvature(g: MetricField, points) -> np.ndarray:
    """g^ij Ric_ij at each of the points, (P,)."""
    return g.at(points).scalar


# -- first-order operators ----------------------------------------------------

def gradient(g: MetricField, f: Expr) -> VectorField:
    """(grad f)^j = g^{ij} d_i f, as a symbolic field: the one a map pushes
    forward through its section (`rmap.pushforward_field`).  Checks read
    grad f at their points from `function_at`."""
    df = [g.chart.differentiate(as_expr(f), c) for c in g.chart.coords]
    return VectorField(g.chart, [g._simp(e) for e in sym_einsum("ij,i->j", g.inverse(), df)])


class FunctionAt(NamedTuple):
    """A function f at P points: its differential d (P, n) with d[:, a] =
    d_a f, gradient grad (P, n), Hessian hess (P, n, n) and Laplacian lap
    (P,)."""
    d: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    lap: np.ndarray


def function_at(g: MetricField, f, points) -> FunctionAt:
    """f's first- and second-order operators at the points, from the
    second-order jets of f (`MetricField.function_jets`) and `g.at(points)`:
    grad f = g^-1 df, Hess f = dd f - Gamma^k df_k and Laplacian
    tr(g^-1 Hess f), kept read-only for the last point set."""
    def build(pts):
        m = g.at(pts)
        _, d, dd = g.function_jets(f).at(pts, 2)
        df = d[..., 0]
        hess = _sym(dd[:, _mirror(g.chart.dim), 0] - pdot(df, m.gam))
        return FunctionAt(*map(frozen, (df, matvec(m.Ginv, df), hess,
                                        np.sum(m.Ginv * hess, axis=(1, 2)))))
    return g._function_at.setdefault(as_expr(f).key(), LastPointSet()).get(points, build)


def lie_derivative(g: MetricField, X: VectorField, points) -> np.ndarray:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k at the points,
    (P, n, n), from `g.at(points)` and X's first-order jets."""
    m = g.at(points)
    v, d, _ = X.jets.at(points, 1)
    GdX = np.matmul(d, m.G)  # [i, j] = g_kj d_i X^k
    return _sym(pdot(v, m.dG) + GdX + GdX.swapaxes(1, 2))


# -- numeric utilities ---------------------------------------------------------

def worst(values):
    """The one reduction of residuals over sample points (or pairs, sides,
    terms): returns (value, index, n_nonfinite).

    The first non-finite value (NaN or +-inf) wins, otherwise the first
    maximum, as np.argmax picks it.  Masked entries of a numpy masked array
    are points the residual skips (an empty kernel, say): they are neither
    non-finite nor ever the worst.  With no unmasked entry the result is
    (0.0, None, 0)."""
    data = np.asarray(values, dtype=float).ravel()
    mask = getattr(values, "mask", False)  # np.ma.nomask when nothing is masked
    kept = np.flatnonzero(~np.ravel(mask)) if np.ndim(mask) else np.arange(data.size)
    if not len(kept):
        return 0.0, None, 0
    data = data[kept]
    bad = ~np.isfinite(data)
    n_bad = int(np.count_nonzero(bad))
    i = int(np.argmax(bad)) if n_bad else int(np.argmax(data))
    return float(data[i]), int(kept[i]), n_bad


# Products over stacks of vectors and matrices whose leading axes broadcast
# (points, frame indices).  Each reaches, through np.matmul, the BLAS routine
# the per-vector expression in its docstring calls, so a whole stack gives the
# same bits as a loop over its vectors.

def matvec(M, v) -> np.ndarray:
    """M @ v for every matrix (..., n, m) and vector (..., m)."""
    return np.matmul(M, v[..., None])[..., 0]


def tvec(T, v, k=1) -> np.ndarray:
    """sum_j T[..., j] v[..., j] for tensors (..., *out, m) with k output axes
    and vectors (..., m); where T has no axis before its point axis, one
    product per point, with every vector of v there as a column.  Every
    size is explicit, so an empty axis (m = 0, or one in out) contracts."""
    out, lead = T.shape[-k - 1:-1], T.shape[:-k - 1]
    T = T.reshape(lead + (math.prod(out), T.shape[-1]))
    if len(lead) > 1:
        r = matvec(T, v)
    else:
        cols = np.moveaxis(v.reshape((math.prod(v.shape[:-2]),) + v.shape[-2:]), 0, -1)
        r = np.moveaxis(np.matmul(T, cols), -1, 0).reshape(v.shape[:-1] + T.shape[1:2])
    return r.reshape(r.shape[:-1] + out)


def vdot(u, v) -> np.ndarray:
    """u @ v for every pair of vectors (..., n)."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def pdot(A, B) -> np.ndarray:
    """sum_m A[p, ..., m] B[p, m, ...] for every point p: one matmul per
    point, the remaining axes of A then those of B."""
    P, m = len(A), A.shape[-1]
    return np.matmul(A.reshape(P, math.prod(A.shape[1:-1]), m),
                     B.reshape(P, m, math.prod(B.shape[2:]))).reshape(A.shape[:-1] + B.shape[2:])


def qform(u, M, v) -> np.ndarray:
    """u @ M @ v, evaluated as (u @ M) @ v, for every vector (..., n),
    matrix (..., n, m) and vector (..., m)."""
    return np.matmul(np.matmul(u[..., None, :], M), v[..., :, None])[..., 0, 0]


# Frame-pair contractions: a frame is a stack (..., k, n) of row vectors; a
# tensor on two frames has one value per pair (a, b), F = E when F is None.

def pair_form(E, M, F=None) -> np.ndarray:
    """M(E_a, F_b) = E_a @ M @ F_b by qform: (..., a, b) from E (..., a, n),
    forms M (..., n, m) and F (..., b, m)."""
    F = E if F is None else F
    return qform(E[..., :, None, :], M[..., None, None, :, :], F[..., None, :, :])


def tform(T, X, Y) -> np.ndarray:
    """T(X, Y)^k = sum_ij T[..., k, i, j] X^i Y^j for (1,2) tensors (..., k, n, m)
    and vectors X (..., n) and Y (..., m) whose leading axes broadcast."""
    return matvec(matvec(T, Y[..., None, :]), X)


def on_pairs(T, E, F=None) -> np.ndarray:
    """T(E_a, F_b): (..., a, b, k) from (1,2) tensors T (..., k, n, m) and
    frames E (..., a, n) and F (..., b, m)."""
    F = E if F is None else F
    return tform(T[..., None, None, :, :, :], E[..., :, None, :], F[..., None, :, :])


def gnorm(w, G) -> np.ndarray:
    """|w|_G = sqrt|w @ G @ w| for vectors (..., n) and metrics (..., n, n); the
    absolute value keeps a square that rounds below zero finite."""
    return np.sqrt(np.abs(qform(w, G, w)))


def umbilic_gap(vals, gram, H, G) -> np.ndarray:
    """max over pairs (a, b) of |vals[a, b] - gram[a, b] H|_G at each point, from a
    vector-valued form on frame pairs (P, a, b, n), their Gram form (P, a, b),
    vectors H (P, n) and metrics G (P, n, n): how far the form is from g H."""
    diff = vals - gram[..., None] * H[:, None, None, :]
    return np.max(gnorm(diff, G[:, None, None]), axis=(1, 2))


def orthonormal_frames(G, points) -> np.ndarray:
    """inv(cholesky(G[p])) for a (P, n, n) stack of metric values at the
    points (P, dim): the rows of frame p are a G[p]-orthonormal basis.
    Raises GeometryError naming the first point where G is not positive
    definite."""
    G = np.asarray(G, dtype=float)
    try:
        return np.linalg.inv(np.linalg.cholesky(G))
    except np.linalg.LinAlgError:
        for p, g in enumerate(G):
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise GeometryError(f"orthonormal frame of the metric: not positive definite "
                                    f"at point {p} {np.asarray(points)[p].tolist()}") from None
        raise


def orthonormalize(gval: np.ndarray, vectors):
    """Gram-Schmidt with inner product gval; `vectors` is (k, n).  Raises on
    rank deficiency.  Returns (k, n) with span preserved."""
    V = np.asarray(vectors, dtype=float)
    out = []
    for v in V:
        w = v.copy()
        for u in out:
            w = w - (u @ gval @ w) * u
        norm2 = float(w @ gval @ w)
        if norm2 <= ORTHO_TOL:
            raise GeometryError("orthonormalize: rank deficiency at point")
        out.append(w / math.sqrt(norm2))
    return np.array(out)


# -- geodesics ------------------------------------------------------------------

class Trajectory:
    """Geodesic integration record: times, positions, velocities, the
    maximum drift of g(xdot, xdot) relative to its initial value, the step
    halvings, and the number of steps accepted at the last halving with a
    step drift still above the energy tolerance (`unconverged`)."""

    def __init__(self, chart, times, xs, vs, energy_drift, halvings, unconverged):
        self.chart = chart
        self.times = times
        self.xs = xs
        self.vs = vs
        self.energy_drift = energy_drift
        self.halvings = halvings
        self.unconverged = unconverged

    def __len__(self):
        return len(self.times)


def geodesic_tape(g: MetricField) -> Tape:
    """The geodesic equation's right-hand side (v, -Gamma^k_ij v^i v^j) as one
    tape over the coordinates followed by the velocities `_v0`, `_v1`, ...
    (the parser only accepts names that start with a letter, so these never
    collide with a coordinate).  Zero Christoffel symbols are skipped; each
    sum runs over (i, j) in C order, as np.einsum("kij,i,j->k") does."""
    n = g.chart.dim
    v = [Var(f"_v{i}") for i in range(n)]
    acc = [Neg(a) for a in sym_einsum("kij,i,j->k", g.christoffel().comps, v, v)]
    return Tape(v + acc, g.chart.coords + tuple(f"_v{i}" for i in range(n)))


def geodesic_integrate(g: MetricField, p0, v0, t_end, dt, energy_tol=1e-8) -> Trajectory:
    """Classical fixed-step RK4 on the geodesic equation with per-step halving
    whenever the step's metric-norm drift exceeds `energy_tol` (relative).
    A step is split at most 12 times; a step whose last split still drifts
    too far is accepted and counted in `Trajectory.unconverged`.  The state
    is a list of floats; the RK4 steps, a halving's sub-steps among them,
    are calls of the geodesic tape's straight-line `Tape.rk4_chain`.

    First attempts run speculatively, in chains: from the last accepted
    state, each following nominal step once at full size, each from the
    previous candidate, up to the first non-finite one, with the metric
    values at every state.  The chain's energies g(v, v) are one stacked
    `qform`, which gives every state the bits of its BLAS `v @ G @ v`.  The
    longest prefix of steps that each keep to the rule above is accepted,
    by numpy comparisons of the same float operations; the step after it
    drops the rest of the chain and goes on to its halvings.  A chain is
    twice as long after a fully accepted one, up to CHAIN_CAP steps, and one
    step long after a rejection.  The result is bit for bit that of taking
    the steps one by one.

    t_end and dt must be finite and positive, p0 and v0 finite, and p0 in
    the chart's domain (ChartDomainError otherwise).  At most 8 * (nominal
    steps) + 2**14 RK4 sub-steps are counted, only those a step-by-step run
    makes: GeometryError names the time reached when that budget runs out,
    or when every split of a step is non-finite.  ChartDomainError names
    the time at which the trajectory leaves the chart.
    """
    for name, val in (("dt", dt), ("t_end", t_end)):
        if not (math.isfinite(val) and val > 0.0):
            raise GeometryError(
                f"geodesic_integrate: {name} must be finite and positive, got {val}")
    chart = g.chart
    n = chart.dim
    x = np.asarray(p0, dtype=float)
    v = np.asarray(v0, dtype=float)
    if v.shape != (n,) or not np.any(v):
        raise GeometryError("geodesic_integrate: v0 must be a nonzero tangent vector")
    for name, val in (("p0", x), ("v0", v)):
        if not np.all(np.isfinite(val)):
            raise GeometryError(f"geodesic_integrate: {name} must be finite, got {val.tolist()}")
    try:
        chart.check_domain(x.tolist())
    except ChartDomainError as exc:
        raise ChartDomainError(f"geodesic starts outside chart domain: {exc}") from exc

    rk4 = geodesic_tape(g).rk4_chain(g.jets.tape())
    metric = g.jets.tape().evaluate_list
    m = 2 * n

    def energy(xs, gs):
        # the flat lists' states as rows, and g(v, v) of each by one stacked qform
        X = np.fromiter(xs, float, len(xs)).reshape(-1, m)
        V = X[:, n:].copy()
        return X, qform(V, np.fromiter(gs, float, len(gs)).reshape(-1, n, n), V)

    state = x.tolist() + v.tolist()
    X, (e0,) = energy(state, metric(state[:n]))
    escale = max(abs(e0), 1e-30)
    nfull = int(math.floor(t_end / dt + 1e-12))
    steps = [dt] * nfull
    rem = t_end - nfull * dt
    if rem > 1e-12 * max(1.0, t_end):
        steps.append(rem)
    budget = 8 * len(steps) + 2**14
    times, rows, drifts = [0.0], [X], []
    halvings = unconverged = used = 0
    e_state = e0  # energy of the last accepted state

    def accept(X, es, hs):
        # the states X (rows), their energies es and step sizes hs, in order
        nonlocal state, e_state
        ts = list(accumulate(hs, initial=times[-1]))[1:]
        for t, p in zip(ts, X[:, :n].tolist() if chart.constraints else ()):
            try:
                chart.check_domain(p)
            except ChartDomainError as exc:
                raise ChartDomainError(f"geodesic left chart domain at t={t}: {exc}") from exc
        times.extend(ts)
        state, e_state = X[-1].tolist(), float(es[-1])
        drifts.extend((np.abs(es - e0) / escale).tolist())
        rows.append(X)

    def over_budget():
        return GeometryError(f"geodesic used up its budget of {budget} "
                             f"RK4 sub-steps at t={times[-1]}")

    i, chain = 0, 1
    while i < len(steps):
        if used == budget:
            raise over_budget()
        hs = steps[i:min(i + chain, i + budget - used, len(steps))]
        X, es = energy(*rk4(state, hs, True))
        ok = np.abs(np.diff(es, prepend=e_state)) / escale <= energy_tol
        k = len(es) if ok.all() else int(ok.argmin())  # the accepted prefix
        if k:
            used += k
            accept(X[:k], es[:k], hs[:k])
            i += k
        if k == len(hs):  # the whole chain was accepted
            chain = min(2 * chain, CHAIN_CAP)
            continue
        # step i's first attempt drifts too far or is non-finite: split it
        used += 1
        chain = 1
        sub, h = 1, steps[i]
        for attempt in range(1, 13):
            sub *= 2
            h *= 0.5
            halvings += 1
            hs = [h] * min(sub, budget - used)
            xs, _ = rk4(state, hs, False)
            used += min(len(xs) // m + 1, len(hs))
            if len(xs) < m * len(hs):  # a non-finite sub-step
                continue
            if len(hs) < sub:
                raise over_budget()
            X, es = energy(xs[-m:], metric(xs[-m:-n]))
            de = abs(float(es[0]) - e_state) / escale
            if de <= energy_tol or attempt == 12:
                unconverged += not de <= energy_tol
                break
        else:
            raise GeometryError(
                f"geodesic step from t={times[-1]} is non-finite at every step size")
        accept(X, es, steps[i:i + 1])
        i += 1
    states = np.concatenate(rows)
    return Trajectory(chart, np.array(times), states[:, :n], states[:, n:],
                      worst(drifts)[0], halvings, unconverged)
