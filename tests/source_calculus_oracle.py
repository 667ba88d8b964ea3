"""Symbolic source-side calculus: the oracle for the numeric curvature of
`geometry.MetricAt`, the function and Lie-derivative arrays of
`geometry.function_at` and `geometry.lie_derivative`, and the numeric
O'Neill tensors, their covariant derivatives and the second fundamental form
of `rmap.MapGeometry`.

These are the symbolic bodies the engine used before those quantities became
arrays computed from derivative arrays at a point set: the derivatives of the
Christoffel symbols, Riemann, Ricci and the scalar curvature from the
symbolic Christoffel symbols, the Hessian, divergence and metric Lie
derivative as expression tensors, covariant derivatives of vector fields and
of expression tensors, projectors onto declared frames as expression
matrices, the O'Neill tensors T and A by nested `covariant_derivative` calls,
and the second fundamental form with Gamma_N pulled back through the map
(`pull_expr`).  They are slow and kept only as the independent reference the
numeric values are compared against, as `target_calculus_oracle.py` is for
the target calculus.
"""

import numpy as np

from riemcheck.expr import Neg, Tape, as_expr, differentiate, simplify, substitute
from riemcheck.expr.nodes import ZERO, is_const
from riemcheck.geometry import (
    GeometryError,
    TensorField,
    VectorField,
    _add,
    _prod,
    _sub,
    _symmetrized,
    sym_einsum,
    sym_zeros,
)
from riemcheck.rmap import FramesRequired


class TensorAlongMap:
    """Expression array of any shape over the source chart coordinates, such
    as the target components of F_* Y (`pushforward_along`)."""

    def __init__(self, F, comps):
        self.comps = np.asarray(comps, dtype=object)
        self._tape = Tape(list(self.comps.flat), F.source.coords)

    def values(self, points) -> np.ndarray:
        pts = np.atleast_2d(points)
        return self._tape.evaluate(pts).reshape((len(pts),) + self.comps.shape)


def pushforward_along(F, Y) -> TensorAlongMap:
    """F_* Y as a section along the map: target components over source
    coordinates."""
    return TensorAlongMap(F, [simplify(e) for e in sym_einsum("ai,i->a", F.jacobian, Y.comps)])


# -- first-order operators ------------------------------------------------------

def christoffel_derivative(g) -> np.ndarray:
    """dgam[a, l, i, j] = d_a Gamma^l_ij, symmetric in (i, j)."""
    gam, coords = g.christoffel().comps, g.chart.coords
    dgam = np.empty((g.chart.dim,) * 4, dtype=object)
    for a, l, i, j in np.ndindex(dgam.shape):
        dgam[a, l, i, j] = differentiate(gam[l, i, j], coords[a]) if i <= j else dgam[a, l, j, i]
    return dgam


def covariant_derivative(g, X, Y) -> VectorField:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j."""
    Xc = X.comps if isinstance(X, VectorField) else tuple(as_expr(c) for c in X)
    Yc = Y.comps if isinstance(Y, VectorField) else tuple(as_expr(c) for c in Y)
    if isinstance(X, VectorField) and X.chart is not g.chart:
        raise GeometryError("covariant_derivative: X lives on a different chart")
    if isinstance(Y, VectorField) and Y.chart is not g.chart:
        raise GeometryError("covariant_derivative: Y lives on a different chart")
    n = g.chart.dim
    coords = g.chart.coords
    gam = g.christoffel().comps
    comps = []
    for k in range(n):
        acc = ZERO
        for i in range(n):
            if is_const(Xc[i], 0.0):  # nothing to add, and no derivative to take
                continue
            acc = _add(acc, _prod(Xc[i], differentiate(Yc[k], coords[i])))
            for j in range(n):
                acc = _add(acc, _prod(gam[k, i, j], Xc[i], Yc[j]))
        comps.append(g._simp(acc))
    return VectorField(g.chart, comps)


def hessian(g, f) -> TensorField:
    """Hess f(X, Y) = g(nabla_X grad f, Y); components
    d_i d_j f - Gamma^k_ij d_k f."""
    f = as_expr(f)
    n = g.chart.dim
    coords = g.chart.coords
    df = [differentiate(f, c) for c in coords]
    ddf = sym_zeros((n, n))  # upper triangle only
    for i in range(n):
        for j in range(i, n):
            ddf[i, j] = differentiate(df[i], coords[j])
    acc = sym_einsum("kij,k->ij", g.christoffel().comps, df, acc=ddf, sign=-1)
    return TensorField(g.chart, (0, 2), _symmetrized(acc, g._simp))


def divergence(g, X):
    """div X = d_i X^i + Gamma^k_{ki} X^i; agrees with the frame-trace and
    the sqrt-det coordinate formulas."""
    Xc = X.comps if isinstance(X, VectorField) else tuple(as_expr(c) for c in X)
    n = g.chart.dim
    coords = g.chart.coords
    gam = g.christoffel().comps
    acc = ZERO
    for i in range(n):
        acc = _add(acc, differentiate(Xc[i], coords[i]))
        for k in range(n):
            acc = _add(acc, _prod(gam[k, k, i], Xc[i]))
    return g._simp(acc)


def lie_derivative_metric(g, X) -> TensorField:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k; symmetric."""
    Xc = X.comps if isinstance(X, VectorField) else tuple(as_expr(c) for c in X)
    n = g.chart.dim
    coords = g.chart.coords
    out = sym_zeros((n, n))
    dX = [[differentiate(Xc[k], coords[i]) for i in range(n)] for k in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = ZERO
            for k in range(n):
                acc = _add(acc, _prod(Xc[k], differentiate(g.mat[i, j], coords[k])))
                acc = _add(acc, _prod(g.mat[k, j], dX[k][i]))
                acc = _add(acc, _prod(g.mat[i, k], dX[k][j]))
            e = g._simp(acc)
            out[i, j] = e
            out[j, i] = e
    return TensorField(g.chart, (0, 2), out)


def projector_from_fields(g, fields) -> np.ndarray:
    """P^i_j = sum_f f^i (f^flat)_j with (f^flat)_j = g_jk f^k."""
    E = np.array([f.comps for f in fields], dtype=object)
    P = sym_einsum("fi,fj->ij", E, sym_einsum("jk,fk->fj", g.mat, E))
    P.flat = [g._simp(e) for e in P.flat]
    return P


def pull_expr(F, e):
    """Compose a target-coordinate expression with the map F."""
    return simplify(substitute(as_expr(e), dict(zip(F.target.coords, F.comps))))


# -- curvature ----------------------------------------------------------------

def riemann(g) -> TensorField:
    """Curvature tensor R[l, i, j, k] = (R(d_i, d_j) d_k)^l."""
    n = g.chart.dim
    gam = g.christoffel().comps
    dgam = christoffel_derivative(g)  # dgam[a][l][i][j] = d_a Gamma^l_ij
    out = sym_zeros((n, n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(i + 1, n):  # antisymmetric in (i, j)
                for k in range(n):
                    # the two Gamma Gamma sums interleave term by term
                    acc = _sub(dgam[i, l, j, k], dgam[j, l, i, k])
                    for m in range(n):
                        acc = _add(acc, _prod(gam[l, i, m], gam[m, j, k]))
                        acc = _sub(acc, _prod(gam[l, j, m], gam[m, i, k]))
                    e = g._simp(acc)
                    out[l, i, j, k] = e
                    out[l, j, i, k] = g._simp(Neg(e))
    return TensorField(g.chart, (1, 3), out)


def ricci(g) -> TensorField:
    """Ric[i, j] = sum_k R[k, k, i, j]; symmetric."""
    acc = sym_einsum("kkij->ij", riemann(g).comps)
    return TensorField(g.chart, (0, 2), _symmetrized(acc, g._simp))


def scalar_curvature(g):
    return g._simp(sym_einsum("ij,ij->", g.inverse(), ricci(g).comps)[()])


def covariant_derivative_tensor(g, T: TensorField) -> TensorField:
    """nabla T for signatures (0,q) and (1,q); the derivative index becomes
    the first covariant slot."""
    p, q = T.sig
    if p not in (0, 1):
        raise GeometryError("covariant_derivative_tensor supports (0,q) and (1,q)")
    n = g.chart.dim
    coords = g.chart.coords
    gam = g.christoffel().comps
    up, low = "a"[:p], "bcdefg"[:q]  # einsum letters of T's slots
    out = up + "l" + low
    acc = sym_zeros((n,) * (p + q + 1))
    for idx in np.ndindex(*T.comps.shape):
        for l in range(n):
            acc[idx[:p] + (l,) + idx[p:]] = differentiate(T.comps[idx], coords[l])
    if p:
        acc = sym_einsum(f"alm,m{low}->{out}", gam, T.comps, acc=acc)
    for r in low:
        acc = sym_einsum(f"ml{r},{up}{low.replace(r, 'm')}->{out}", gam, T.comps,
                         acc=acc, sign=-1)
    acc.flat = [g._simp(e) for e in acc.flat]
    return TensorField(g.chart, (p, q + 1), acc)


# -- O'Neill tensors and the second fundamental form ----------------------------

def projectors(mg):
    """(P_V, P_H) on the source chart as (1,1) expression matrices."""
    if not mg.frames.vertical or not mg.frames.horizontal:
        raise FramesRequired("source projectors need declared vertical and horizontal frames")
    return (projector_from_fields(mg.gM, mg.frames.vertical),
            projector_from_fields(mg.gM, mg.frames.horizontal))


def oneill(mg, which) -> TensorField:
    """T (which "T") or A (which "A"): O[k, i, j] = (O(d_i, d_j))^k."""
    PV, PH = projectors(mg)
    g = mg.gM
    n = g.chart.dim
    out = sym_zeros((n, n, n))
    Pdir = PV if which == "T" else PH
    for i in range(n):
        Di = [Pdir[k, i] for k in range(n)]
        if all(is_const(c, 0.0) for c in Di):
            continue
        for j in range(n):
            Vj = [PV[k, j] for k in range(n)]
            Hj = [PH[k, j] for k in range(n)]
            nv = covariant_derivative(g, Di, Vj)
            nh = covariant_derivative(g, Di, Hj)
            for k in range(n):
                acc = ZERO  # the two projections interleave term by term
                for m in range(n):
                    acc = _add(acc, _prod(PH[k, m], nv.comps[m]))
                    acc = _add(acc, _prod(PV[k, m], nh.comps[m]))
                out[k, i, j] = g._simp(acc)
    return TensorField(g.chart, (1, 2), out)


def nabla_oneill(mg, which) -> TensorField:
    """(nabla T)[k, l, i, j] (resp. A): derivative index first among the
    covariant slots."""
    return covariant_derivative_tensor(mg.gM, oneill(mg, which))


def second_fundamental_form(mg) -> TensorAlongMap:
    """SFF[a, i, j]: target-valued (0,2) tensor over source coordinates,
    (nabla F_*)(d_i, d_j)^a = d_i d_j F^a
    + Gamma'^a_{bc}(F) d_i F^b d_j F^c - Gamma^k_{ij} d_k F^a."""
    F, gM, gN = mg.F, mg.gM, mg.gN
    ns, nt = F.source.dim, F.target.dim
    gamM = gM.christoffel().comps
    gamN = gN.christoffel().comps
    gamN_pulled = np.empty((nt, nt, nt), dtype=object)
    for idx in np.ndindex(nt, nt, nt):
        gamN_pulled[idx] = ZERO if is_const(gamN[idx], 0.0) else pull_expr(F, gamN[idx])
    acc = sym_zeros((nt, ns, ns))  # upper triangle only
    for a in range(nt):
        for i in range(ns):
            for j in range(i, ns):
                acc[a, i, j] = differentiate(F.jacobian[a, i], F.source.coords[j])
    acc = sym_einsum("abc,bi,cj->aij", gamN_pulled, F.jacobian, F.jacobian, acc=acc)
    acc = sym_einsum("kij,ak->aij", gamM, F.jacobian, acc=acc, sign=-1)
    return TensorAlongMap(F, _symmetrized(acc, gM._simp))
