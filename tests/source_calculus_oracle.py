"""Symbolic source-side tensors: the oracle for the numeric curvature of
`geometry.MetricAt` and the numeric O'Neill tensors, their covariant
derivatives and the second fundamental form of `rmap.MapGeometry`.

These are the symbolic bodies the engine used before those tensors became
arrays computed from derivative arrays at a point set: Riemann, Ricci and the
scalar curvature from the symbolic Christoffel symbols, covariant derivatives
of expression tensors, the projectors P_V and P_H as expression matrices, the
O'Neill tensors T and A by nested `covariant_derivative` calls, and the second
fundamental form with Gamma_N pulled back through the map.  They are slow and
kept only as the independent reference the numeric values are compared
against, as `target_calculus_oracle.py` is for the target calculus.
"""

import numpy as np

from riemcheck.expr import Neg, differentiate
from riemcheck.expr.nodes import ZERO, is_const
from riemcheck.geometry import (
    GeometryError,
    TensorField,
    _add,
    _prod,
    _sub,
    _symmetrized,
    covariant_derivative,
    sym_einsum,
    sym_zeros,
)
from riemcheck.rmap import FramesRequired, TensorAlongMap


# -- curvature ----------------------------------------------------------------

def riemann(g) -> TensorField:
    """Curvature tensor R[l, i, j, k] = (R(d_i, d_j) d_k)^l."""
    n = g.chart.dim
    gam = g.christoffel().comps
    dgam = g.christoffel_derivative()  # dgam[a][l][i][j] = d_a Gamma^l_ij
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
    return (mg._projector_from_fields(mg.gM, mg.frames.vertical),
            mg._projector_from_fields(mg.gM, mg.frames.horizontal))


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
        gamN_pulled[idx] = ZERO if is_const(gamN[idx], 0.0) else F.pull_expr(gamN[idx])
    acc = sym_zeros((nt, ns, ns))  # upper triangle only
    for a in range(nt):
        for i in range(ns):
            for j in range(i, ns):
                acc[a, i, j] = differentiate(F.jacobian[a, i], F.source.coords[j])
    acc = sym_einsum("abc,bi,cj->aij", gamN_pulled, F.jacobian, F.jacobian, acc=acc)
    acc = sym_einsum("kij,ak->aij", gamM, F.jacobian, acc=acc, sign=-1)
    return TensorAlongMap(F, _symmetrized(acc, gM._simp))
