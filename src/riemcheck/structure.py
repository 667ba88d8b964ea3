"""Almost complex structures: Hermitian compatibility, the Kaehler
(parallelism) condition, anti-invariance of distributions, and the B/C and
P/Q splits of J-images.

A structure can be declared on the coordinate basis or on a named orthonormal
frame; both are converted once into a coordinate (1,1) tensor, so every check
below is a tensor contraction at sample points.
"""

from __future__ import annotations

import numpy as np

from .expr import Const, as_expr
from .geometry import (
    GeometryError,
    MetricField,
    TensorField,
    _add,
    _mul,
    covariant_derivative_tensor,
    orthonormal_frames,
    sym_zeros,
)


class StructureError(GeometryError):
    pass


class AlmostComplexStructure:
    """J as a coordinate (1,1) tensor, J[i, j] = (J d_j)^i.

    `from_frame` builds the coordinate tensor from an action matrix on an
    orthonormal frame: action[b, a] is the coefficient of E_b in J E_a.  The
    dual coframe uses the metric, so a metric is required in frame mode.
    """

    def __init__(self, chart, mat, basis_mode="coords"):
        mat = np.asarray(mat, dtype=object)
        if mat.shape != (chart.dim, chart.dim):
            raise StructureError(f"J on {chart.name} must be {chart.dim}x{chart.dim}")
        self.chart = chart
        self.basis_mode = basis_mode
        self.mat = np.empty(mat.shape, dtype=object)
        for i, j in np.ndindex(mat.shape):
            self.mat[i, j] = as_expr(mat[i, j])
        self._tensor = TensorField(chart, (1, 1), self.mat)

    @classmethod
    def from_frame(cls, g: MetricField, frame_fields, action):
        """Build from J E_a = sum_b action[b, a] E_b over an orthonormal
        frame: J^i_j = sum_{a,b} action[b,a] E_b^i (g E_a)_j."""
        chart = g.chart
        n = chart.dim
        fields = list(frame_fields)
        if len(fields) != n:
            raise StructureError("frame mode needs a full frame")
        action = np.asarray(action, dtype=object)
        if action.shape != (n, n):
            raise StructureError("action matrix must be square over the frame")
        flats = []
        for f in fields:
            flat = []
            for j in range(n):
                acc = Const(0.0)
                for k in range(n):
                    acc = _add(acc, _mul(g.mat[j, k], f.comps[k]))
                flat.append(g._simp(acc))
            flats.append(flat)
        mat = sym_zeros((n, n))
        for a in range(n):
            for b in range(n):
                c = as_expr(action[b, a])
                for i in range(n):
                    for j in range(n):
                        mat[i, j] = _add(mat[i, j],
                                         _mul(c, _mul(fields[b].comps[i], flats[a][j])))
        for i, j in np.ndindex(n, n):
            mat[i, j] = g._simp(mat[i, j])
        return cls(chart, mat, basis_mode="frame")

    def tensor(self) -> TensorField:
        return self._tensor

    def values(self, points) -> np.ndarray:
        return self._tensor.values(points)

    def value_at(self, x) -> np.ndarray:
        return self._tensor.value_at(x)

    def apply(self, x, vec) -> np.ndarray:
        return self.value_at(x) @ np.asarray(vec, dtype=float)


# -- pointwise checks -----------------------------------------------------------

def square_residual(J: AlmostComplexStructure, points) -> np.ndarray:
    """Per point, max |J^2 + I|."""
    Jv = J.values(points)
    n = J.chart.dim
    return np.max(np.abs(np.einsum("pij,pjk->pik", Jv, Jv) + np.eye(n)), axis=(1, 2))


def hermitian_residual(g: MetricField, J: AlmostComplexStructure, points) -> np.ndarray:
    """Per point, the max over orthonormal-frame pairs of
    |g(JX, JY) - g(X, Y)|.

    Implemented as the coordinate-tensor residual |J^T g J - g| measured in
    an orthonormal frame (i.e. scaled by g^{-1}), which bounds the frame-pair
    form of the statement.
    """
    pts = np.atleast_2d(points)
    Jv = J.values(pts)
    G = g.values(pts)
    JgJ = np.einsum("pia,pij,pjb->pab", Jv, G, Jv)
    Li = orthonormal_frames(G)
    return np.max(np.abs(Li @ (JgJ - G) @ Li.transpose(0, 2, 1)), axis=(1, 2))


def kahler_residual(g: MetricField, J: AlmostComplexStructure, points) -> np.ndarray:
    """Per point, the max over orthonormal-frame pairs of |(nabla_X J) Y|_g."""
    nj = nabla_J(g, J)
    pts = np.atleast_2d(points)
    NJ = nj.values(pts)  # (p, k, l, j):  (nabla_{d_l} J)^k_j
    G = g.values(pts)
    out = np.empty(len(pts))
    for p, vecs in enumerate(orthonormal_frames(G)):
        norms = []
        for X in vecs:
            M = np.einsum("klj,l->kj", NJ[p], X)
            for Y in vecs:
                W = M @ Y
                norms.append(np.sqrt(abs(W @ G[p] @ W)))
        out[p] = np.max(norms)
    return out


def nabla_J(g: MetricField, J: AlmostComplexStructure) -> TensorField:
    """(nabla J)[k, l, j] = (nabla_{d_l} J)(d_j)^k."""
    return covariant_derivative_tensor(g, J.tensor())


def _side(mg, sp, side):
    """(metric, point, J-image space, its complement) of one side of the
    split: the kernel on M at x ('source') or the range on N at F(x)
    ('target')."""
    if side == "source":
        return mg.gM, sp.x, sp.vertical, sp.horizontal
    return mg.gN, sp.y, sp.range, sp.normal


def anti_invariant_residual(mg, J: AlmostComplexStructure, points, side):
    """Per point, max |g(J a, b)| over pairs of kernel ('source') or range
    ('target') frame vectors, masked where that space is zero-dimensional;
    and whether it is zero-dimensional at every point ('degenerate')."""
    pts = np.atleast_2d(points)
    out, skipped = np.zeros(len(pts)), np.zeros(len(pts), dtype=bool)
    for idx, x in enumerate(pts):
        g, at, rows, _ = _side(mg, mg.split_at(x), side)
        if len(rows) == 0:
            skipped[idx] = True
            continue
        JR = (J.value_at(at) @ rows.T).T
        out[idx] = np.max(np.abs(np.einsum("ai,ij,bj->ab", JR, g.value_at(at), rows)))
    return np.ma.masked_array(out, skipped), bool(skipped.all())


# -- sub-split frames and decompositions -------------------------------------------

def complement_frame_at(mg, J: AlmostComplexStructure, x, side, tol=1e-9):
    """Orthonormal basis of mu ('source': the complement of J(ker F_*) inside
    (ker F_*)^perp at x) or of nu ('target': the complement of J'(range F_*)
    inside (range F_*)^perp at F(x)); a declared mu/nu frame is used
    verbatim."""
    sp = mg.split_at(x)
    g, at, inner, outer = _side(mg, sp, side)
    declared = mg.frames.mu if side == "source" else mg.frames.nu
    if declared is not None:
        return np.array([f.value_at(at) for f in declared])
    G = g.value_at(at)
    Jv = J.value_at(at)
    jin = (Jv @ inner.T).T if len(inner) else np.zeros((0, len(at)))
    out = []
    for e in outer:
        w = e.copy()
        for u in jin:
            w = w - (u @ G @ w) / (u @ G @ u) * u
        for u in out:
            w = w - (u @ G @ w) * u
        n2 = float(w @ G @ w)
        if n2 > tol:
            out.append(w / np.sqrt(n2))
    return np.array(out) if out else np.zeros((0, len(at)))


def bc_split(Jx, X, vertical, G):
    """JX = BX + CX with BX the G-orthogonal projection of JX onto the
    orthonormal vertical rows; CX is the remainder."""
    JX = Jx @ X
    if len(vertical):
        B = np.einsum("ai,ij,j,ak->k", vertical, G, JX, vertical)
    else:
        B = np.zeros_like(JX)
    return B, JX - B


class BCDecomposition:
    def __init__(self, BX, CX, remainder):
        self.BX = BX
        self.CX = CX
        self.remainder = remainder


class PQDecomposition:
    def __init__(self, PD, QD, remainder):
        self.PD = PD
        self.QD = QD
        self.remainder = remainder


def decompose_BC(mg, J: AlmostComplexStructure, X, x, tol=1e-8) -> BCDecomposition:
    """JX = BX + CX with BX vertical and CX = JX - BX, for horizontal X at x.
    Raises StructureError when CX leaves mu beyond `tol` (anti-invariance
    violation)."""
    x = np.asarray(x, dtype=float)
    sp = mg.split_at(x)
    G = mg.gM.value_at(x)
    BX, CX = bc_split(J.value_at(x), np.asarray(X, dtype=float), sp.vertical, G)
    rem = CX - _project(CX, complement_frame_at(mg, J, x, "source"), G)
    rnorm = float(np.sqrt(abs(rem @ G @ rem)))
    if rnorm > tol:
        raise StructureError(
            f"anti-invariance violation: J X leaves ker + mu (residual {rnorm:.3e})")
    return BCDecomposition(BX, CX, rem)


def decompose_PQ(mg, Jp: AlmostComplexStructure, D, x, tol=1e-8) -> PQDecomposition:
    """J'D = PD + QD with PD in range F_* and QD in nu, for normal D at F(x)."""
    x = np.asarray(x, dtype=float)
    sp = mg.split_at(x)
    G = mg.gN.value_at(sp.y)
    D = np.asarray(D, dtype=float)
    dres = D - _project(D, sp.normal, G)
    if float(np.sqrt(abs(dres @ G @ dres))) > tol:
        raise StructureError("decompose_PQ: D is not normal at this point")
    JD = Jp.value_at(sp.y) @ D
    PD = _project(JD, sp.range, G)
    nu = complement_frame_at(mg, Jp, x, "target")
    QD = _project(JD, nu, G)
    rem = JD - PD - QD
    rnorm = float(np.sqrt(abs(rem @ G @ rem)))
    if rnorm > tol:
        raise StructureError(
            f"J'D leaves range + nu (residual {rnorm:.3e})")
    return PQDecomposition(PD, QD, rem)


def _project(v, frame_rows, G):
    if len(frame_rows) == 0:
        return np.zeros_like(v)
    coef = np.einsum("ai,ij,j->a", frame_rows, G, v)
    return coef @ frame_rows
