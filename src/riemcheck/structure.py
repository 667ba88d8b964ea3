"""Almost complex structures: Hermitian compatibility, the Kaehler
(parallelism) condition, anti-invariance of distributions, and the B/C split
of J-images.

A structure can be declared on the coordinate basis or on a named orthonormal
frame; both are converted once into a coordinate (1,1) tensor, so every check
below is a tensor contraction at sample points.
"""

from __future__ import annotations

import numpy as np

from .expr import as_expr
from .geometry import (
    GeometryError,
    MetricField,
    TensorField,
    _mirror,
    gnorm,
    matvec,
    orthonormal_frames,
    pair_form,
    pdot,
    qform,
    sym_einsum,
)


class StructureError(GeometryError):
    pass


class AlmostComplexStructure:
    """J as a coordinate (1,1) tensor, J[i, j] = (J d_j)^i.

    `from_frame` builds the coordinate tensor from an action matrix on an
    orthonormal frame: action[b, a] is the coefficient of E_b in J E_a.  The
    dual coframe uses the metric, so a metric is required in frame mode.
    Values and derivatives at a point set come from the coordinate tensor's
    `jets`.
    """

    def __init__(self, chart, mat):
        mat = np.asarray(mat, dtype=object)
        if mat.shape != (chart.dim, chart.dim):
            raise StructureError(f"J on {chart.name} must be {chart.dim}x{chart.dim}")
        self.chart = chart
        self.mat = np.empty(mat.shape, dtype=object)
        for i, j in np.ndindex(mat.shape):
            self.mat[i, j] = as_expr(mat[i, j])
        self._tensor = TensorField(chart, (1, 1), self.mat)
        self.jets = self._tensor.jets

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
        E = np.array([f.comps for f in fields], dtype=object)
        flats = sym_einsum("jk,ak->aj", g.mat, E)  # flats[a, j] = (g E_a)_j
        flats.flat = [g._simp(e) for e in flats.flat]
        coef = np.array([[as_expr(c) for c in row] for row in action.T], dtype=object)
        mat = sym_einsum("ab,bi,aj->ij", coef, E, flats)
        mat.flat = [g._simp(e) for e in mat.flat]
        return cls(chart, mat)

    def at(self, points, second=False):
        """(J [k, m], d_a J [k, a, m] and, with `second`, d_a d_b J [k, a, b,
        m], else None) at the points, each with a leading point axis, from
        the tensor's jets of the first or the second order."""
        n = self.chart.dim
        v, d, dd = self.jets.at(points, 1 + second)
        if dd is not None:  # [a, b, k, m] to [k, a, b, m]
            dd = np.moveaxis(dd[:, _mirror(n)].reshape((-1,) + (n,) * 4), 3, 1)
        return v.reshape(-1, n, n), d.reshape(-1, n, n, n).swapaxes(1, 2), dd

    def values(self, points) -> np.ndarray:
        return self._tensor.values(points)


# -- pointwise checks -----------------------------------------------------------

def square_residual(J: AlmostComplexStructure, points) -> np.ndarray:
    """Per point, max |J^2 + I|."""
    Jv = J.values(points)
    return np.max(np.abs(np.matmul(Jv, Jv) + np.eye(J.chart.dim)), axis=(1, 2))


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
    Jt = Jv.transpose(0, 2, 1)  # rows J d_a
    return np.max(np.abs(pair_form(orthonormal_frames(G, pts), pair_form(Jt, G) - G)), axis=(1, 2))


def kahler_residual(g: MetricField, J: AlmostComplexStructure, points) -> np.ndarray:
    """Per point, the max over orthonormal-frame pairs of |(nabla_X J) Y|_g."""
    pts = np.atleast_2d(points)
    NJ = nabla_J(g, J, pts)  # (p, k, l, j):  (nabla_{d_l} J)^k_j
    G = g.values(pts)
    E = orthonormal_frames(G, pts)
    M = np.einsum("pklj,pal->pakj", NJ, E)  # M[p, a] = nabla_{X_a} J
    W = matvec(M[:, :, None], E[:, None])  # W[p, a, b] = (nabla_{X_a} J) X_b
    return np.max(gnorm(W, G[:, None, None]), axis=(1, 2))


def nabla_J(g: MetricField, J: AlmostComplexStructure, points) -> np.ndarray:
    """(nabla J)[p, k, l, j] = (nabla_{d_l} J)(d_j)^k = d_l J^k_j
    + Gamma^k_lm J^m_j - Gamma^m_lj J^k_m at the points, from J's jets
    (`AlmostComplexStructure.at`) and Gamma of g there (`MetricField.at`)."""
    Jv, dJ, _ = J.at(points)
    gam = g.at(points).gam
    return dJ + pdot(gam, Jv) - pdot(Jv, gam)


def _side(mg, s, side):
    """(metric values, points, J-image space, its complement) of one side of
    a split: the kernel on M at x ('source') or the range on N at F(x)
    ('target')."""
    if side == "source":
        return s.GM, s.x, s.vertical, s.horizontal
    return s.GN, s.y, s.range, s.normal


def anti_invariant_residual(mg, J: AlmostComplexStructure, points, side):
    """Per point, max |g(J a, b)| over pairs of kernel ('source') or range
    ('target') frame vectors, masked where that space is zero-dimensional;
    and whether it is zero-dimensional at every point ('degenerate')."""
    G, at, rows, _ = _side(mg, mg.split(points), side)
    if rows.shape[1] == 0:
        return np.ma.masked_array(np.zeros(len(rows)), True), True
    JR = matvec(J.values(at)[:, None], rows)
    out = np.max(np.abs(pair_form(JR, G, rows)), axis=(1, 2))
    return np.ma.masked_array(out, False), False


# -- sub-split frames and the B/C split ---------------------------------------------

def complement_frames(mg, J: AlmostComplexStructure, points, side):
    """An orthonormal basis of mu ('source': the complement of J(ker F_*)
    inside (ker F_*)^perp at x) or of nu ('target': the complement of
    J'(range F_*) inside (range F_*)^perp at F(x)) at every point, as one
    (P, k, n) array; a declared mu/nu frame is used verbatim.  k is the
    largest dimension over the points, and the rows of a point past its own
    dimension are zero."""
    G, at, inner, outer = _side(mg, mg.split(points), side)
    declared = mg.frames.mu if side == "source" else mg.frames.nu
    if declared is not None:
        return mg.field_values(declared, at)
    jin = np.matmul(J.values(at), inner.transpose(0, 2, 1)).transpose(0, 2, 1)
    return _complement_rows(G, jin, outer)


def _complement_rows(G, jin, outer):
    """Gram-Schmidt, in the inner products G (P, n, n), of the rows e of
    `outer` (P, h, n) against the rows u of `jin` (P, r, n), w = e - sum_u
    (u.G.w)/(u.G.u) u, then against the rows kept before it; w is kept,
    normalised, where |w|^2 > 1e-9.  All points at once: a row not kept at a
    point is zero there, so it leaves every later w unchanged, and each
    point's kept rows are then moved to the front in order."""
    P, h, n = outer.shape
    rows = np.zeros((P, h, n))
    kept = np.zeros((P, h), dtype=bool)
    for a in range(h):
        w = outer[:, a].copy()
        for b in range(jin.shape[1]):
            u = jin[:, b]
            w = w - (qform(u, G, w) / qform(u, G, u))[:, None] * u
        for b in range(a):
            u = rows[:, b]
            w = w - qform(u, G, w)[:, None] * u
        n2 = qform(w, G, w)
        ok = kept[:, a] = n2 > 1e-9
        rows[ok, a] = w[ok] / np.sqrt(n2[ok])[:, None]
    k = int(kept.sum(axis=1).max(initial=0))
    order = np.argsort(~kept, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(rows, order[..., None], axis=1)


def bc_split(Jx, X, vertical, G):
    """JX = BX + CX with BX the G-orthogonal projection of JX onto the
    orthonormal vertical rows; CX is the remainder.  Leading axes broadcast:
    Jx and G (..., m, m), X (..., m), vertical (..., r, m)."""
    JX = matvec(Jx, X)
    B = np.einsum("...ai,...ij,...j,...ak->...k", vertical, G, JX, vertical)
    return B, JX - B
