"""Ricci-soliton residuals, coefficient fitting, Einstein and conformal
checks, and the two Clairaut conditions.

Every check returns plain data (residuals, fitted coefficients, per-sample
values, worst-point provenance); verdict assembly against tolerances happens
in the suite layer.  Frames at the sample points are one (P, k, n) array, and
every frame-pair value is one `geometry.pair_form` (a scalar form) or
`geometry.on_pairs` (a vector-valued one) contraction over that stack.
"""

from __future__ import annotations

import numpy as np

from .expr import Expr, as_expr
from .geometry import (
    GeometryError,
    MetricField,
    VectorField,
    function_at,
    gnorm,
    lie_derivative,
    matvec,
    on_pairs,
    orthonormal_frames,
    pair_form,
    ricci,
    umbilic_gap,
    vdot,
)
from .rmap import MapGeometry, MapError


class SolitonError(GeometryError):
    pass


class SolitonConfig:
    """alpha-Ricci-soliton data: exactly one of a potential vector field xi
    or a potential function f (gradient case); alpha must be nonzero; lam may
    be the string "solve"."""

    def __init__(self, g: MetricField, xi: VectorField | None = None,
                 f: Expr | None = None, alpha: float = 1.0, lam="solve"):
        if (xi is None) == (f is None):
            raise SolitonError("exactly one of xi / f must be given")
        if alpha == 0.0:
            raise SolitonError("alpha must be nonzero")
        self.g = g
        self.xi = xi
        self.f = as_expr(f) if f is not None else None
        self.alpha = float(alpha)
        self.lam = lam if lam == "solve" else float(lam)

    def term_values(self, points):
        """(half_lie, alpha*ric, g) values at points, each (P, n, n); the
        L-term is Hess f in the gradient case, otherwise (1/2) L_xi g."""
        pts = np.atleast_2d(points)
        L = (function_at(self.g, self.f, pts).hess if self.f is not None
             else lie_derivative(self.g, self.xi, pts) * 0.5)
        R = ricci(self.g, pts) * self.alpha
        G = self.g.values(pts)
        return L, R, G


def _pair_frames(G, points, restriction):
    """Orthonormal frame rows at every point, one (P, k, n) array: the
    restriction fields evaluated, or a Cholesky frame of the full tangent
    space from the metric values G (P, n, n)."""
    if restriction:
        return np.stack([X.values(points) for X in restriction], axis=1)
    return orthonormal_frames(G, points)


def soliton_residual(cfg: SolitonConfig, restriction=None, points=None, lam=None):
    """Per point, max |1/2 (L_xi g)(X,Y) + alpha Ric(X,Y) + lam g(X,Y)| over
    pairs of the (P, k, n) frames."""
    lam = cfg.lam if lam is None else lam
    if lam == "solve":
        raise SolitonError("soliton_residual needs a concrete lambda (use solve_lambda)")
    pts = np.atleast_2d(points)
    L, R, G = cfg.term_values(pts)
    fr = _pair_frames(G, pts, restriction)
    return np.max(np.abs(pair_form(fr, L + R + float(lam) * G)), axis=(1, 2), initial=0.0)


def solve_lambda(cfg: SolitonConfig, restriction=None, points=None):
    """Least-squares lambda over all point/pair samples of the (P, k, n)
    frames plus the spread of per-sample lambdas (samples with |g(X,Y)|
    below 1e-8 are excluded from the spread; an all-degenerate sample set is
    an error)."""
    pts = np.atleast_2d(points)
    L, R, G = cfg.term_values(pts)
    fr = _pair_frames(G, pts, restriction)
    num = pair_form(fr, L + R).ravel()
    den = pair_form(fr, G).ravel()
    mask = np.abs(den) > 1e-8
    if not np.any(mask):
        raise SolitonError("solve_lambda: all sampled g(X,Y) vanish (underdetermined)")
    lam = -float(num[mask] @ den[mask]) / float(den[mask] @ den[mask])
    per_sample = -num[mask] / den[mask]
    spread = float(np.max(np.abs(per_sample - lam)))
    return lam, spread, per_sample


def fit_einstein(ric_vals, g_vals, frame_rows):
    """Fit lambda minimizing |Ric + lam g| on the span of the (P, k, n)
    `frame_rows` at every point; returns (lam, residual).  ric_vals and
    g_vals are (P, n, n), in the coordinates the frame rows are given in."""
    r = pair_form(frame_rows, ric_vals).ravel()
    g = pair_form(frame_rows, g_vals).ravel()
    denom = float(g @ g)
    if denom < 1e-20:
        raise SolitonError("fit_einstein: degenerate restriction")
    lam = -float(r @ g) / denom
    residual = float(np.max(np.abs(r + lam * g)))
    return lam, residual


def check_conformal(g: MetricField, X, restriction=None, points=None):
    """Fit a pointwise conformal factor phi(p) minimizing |(L_X g) - phi g|
    on the span of the (P, k, n) frames, for a field X or, given a function
    (an expression) u, for X = grad u, where L_X g = 2 Hess u.  Returns (phi
    samples, per-point residual)."""
    pts = np.atleast_2d(points)
    G = g.values(pts)
    fr = _pair_frames(G, pts, restriction)
    lie = (2.0 * function_at(g, X, pts).hess if isinstance(X, Expr)
           else lie_derivative(g, X, pts))
    lv = pair_form(fr, lie)
    gv = pair_form(fr, G)
    denom = np.sum(gv * gv, axis=(1, 2))
    phi = np.divide(np.sum(lv * gv, axis=(1, 2)), denom, out=np.zeros(len(pts)),
                    where=denom > 1e-20)
    return phi, np.max(np.abs(lv - phi[:, None, None] * gv), axis=(1, 2))


def check_clairaut_source(mg: MapGeometry, f, points):
    """Per-point residuals, for the source dilation f on M (r~ = e^f), masked
    where the kernel is empty: of T(U, V) + g_M(U, V) grad f over vertical
    frame pairs, and of the fiber umbilicity fit T(U,V) = g(U,V) H."""
    s = mg.split(points)
    V, GM = s.vertical, s.GM
    if V.shape[1] == 0:
        raise MapError("check_clairaut_source: empty kernel at all sample points")
    Tv = on_pairs(mg.oneill_T(s.x), V)
    gv = pair_form(V, GM)
    res = umbilic_gap(Tv, gv, -function_at(mg.gM, f, s.x).grad, GM)
    # umbilicity: H = trace(T)/r0, residual of T - g H
    H = np.sum(Tv.diagonal(axis1=1, axis2=2), axis=-1) / V.shape[1]
    umb = umbilic_gap(Tv, gv, H, GM)
    return np.ma.masked_array(res, False), np.ma.masked_array(umb, False)


def check_clairaut_target(mg: MapGeometry, g, points):
    """Per-point residuals, for the target dilation g on N (s~ = e^g), of
    S_D F_*X + D(g) F_*X  over normal-frame D and range F_*X, and of
    (nabla F_*)(X, Y) - g_M(X, Y) (-grad^N g)  over horizontal pairs (masked
    where the horizontal space is empty)."""
    shapes = mg.shape_tensors(points)
    s = mg.split(points)
    GN, R = s.GN, s.range
    gj = function_at(mg.gN, g, s.y)
    Dg = vdot(s.normal, gj.d[:, None])  # D(g) for each normal-frame field D
    w = matvec(shapes[:, :, None], R[:, None]) + Dg[:, :, None, None] * R[:, None]
    res = np.max(gnorm(w, GN[:, None, None]), axis=(1, 2), initial=0.0)
    # umbilical side: (nabla F_*)(X,Y) = -g_M(X,Y) grad g
    H = s.horizontal
    if H.shape[1] == 0:
        return res, np.ma.masked_array(np.zeros(len(H)), True)
    sff = on_pairs(mg.second_fundamental_form(s.x), H)
    umb = umbilic_gap(sff, pair_form(H, s.GM), -gj.grad, GN)
    return res, np.ma.masked_array(umb, False)


SCALAR_RELATIONS = {
    # id: (lhs description, rhs as a function of the inputs dict)
    "range_soliton": ("s^(range F_*)", lambda v: -v["lam"] * v["r0"]),
    "ker_einstein": ("s^(ker F_*)", lambda v: -v["r0"] * v["lam"]),
    "rangeperp_einstein": ("s^((range F_*)^perp)", lambda v: -(v["Dg"] + v["lam"]) * v["n1"]),
    "range_lagrangian": ("s^(range F_*)", lambda v: -(v["m"] - v["r0"]) * v["lam"]),
}


def scalar_relation(which: str, s_values, inputs: dict):
    """(LHS, RHS, |LHS - RHS|) for the left side s_values, a float or one
    value per point; `inputs` supplies lam, r0 (dim ker), n1 (dim normal),
    m (dim source), Dg (D(g)) as the relation needs, and the right side is
    one float."""
    if which not in SCALAR_RELATIONS:
        raise SolitonError(f"unknown scalar relation {which!r}")
    _, rhs_fn = SCALAR_RELATIONS[which]
    rhs = float(rhs_fn(inputs))
    return s_values, rhs, np.abs(s_values - rhs)
