"""Smooth maps between charts and the Riemannian-map apparatus.

Everything pointwise (pushforward, splittings, isometry residuals, the
second fundamental form, shape operators, the O'Neill tensors T and A and
their covariant derivatives) is computed as arrays of *coordinate* tensor
components at a point set, and then contracted with frame vectors there;
all of these objects are tensorial in each slot, so coordinate components
determine them completely.  The source-side tensors (the O'Neill tensors,
their covariant derivatives and the second fundamental form) come by the
product rule from derivative arrays (metric, frame and map jets), once per
point set, and only they are kept.

Declared expression-valued adapted frames enable the derivative-level
operations (the projectors and O'Neill tensors, nabla T, nabla A, trace
terms); with per-point numeric frames only, those operations raise
FramesRequired.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .expr import as_expr, substitute
from .geometry import (
    Chart,
    GeometryError,
    Jets,
    LastPointSet,
    MetricField,
    VectorField,
    _mirror,
    _sym,
    by_blocks,
    frozen,
    matvec,
    on_pairs,
    orthonormalize,
    pair_form,
    pdot,
    sym_einsum,
    tform,
    tvec,
    umbilic_gap,
    worst,
)


# Singular values of the Jacobian at most RANK_TOL * max(1, largest) count as
# zero: they decide its rank and its kernel.
RANK_TOL = 1e-9
# Largest residual of a declared frame, or of a pushed field's basic-ness.
FRAME_TOL = 1e-9


class MapError(GeometryError):
    pass


class FramesRequired(MapError):
    """Raised by operations that need smooth (expression-valued) frames when
    only per-point numeric frames are available."""


class SmoothMap:
    """Component expressions over the source chart, one per target coordinate.

    `section`, when given, is a right inverse N -> M (source-coordinate
    expressions over target coordinates); it is what lets basic fields be
    pushed forward as honest fields on the target.  The values, the
    Jacobian and the second derivatives at a point set come from the
    components' `Jets`; the symbolic `jacobian` serves `pushforward_field`.
    """

    def __init__(self, source: Chart, target: Chart, comps, name=None, section=None):
        comps = tuple(as_expr(c) for c in comps)
        if len(comps) != target.dim:
            raise MapError(f"map needs {target.dim} component expressions")
        self.source = source
        self.target = target
        self.comps = comps
        self.name = name or "F"
        self.section = tuple(as_expr(s) for s in section) if section is not None else None
        if self.section is not None and len(self.section) != source.dim:
            raise MapError("section needs one expression per source coordinate")
        jac = np.empty((target.dim, source.dim), dtype=object)
        for a in range(target.dim):
            for i in range(source.dim):
                jac[a, i] = source.differentiate(comps[a], source.coords[i])
        self.jacobian = jac
        self.jets = Jets(comps, source)

    def values(self, points) -> np.ndarray:
        return self.jets.at(points)[0]

    def jac_values(self, points) -> np.ndarray:
        """Jac[p, a, i] = d_i F^a at the points, from the first-order jets."""
        return np.ascontiguousarray(self.jets.at(points, 1)[1].swapaxes(1, 2))

    def push_expr(self, e):
        """Compose a source-coordinate expression with the section."""
        if self.section is None:
            raise MapError(f"map {self.name} has no declared section")
        mapping = dict(zip(self.source.coords, self.section))
        return self.target.simplify(substitute(as_expr(e), mapping), ())


def pushforward_field(F: SmoothMap, X: VectorField, validate_points=None) -> VectorField:
    """Push a basic field through the map using the declared section, giving
    an honest vector field on the target chart.  When `validate_points`
    (source points) is given, basic-ness is checked by comparing the pushed
    field at F(p) against the pointwise pushforward."""
    along = [F.source.simplify(e, ()) for e in sym_einsum("ai,i->a", F.jacobian, X.comps)]
    pushed = VectorField(F.target, [F.push_expr(c) for c in along])
    if validate_points is not None:
        pts = np.atleast_2d(validate_points)
        direct = matvec(F.jac_values(pts), X.values(pts))
        through = pushed.values(F.values(pts))
        gap = float(np.max(np.abs(direct - through))) if len(pts) else 0.0
        if not gap <= FRAME_TOL * max(1.0, float(np.max(np.abs(direct)))):
            raise MapError(
                f"field {X.name or ''} is not basic: pushforward varies along "
                f"fibers (gap {gap:.3e})")
    return pushed


class AdaptedFrames:
    """Declared expression-valued orthonormal frames for the four canonical
    subbundles, plus optional sub-splits (J ker, mu on the source; J' range,
    nu on the target)."""

    def __init__(self, vertical=(), horizontal=(), range_=(), normal=(),
                 mu=None, nu=None):
        self.vertical = tuple(vertical)
        self.horizontal = tuple(horizontal)
        self.range = tuple(range_)
        self.normal = tuple(normal)
        self.mu = tuple(mu) if mu is not None else None
        self.nu = tuple(nu) if nu is not None else None


class Split:
    """Numeric adapted frames at P sample points, rows being frame vectors:
    the points x (P, m) and y = F(x) (P, n), the evaluated g_M (P, m, m),
    g_N at y (P, n, n) and Jacobian (P, n, m), and the frames vertical
    (P, r0, m), horizontal (P, h, m), range (P, k, n) and normal (P, n1, n).
    `MapGeometry.split_at` returns the same fields without the point axis.
    The arrays are read-only: one split is shared by every check of a run."""

    def __init__(self, x, y, GM, GN, Jac, vertical, horizontal, range_, normal):
        self.x = x
        self.y = y
        self.GM = GM
        self.GN = GN
        self.Jac = Jac
        self.vertical = vertical
        self.horizontal = horizontal
        self.range = range_
        self.normal = normal
        for a in vars(self).values():
            a.flags.writeable = False


class MapGeometry:
    """Bundle of (F, g_M, g_N, declared frames): the split and the source
    tensors of the last point set, and the `Jets` of each declared frame
    list, which every reader of its fields evaluates (`field_values`)."""

    def __init__(self, F: SmoothMap, gM: MetricField, gN: MetricField,
                 frames: AdaptedFrames | None = None):
        if F.source is not gM.chart or F.target is not gN.chart:
            raise MapError("map and metrics must share charts")
        self.F = F
        self.gM = gM
        self.gN = gN
        self.frames = frames or AdaptedFrames()
        self._jets = {which: Jets([c for W in getattr(self.frames, which) for c in W.comps],
                                  chart)
                      for which, chart in (("vertical", gM.chart), ("horizontal", gM.chart),
                                           ("range", gN.chart), ("normal", gN.chart))}
        self._member = {W: (jets, i) for which, jets in self._jets.items()
                        for i, W in enumerate(getattr(self.frames, which))}
        self._last_split = LastPointSet()
        self._last_source = LastPointSet()

    # -- declared-frame validation -------------------------------------------
    def validate_frames(self, points):
        """Orthonormality of each declared frame, kernel membership of the
        vertical frame, horizontality, and range/normal consistency.  A
        residual fails unless it is <= FRAME_TOL, so a NaN frame fails too."""
        pts = np.atleast_2d(points)
        ypts = self.F.values(pts)
        GM, GN = self.gM.values(pts), self.gN.values(ypts)
        fr = self.frames
        V, H = self.field_values(fr.vertical, pts), self.field_values(fr.horizontal, pts)
        R, E = self.field_values(fr.range, ypts), self.field_values(fr.normal, ypts)

        def gram_gap(rows, G):  # max |g(e_a, e_b) - delta_ab|, NaN if a value is
            return float(np.max(np.abs(pair_form(rows, G) - np.eye(rows.shape[1]))))

        found = []  # (what is wrong, residual)
        if fr.vertical:
            found.append(("vertical frame not orthonormal", gram_gap(V, GM)))
            push = matvec(self.F.jac_values(pts)[:, None], V)
            found.append(("vertical frame not in ker F_*", worst(np.abs(push))[0]))
        if fr.horizontal:
            found.append(("horizontal frame not orthonormal", gram_gap(H, GM)))
            if fr.vertical:
                found.append(("vertical/horizontal frames not orthogonal",
                              worst(np.abs(pair_form(V, GM, H)))[0]))
        if fr.range:
            found.append(("range frame not orthonormal along F", gram_gap(R, GN)))
        if fr.normal:
            found.append(("normal frame not orthonormal along F", gram_gap(E, GN)))
            if fr.range:
                found.append(("range/normal frames not orthogonal",
                              worst(np.abs(pair_form(R, GN, E)))[0]))
        problems = [f"{what} (residual {res:.3e})" for what, res in found
                    if not res <= FRAME_TOL]
        if problems:
            raise MapError("declared frame validation failed: " + "; ".join(problems))

    # -- splittings -------------------------------------------------------------
    def split(self, points) -> Split:
        """Numeric adapted frames at every point of a point set: declared
        frames are evaluated verbatim when present; the vertical frame
        otherwise follows `vertical_frames`, and the other frames are
        computed from it and the Jacobian by Gram-Schmidt at each point.  A
        run splits one point set, its sample points, and every check reads
        that split: the split of the last point set is kept, and asking
        again for the same set returns it.  Raises MapError naming the
        first point where a computed frame changes dimension."""
        return self._last_split.get(points, self._split)

    def split_at(self, x) -> Split:
        """The adapted frames at one point: `split` of the one-point set."""
        s = self.split(np.asarray(x, dtype=float)[None])
        return Split(s.x[0], s.y[0], s.GM[0], s.GN[0], s.Jac[0], s.vertical[0],
                     s.horizontal[0], s.range[0], s.normal[0])

    def _split(self, pts):
        y = self.F.values(pts)
        GM = self.gM.values(pts)
        GN = self.gN.values(y)
        J = self.F.jac_values(pts)
        fr = self.frames

        def declared(fields, at):
            return self.field_values(fields, at) if fields else None

        vert = vertical_frames(pts, GM, J, declared(fr.vertical, pts))
        horiz = declared(fr.horizontal, pts)
        if horiz is None:
            horiz = _stacked("horizontal", pts, map(_complement, GM, vert))
        rng = declared(fr.range, y)
        if rng is None:
            pushed = np.matmul(J, horiz.transpose(0, 2, 1)).transpose(0, 2, 1)
            rng = (np.array([orthonormalize(G, rows) for G, rows in zip(GN, pushed)])
                   if pushed.shape[1] else pushed)
        nrm = declared(fr.normal, y)
        if nrm is None:
            nrm = _stacked("normal", pts, map(_complement, GN, rng))
        return Split(pts, y, GM, GN, J, vert, horiz, rng, nrm)

    def require_constant_rank(self, points) -> int:
        """The numerical rank of the Jacobian, the same at every point (the
        rule of `_jacobian_rank`); raises MapError naming the first point
        whose rank differs from that at the first point."""
        pts = np.atleast_2d(points)
        return _jacobian_rank(pts, self.F.jac_values(pts))[0]

    # -- source tensors at a point set -------------------------------------------
    def oneill_T(self, points) -> np.ndarray:
        """T[p, k, i, j] = (T(d_i, d_j))^k at the points."""
        return self._source(points, ("T", False))

    def oneill_A(self, points) -> np.ndarray:
        """A[p, k, i, j] = (A(d_i, d_j))^k at the points."""
        return self._source(points, ("A", False))

    def nabla_oneill(self, which: str, points) -> np.ndarray:
        """(nabla T)[p, k, l, i, j] = (nabla_{d_l} T)(d_i, d_j)^k (resp. A)."""
        return self._source(points, (which, True))

    def second_fundamental_form(self, points) -> np.ndarray:
        """SFF[p, a, i, j] = (nabla F_*)(d_i, d_j)^a at the points."""
        return self._source(points, "SFF")

    def _source(self, points, key):
        """The source tensor `key` at a point set, built on first use; those
        of the last point set are kept, as `split` keeps its frames."""
        memo = self._last_source.get(points, lambda pts: {"x": pts})
        if key not in memo:
            x = memo["x"]
            memo[key] = frozen(self._sff(x) if key == "SFF" else self._oneill(x, *key))
        return memo[key]

    def _oneill(self, x, which, nabla):
        """T or A, or with `nabla` its covariant derivative, at the points x
        from the metric jets, Gamma_M (`MetricField.at`) and the source frames'
        jets (second-order for `nabla` only) along the coordinates they use."""
        fr = self.frames
        if not fr.vertical or not fr.horizontal:
            raise FramesRequired(
                "source projectors need declared vertical and horizontal frames")
        m = self.gM.at(x)
        along = np.union1d(m.D, self.used("vertical", "horizontal"))
        jets = [self.frame_jet(w, x, 1 + nabla).along(along) for w in ("vertical", "horizontal")]

        def block(s):
            proj = [_projector(m, s, Jet(*(a[:, s] for a in f if a is not None)), along, nabla)
                    for f in jets]
            O, dO = _oneill_tensor(m.gam[s], m.dgam(s, along) if nabla else None, proj,
                                   which == "A", along)
            return _nabla(m.gam[s], O, dO, along) if nabla else O
        return by_blocks(block, len(x)) if nabla else block(slice(None))

    def _sff(self, x):
        # d_i d_j F^a + Gamma_N^a_bc(F) d_i F^b d_j F^c - Gamma_M^k_ij d_k F^a
        _, dF, dd = self.F.jets.at(x, 2)  # dF[:, i, a] = d_i F^a
        ddF = dd[:, _mirror(self.gM.chart.dim)]  # [:, i, j, a]
        J, gamN = dF.swapaxes(1, 2), self.gN.at(self.F.values(x)).gam
        return _sym(np.moveaxis(ddF, 3, 1) - pdot(J, self.gM.at(x).gam)
                    + pdot(dF, pdot(gamN, J).swapaxes(1, 2)).swapaxes(1, 2))

    # -- target fields ----------------------------------------------------------
    def shape_tensors(self, points) -> np.ndarray:
        """`shape_operator` of each normal-frame field e_k at y = F(x) of the
        points: (P, n1, n, n), [p, k, a, c] = -(P_range nabla^N_{d_c} e_k)^a."""
        if not self.frames.normal:
            raise FramesRequired("shape operators need a declared normal frame")
        s = self.split(points)
        PR = np.matmul(s.range.transpose(0, 2, 1), np.matmul(s.range, s.GN))  # sum_f f (g f)^T
        E = self.frame_jet("normal", s.y)
        return np.moveaxis(shape_operator(PR, self.gN.at(s.y).gam, E), 0, 1)

    def frame_jet(self, which, points, order=1) -> Jet:
        """The Jet of the declared frame `which` ('vertical', 'horizontal',
        'range' or 'normal') at the points, with second derivatives at
        order 2 (`field_jet`)."""
        return field_jet(self._jets[which], points, order)

    def field_values(self, fields, points) -> np.ndarray:
        """Vector fields at the points, stacked (P, k, n): a declared frame
        field from the values of its list's jets, any other from its own."""
        pts = np.atleast_2d(points)
        rows = [jets.at(pts)[0].reshape(len(pts), -1, pts.shape[1])[:, i] for jets, i in
                (self._member.get(W, (W.jets, 0)) for W in fields)]
        return np.stack(rows, axis=1) if rows else np.zeros((len(pts), 0, pts.shape[1]))

    def used(self, *which) -> np.ndarray:
        """The coordinates that the declared frames `which` use (`Jets.used`)."""
        return np.unique(np.concatenate([self._jets[w].used for w in which]))


def field_jet(jets: Jets, points, order=1) -> Jet:
    """The Jet of k fields at the points from the `Jets` of their components,
    field after field: first derivatives, and at order 2 second ones too."""
    v, d, dd = jets.at(points, order)
    P, n = len(v), jets.chart.dim
    k = v.shape[1] // n
    # each field's blocks contiguous, as the contractions read them
    v, d = (np.ascontiguousarray(a) for a in (
        v.reshape(P, k, n).swapaxes(0, 1), d.reshape(P, n, k, n).transpose(2, 0, 3, 1)))
    if dd is None:
        return Jet(v, d)
    dd = np.ascontiguousarray(dd.reshape(P, -1, k, n).transpose(2, 0, 3, 1))
    return Jet(v, d, np.take(dd, _mirror(n), axis=-1))


class Jet(NamedTuple):
    """Lists of target fields at P points, list axes first: values v (..., P,
    n), d[..., k, i] = d_i W^k and dd[..., k, i, j] = d_i d_j W^k or None."""
    v: np.ndarray
    d: np.ndarray | None = None
    dd: np.ndarray | None = None

    def along(self, D) -> Jet:
        """The derivatives along the coordinates D (indices) only."""
        return Jet(self.v, self.d[..., D], None if self.dd is None else self.dd[..., D[:, None], D])


def connection_on_pairs(gam, F: Jet) -> np.ndarray:
    """nabla_{F_a} F_b = dF_b F_a + Gamma(F_a, F_b) for every pair of the k
    fields F (values and first derivatives), (P, a, b, n), from the
    Christoffel symbols Gamma (P, n, n, n) at the same points."""
    v, d = np.moveaxis(F.v, 0, 1), np.moveaxis(F.d, 0, 1)  # (P, k, n), (P, k, n, n)
    return matvec(d[:, None], v[:, :, None]) + on_pairs(gam, v)


def shape_operator(PR, gam, D: Jet, along=slice(None)) -> np.ndarray:
    """S_D [a, c] = -(P_range nabla_{d_c} D)^a from P_range, Gamma_N and D,
    whose derivatives are along the coordinates `along` (the direction c
    runs over all n)."""
    A = tvec(gam, D.v, 2)
    A[..., along] += D.d
    return -np.matmul(PR, A)


def _projector(m, s, f: Jet, along, second=False):
    """(P, dP, ddP) for P = S G, S = sum_f f f^T over the frame fields f,
    with dP[:, a] = d_a P and, with `second`, ddP[:, a, b] = d_a d_b P (else
    None) for a, b in `along`, at the points of the slice s, by the product
    rule from the metric jets m (`MetricAt`) and f's jets `along` there."""
    F = np.moveaxis(f.v, 0, 2)  # [i, f]: the columns f
    dF, Ft = f.d.transpose(1, 3, 2, 0), F.swapaxes(1, 2)  # dF[a, i, f] = d_a f^i
    G, dG, S, Y = m.G[s], m.dG[s][:, along], pdot(F, Ft), pdot(dF, Ft)
    dS = Y + Y.swapaxes(2, 3)
    P, dP = pdot(S, G), pdot(dS, G) + pdot(S, dG.swapaxes(1, 2)).swapaxes(1, 2)
    if not second:
        return P, dP, None
    # summed in place, as each term is n**4-sized: d_a d_b S = W + W^T with
    # W = d_a d_b F . F^T + d_a F . d_b F^T, and d_a d_b P = d_a d_b S . G
    # + d_a S . d_b G + d_b S . d_a G + S . d_a d_b G
    W = pdot(f.dd.transpose(1, 3, 4, 2, 0), Ft)
    W += pdot(dF, dF.transpose(0, 3, 1, 2)).transpose(0, 1, 3, 2, 4)
    W += W.swapaxes(3, 4)
    ddP, V = pdot(W, G), pdot(dS, dG.swapaxes(1, 2)).transpose(0, 1, 3, 2, 4)
    ddP += V
    ddP += V.swapaxes(1, 2)
    ddP += np.moveaxis(pdot(S, m.ddG(s, along)[:, :, along].transpose(0, 3, 1, 2, 4)), 1, 3)
    return P, dP, ddP


def _oneill_tensor(gam, dgam, projectors, horizontal, along):
    """O = P_H X(P_V) + P_V X(P_H) [k, i, j] with X(Q)[m, i, j] =
    (nabla_{D d_i} (Q d_j))^m along D = P_V (T) or, if `horizontal`, P_H
    (A); and, where dgam = d Gamma is given, d_l O [l, k, i, j], for l in
    `along`, the coordinates of every derivative given (a runs over all)."""
    (PV, dPV, ddPV), (PH, dPH, ddPH) = projectors
    D, dD, _ = projectors[horizontal]
    O, dO = 0.0, 0.0
    for Q, dQ, ddQ, R, dR in ((PV, dPV, ddPV, PH, dPH), (PH, dPH, ddPH, PV, dPV)):
        N = pdot(gam, Q)  # [m, a, j] = (nabla_{d_a} Q d_j)^m
        N[:, :, along] += dQ.swapaxes(1, 2)
        X = pdot(D.swapaxes(1, 2), N.swapaxes(1, 2)).swapaxes(1, 2)
        O = O + pdot(R, X)
        if dgam is not None:  # the n**4-sized terms summed in place
            dN = pdot(dgam, Q)
            dN[:, :, :, along] += ddQ.swapaxes(2, 3)
            dN += pdot(gam, dQ.swapaxes(1, 2)).transpose(0, 3, 1, 2, 4)
            dX = pdot(D.swapaxes(1, 2), dN.transpose(0, 3, 1, 2, 4)).transpose(0, 2, 3, 1, 4)
            dX += pdot(dD.swapaxes(2, 3), N.swapaxes(1, 2)).transpose(0, 1, 3, 2, 4)
            dO = dO + pdot(R, dX.swapaxes(1, 2)).swapaxes(1, 2)
            dO += pdot(dR, X)
    return O, None if dgam is None else dO


def _nabla(gam, O, dO, along):
    """(nabla O)[k, l, i, j] = d_l O^k_ij + Gamma^k_lm O^m_ij - Gamma^m_li O^k_mj
    - Gamma^m_lj O^k_im for (1,2) tensors O [k, i, j], d_l O [l, k, i, j]
    given for the l of `along` only, zero for the others."""
    out = pdot(gam, O)
    out[:, :, along] += dO.swapaxes(1, 2)
    out -= pdot(O.swapaxes(2, 3), gam).transpose(0, 1, 3, 4, 2)
    out -= pdot(O, gam).transpose(0, 1, 3, 2, 4)
    return out


def _jacobian_rank(points, J):
    """The numerical rank of the Jacobians J (P, m, n), the count of singular
    values above RANK_TOL * max(1, largest), and their right singular
    vectors (P, n, n).  Raises MapError naming the first point whose rank
    differs from that at the first point."""
    _, s, vt = np.linalg.svd(J)
    ranks = np.sum(s > RANK_TOL * np.maximum(1.0, s[:, :1]), axis=1)
    changed = np.flatnonzero(ranks != ranks[0])
    if len(changed):
        i = changed[0]
        raise MapError(f"Jacobian rank changes from {ranks[0]} to {ranks[i]} and its "
                       f"kernel dimension from {J.shape[2] - ranks[0]} to "
                       f"{J.shape[2] - ranks[i]} at point {points[i].tolist()}")
    return int(ranks[0]), vt


def vertical_frames(points, GM, J, declared=None) -> np.ndarray:
    """The vertical frame at each of P points, as a (P, r, n) array, from the
    evaluated g_M (P, n, n), Jacobian (P, m, n) and declared vertical fields
    (P, r, n), or None when none are declared.  Declared fields are used
    verbatim; otherwise the frame is the SVD null space of the Jacobian,
    orthonormalised in g_M; `_jacobian_rank` raises where the rank
    changes."""
    if declared is not None:
        return declared
    rank, vt = _jacobian_rank(points, J)
    ns = vt[:, rank:]
    if not ns.shape[1]:
        return ns
    return np.array([orthonormalize(g, rows) for g, rows in zip(GM, ns)])


def _stacked(what, points, frames):
    """The per-point frames as one (P, k, n) array; raises MapError naming
    the first point whose frame dimension differs from that at the first."""
    frames = list(frames)
    changed = [i for i, f in enumerate(frames) if len(f) != len(frames[0])]
    if changed:
        i = changed[0]
        raise MapError(f"{what} frame dimension changes from {len(frames[0])} to "
                       f"{len(frames[i])} at point {points[i].tolist()}")
    return np.array(frames)


def _complement(G, rows):
    """G-orthonormal basis of the orthogonal complement of span(rows)."""
    n = G.shape[0]
    out = list(rows)
    comp = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        w = v.copy()
        for u in out:
            w = w - (u @ G @ w) * u
        norm2 = float(w @ G @ w)
        if norm2 > 1e-18:
            w = w / math.sqrt(norm2)
            out.append(w)
            comp.append(w)
    return np.array(comp) if comp else np.zeros((0, n))


# -- pointwise operations used by the check suites ------------------------------

def isometry_residual(mg: MapGeometry, points) -> np.ma.MaskedArray:
    """Per point, the max over horizontal pairs of
    |g_N(F_*X_a, F_*X_b) - g_M(X_a, X_b)|; masked where the horizontal space
    is empty."""
    s = mg.split(points)
    H = s.horizontal
    if H.shape[1] == 0:
        return np.ma.masked_array(np.zeros(len(H)), True)
    push = matvec(s.Jac[:, None], H)
    res = np.abs(pair_form(push, s.GN) - pair_form(H, s.GM))
    return np.ma.masked_array(np.max(res, axis=(1, 2)), False)


def umbilical_fit(mg: MapGeometry, points):
    """Least-squares mean-curvature fit: H'(p) minimizing
    sum_{a,b} |(nabla F_*)(X_a, X_b) - g_M(X_a, X_b) H'|^2 over the
    horizontal frame.  Returns (per-point residual, masked where the
    horizontal space is empty; H' per point, zero there)."""
    s = mg.split(points)
    H = s.horizontal
    if H.shape[1] == 0:
        return (np.ma.masked_array(np.zeros(len(H)), True),
                np.zeros((len(H), mg.gN.chart.dim)))
    vals = on_pairs(mg.second_fundamental_form(s.x), H)  # (P, k, l, target)
    gm = pair_form(H, s.GM)
    Hs = np.sum(gm[..., None] * vals, axis=(1, 2)) / np.sum(gm * gm, axis=(1, 2))[:, None]
    return np.ma.masked_array(umbilic_gap(vals, gm, Hs, s.GN), False), Hs


def fiber_mean_curvature(mg: MapGeometry, points) -> np.ndarray:
    """H = (1/r0) sum_j T(u_j, u_j) at each point, (P, m) horizontal vectors."""
    s = mg.split(points)
    r0 = s.vertical.shape[1]
    if r0 == 0:
        raise MapError("fiber mean curvature needs a nonzero-dimensional kernel")
    return np.sum(tform(mg.oneill_T(s.x)[:, None], s.vertical, s.vertical), axis=1) / r0
