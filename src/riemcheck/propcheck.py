"""Ricci-decomposition identities and theorem-level conclusions.

The left side of every identity comes from the ambient Ricci tensor
(geometry.ricci); the right side is assembled from *restricted* Ricci
tensors of induced metrics, Hessian/gradient terms, O'Neill-derivative
traces, shape-operator terms and normal-bundle curvature, none of which
touch the ambient Ricci.  Agreement is therefore evidence, not tautology.

The identities are data: one `TABLE` row each, run by `verify_identity`.
A row gives

- a pair family.  ``uu``, ``ux`` and ``xx`` pair the vertical (u) and
  horizontal (X) frames of `MapGeometry.split` at the points x, with Ric_M on
  the left; ``FF``, ``Fe`` and ``ee`` pair the declared range (F) and normal
  (e) frames at y = F(x), with Ric_N on the left.  ``uu``, ``xx``, ``FF`` and
  ``ee`` report only the pairs a <= b;
- the case ingredients, built in the listed order before any term is
  computed, so the first missing piece (no dilation, no structure, frames that
  are not coordinate-aligned) is the exception the caller sees;
- the signed terms ``(report key, +1 or -1, term function)``.  A term
  function takes the batch namespace and returns the term's value at every
  pair of every point, a (P, na, nb) array; a subtracted term is reported
  with its positive value.  The right side is the first term, then every
  further term added or subtracted left to right;
- the hypothesis gates and whether a term follows an interpreted definition.

Two namespaces are filled lazily.  The case (`PropositionCase`) is bound to
the run's sample points and holds, once per run, arrays there and at y =
F(x), each from derivative arrays by `geometry` and `rmap`: the source
tensors (Ric_M, Ric_N, A, nabla A and the second fundamental form), the
dilations' gradients, Hessians and Laplacians (`geometry.function_at`),
L_W g_N (`geometry.lie_derivative`), the target geometry and the J'-images
of the target frames (`TargetCalculus.geometry` and `images`); and the
restricted geometries and the hypothesis gates, each evaluated at every
sample point.  The batch one (`_BATCH`), made per check, holds one split
(`MapGeometry.split`) and one evaluation per metric, tensor, frame and tape,
at the points x or at their images y, each an array with a leading point
axis, plus the contractions built from them (divA, NAH, NAT, AA, AMU, SS,
ST, the B/C split, the target calculus over every field combination).
Terms contract these with the frame contractions of `geometry`
(`pair_form` for a form on two frames, `qform`, `matvec` and `vdot`), which
make the BLAS calls of the per-vector products u @ M @ v and M @ v, so a
P-point call gives the rows of P one-point calls.  `_rows` keeps the rows, one per pair per point in
(point, a, b) order with residual |lhs - rhs|, as arrays (`Rows`); the worst
row, the first non-finite residual, else the first largest, is the only one
made a dict.  The two theorem-level checks build their own row arrays on the
same namespaces.

Restricted Ricci tensors exist only for coordinate-aligned involutive
distributions: the induced metric is the parent metric's block of
coordinates, read from its jets at the points (`MetricAt.block`), with
derivatives along the block only.  Anything else raises
UnsupportedDistribution.

Terms whose definition the source text leaves open (the pullback-derivative
of the shape operator, adjoint-map directions) follow the product-rule
interpretation documented on `TargetCalculus.nabla_tilde_S` and carry
``"interpreted": True`` in the result rows.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .expr import as_expr
from .geometry import (
    BLOCK,
    GeometryError,
    MetricAt,
    MetricField,
    VectorField,
    blocks,
    function_at,
    gnorm,
    gradient,
    lie_derivative,
    matvec,
    on_pairs,
    pair_form,
    qform,
    ricci,
    tform,
    tvec,
    vdot,
    worst,
)
from .rmap import (
    FramesRequired,
    Jet,
    MapGeometry,
    _projector,
    pushforward_field,
    shape_operator,
)
from .soliton import (
    SolitonConfig,
    check_clairaut_source,
    check_clairaut_target,
    soliton_residual,
)
from .structure import (
    AlmostComplexStructure,
    anti_invariant_residual,
    bc_split,
    complement_frames,
    kahler_residual,
)


class UnsupportedDistribution(GeometryError):
    pass


# A frame component above ALIGN_TOL puts its coordinate in the block; a
# vector may leak out of its block by at most LEAK_TOL * max(1, |v|).
ALIGN_TOL = 1e-9
LEAK_TOL = 1e-8


def coordinate_alignment(frames):
    """Indices of the coordinate block spanned by a (P, k, n) stack of frames;
    raises UnsupportedDistribution if the span is not a coordinate block of
    dimension k at every point."""
    k = frames.shape[1]
    support = np.flatnonzero(np.any(np.abs(frames) > ALIGN_TOL, axis=(0, 1))).tolist()
    if len(support) != k:
        raise UnsupportedDistribution(
            f"distribution spans coordinates {support} but has dimension {k}; "
            "not coordinate-aligned")
    return tuple(support)


class RestrictedGeometry:
    """Intrinsic geometry of the integral submanifolds of a coordinate-
    aligned distribution: the parent metric's jets at the block `indices`
    (`MetricAt.block`), whose curvature differentiates along the block
    coordinates only."""

    def __init__(self, parent: MetricField, indices):
        self.parent = parent
        self.indices = tuple(int(i) for i in indices)
        if (any(i < 0 or i >= parent.chart.dim for i in self.indices)
                or len(set(self.indices)) != len(self.indices)):
            raise UnsupportedDistribution(f"bad coordinate index subset {indices}")
        if not self.indices:
            raise UnsupportedDistribution("empty distribution has no intrinsic Ricci")

    def at(self, parent_points) -> MetricAt:
        return self.parent.at(parent_points).block(self.indices)

    def restrict_vector(self, v):
        """Components in the distribution block of a vector, or of every
        vector of a (..., n) stack; errors if one sticks out (NaN outside
        the block counts as sticking out)."""
        v = np.asarray(v, dtype=float)
        out_block = [i for i in range(v.shape[-1]) if i not in self.indices]
        leak = (np.max(np.abs(v[..., out_block]), axis=-1) if out_block
                else np.zeros(v.shape[:-1]))
        bad = np.flatnonzero(~(leak <= LEAK_TOL * np.fmax(1.0, np.max(np.abs(v), axis=-1))))
        if len(bad):
            raise UnsupportedDistribution(
                f"vector leaves the restricted block (leak {leak.flat[bad[0]]:.3e})")
        return v[..., list(self.indices)]


# -- field calculus on the target chart ------------------------------------------------

class TargetCalculus:
    """Vector-field calculus on the target chart, on arrays at a point set
    y: `geometry(y)` holds Gamma_N, its derivatives and the jets of P_range
    and P_perp there, from `MetricField.at` and the declared range and
    normal frames' jets; `images` the J'-images of those frames.  `J`,
    `proj_range` and `proj_perp` apply J', P_range and P_perp to field
    `Jet`s by the product rule, and the derivative operations contract field
    `Jet`s (`MapGeometry.frame_jet`) for every combination of fields along
    the jets' list axes.  Every derivative is taken along the coordinates
    `D` of `geometry` only, as every field `Jet` it takes carries them (along
    the others each vanishes); the covariant direction of nabla_{d_i} runs
    over all n.  No formula assumes that a field stays in its bundle: where
    the gates fail, it need not."""

    def __init__(self, mg: MapGeometry, Jp: AlmostComplexStructure | None):
        if not mg.frames.range or not mg.frames.normal:
            raise FramesRequired("target projectors need declared range and normal frames")
        self.mg = mg
        self.Jp = Jp

    def J(self, at, W: Jet) -> Jet:
        if self.Jp is None:
            raise UnsupportedDistribution("no target almost complex structure declared")
        return _apply(at.Jp, W)

    def proj_range(self, at, W: Jet) -> Jet:
        return _apply(at.PR, W)

    def proj_perp(self, at, W: Jet) -> Jet:
        return _apply(at.PP, W)

    def geometry(self, y) -> SimpleNamespace:
        """At the points y: the coordinates `D` that g_N, the range and
        normal frames or J' use (`Jets.used`); Gamma_N `gam` [k, i, j] and
        `dgam` [a, k, i, j] = d_a Gamma^k_ij for a in D; the range and normal
        frames' Jets `F` and `E` along D; the matrix jets (see `_apply`),
        with first derivatives along D, of `PR` = P_range and `PP` =
        P_perp, by `rmap._projector` from those frames; and the points `y`
        and g_N's arrays `m` there (`MetricField.at`)."""
        mg = self.mg
        m = mg.gN.at(y)
        D = np.union1d(m.D, mg.used("range", "normal"))
        if self.Jp is not None:
            D = np.union1d(D, self.Jp.jets.used)
        F, E = (mg.frame_jet(which, y).along(D) for which in ("range", "normal"))
        PR, PP = (_moved(_projector(m, slice(None), f, D)) for f in (F, E))
        return SimpleNamespace(D=D, gam=m.gam, dgam=m.dgam(slice(None), D), F=F, E=E,
                               PR=PR, PP=PP, y=y, m=m)

    def images(self, at):
        """(J'F, P_range J'E, P_perp J'E) for the range frame F and the normal
        frame E at the points of `geometry` `at`, along its D, the first and
        the last with second derivatives: from the frames' and J''s jets and
        the second derivatives of P_perp, a block of BLOCK (n / |D|)**2
        points at a time, so that no array is larger than BLOCK points' n**4
        and none is kept."""
        mg, D = self.mg, at.D

        def block(s):
            Fs, Es = (mg.frame_jet(which, at.y[s], 2).along(D) for which in ("range", "normal"))
            b = SimpleNamespace(PR=(at.PR[0][s], at.PR[1][s], None),
                                PP=_moved(_projector(at.m, s, Es, D, second=True)), Jp=None)
            if self.Jp is not None:
                J, dJ, ddJ = self.Jp.at(at.y[s], True)
                b.Jp = J, dJ[:, :, D], ddJ[:, :, D[:, None], D]
            JE = self.J(b, Es)
            return (self.J(b, Fs), self.proj_range(b, JE._replace(dd=None)),
                    self.proj_perp(b, JE))

        size = BLOCK * mg.gN.chart.dim ** 2 // max(len(D), 1) ** 2
        return tuple(map(_joined, zip(*map(block, blocks(len(at.y), size)))))

    def cov(self, at, W, Z) -> Jet:
        """nabla_W Z = W^i d_i Z^k + Gamma^k_ij W^i Z^j, with derivatives
        where W has first and Z second derivatives; d_i Z is given for the i
        in D only, and i runs over all n."""
        A = tvec(at.gam, Z.v, 2)  # A[k, i] = (nabla_{d_i} Z)^k
        A[..., at.D] += Z.d
        if W.d is None or Z.dd is None:
            return Jet(matvec(A, W.v))
        d = np.matmul(A, W.d)  # summed in place: these arrays are the largest
        d += np.matmul(tvec(at.gam, W.v, 2), Z.d) + tvec(Z.dd, W.v[..., at.D], 2)
        d += matvec(tvec(at.dgam, Z.v, 3), W.v[..., None, :]).swapaxes(-1, -2)
        return Jet(matvec(A, W.v), d)

    def nperp(self, at, W, D) -> Jet:
        """Normal connection: P_perp(nabla_W D)."""
        return self.proj_perp(at, self.cov(at, W, D))

    def shape(self, at, D, V) -> Jet:
        """S_D V = -P_range(nabla_V D), by `shape_operator`, with derivatives
        where V has first and D second derivatives."""
        value = matvec(shape_operator(at.PR[0], at.gam, D, at.D), V.v)
        if V.d is None or D.dd is None:
            return Jet(value)
        return Jet(value, -self.proj_range(at, self.cov(at, V, D)).d)

    def nabla_tilde_S(self, at, W, D, V) -> np.ndarray:
        """(nabla~_W S)_D V by the product rule with the pullback connection:
        P_range nabla_W (S_D V) - S_{P_perp nabla_W D} V
        - S_D (P_range nabla_W V).  Interpreted term."""
        PR = at.PR[0]
        a = tvec(PR, self.cov(at, W, self.shape(at, D, V)).v)
        b = self.shape(at, self.nperp(at, W, D), V).v
        c = self.shape(at, D, Jet(tvec(PR, self.cov(at, W, V).v))).v
        return a - b - c

    def r_perp(self, at, W1, W2, D) -> np.ndarray:
        """Normal-bundle curvature R^{F perp}(W1, W2) D, with the bracket
        [W1, W2]^k = W1^i d_i W2^k - W2^i d_i W1^k."""
        a = self.nperp(at, W1, self.nperp(at, W2, D)).v
        b = self.nperp(at, W2, self.nperp(at, W1, D)).v
        bracket = Jet(matvec(W2.d, W1.v[..., at.D]) - matvec(W1.d, W2.v[..., at.D]))
        return a - b - self.nperp(at, bracket, D).v


def _joined(jets):
    """Jets of consecutive blocks of points joined along the point axis."""
    return Jet(*(None if a[0] is None else np.concatenate(a, axis=1) for a in zip(*jets)))


def _moved(jets):
    """`rmap._projector`'s (P, dP [a, i, j], ddP [a, b, i, j] or None) as a
    matrix jet (P, dP [i, a, j], ddP [i, a, b, j] or None)."""
    P, dP, ddP = jets
    return P, dP.swapaxes(1, 2), None if ddP is None else np.moveaxis(ddP, 3, 1)


def _apply(M, X: Jet) -> Jet:
    """M X by the product rule, for the matrix jet M = (M [k, m], d_a M
    [k, a, m], d_a d_b M [k, a, b, m]) at P points and field Jets X at the
    same points: first and second derivatives where X has them."""
    v, dM, ddM = M
    out = tvec(v, X.v)
    if X.d is None:
        return Jet(out)
    d = np.matmul(v, X.d)
    d += tvec(dM, X.v, 2)
    if X.dd is None:
        return Jet(out, d)
    # summed in place, as each term is n**4-sized
    dd = np.matmul(v, X.dd.reshape(X.dd.shape[:-2] + (-1,))).reshape(d.shape + d.shape[-1:])
    dd += tvec(ddM, X.v, 3)
    cross = np.matmul(dM, X.d[..., None, :, :])  # [k, a, b] = d_a M^k_m d_b X^m
    dd += cross
    dd += cross.swapaxes(-1, -2)
    return Jet(out, d, dd)


# -- the case ---------------------------------------------------------------------------

class _Lazy:
    """Attribute namespace: a missing attribute is built once by
    `builders[name](self)` and kept."""

    def __init__(self, builders, **given):
        self._builders = builders
        self.__dict__.update(given)

    def __getattr__(self, name):
        try:
            build = self._builders[name]
        except KeyError:
            raise AttributeError(name) from None
        value = build(self)
        setattr(self, name, value)
        return value


GATE_TOL = 1e-7


class PropositionCase(_Lazy):
    """The configuration of a run's identity checks, bound to its sample
    points: the map geometry, the declared structures J (source) and Jp
    (target), dilations f and gfun, the soliton potential (a field eta or,
    in the gradient case, a function u) and soliton constants.  Each
    ingredient of `_INGREDIENTS` is an attribute built on first use and
    kept; each hypothesis gate is evaluated once."""

    def __init__(self, mg: MapGeometry, points, J=None, Jp=None, f=None, gfun=None,
                 eta: VectorField | None = None, alpha=1.0, lam=0.0, u=None):
        super().__init__(_INGREDIENTS, mg=mg, pts=np.atleast_2d(points), J=J, Jp=Jp,
                         f=as_expr(f) if f is not None else None,
                         gfun=as_expr(gfun) if gfun is not None else None,
                         eta=eta, u=as_expr(u) if u is not None else None,
                         alpha=float(alpha), lam=lam)
        self._gates = {}

    # ---- hypothesis gates ----
    def gates(self, which):
        """(holds, value) of each named gate over the case's points."""
        for name in which:
            if name not in self._gates:
                self._gates[name] = self._gate(name)
        return {name: self._gates[name] for name in which}

    def _gate(self, name):
        mg, pts = self.mg, self.pts
        kind, _, side = name.rpartition("_")
        if kind in ("kahler", "anti_invariant", "lagrangian"):
            J = self.J if side == "source" else self.Jp
            if J is None:
                return (False, f"no {side} structure declared")
            if kind == "kahler":
                g, at = (mg.gM, pts) if side == "source" else (mg.gN, mg.F.values(pts))
                return _gate_value(kahler_residual(g, J, at))
            if kind == "anti_invariant":
                per_point, degen = anti_invariant_residual(mg, J, pts, side)
                res = worst(per_point)[0]
                return (res <= GATE_TOL and not degen, res)
            frames = complement_frames(mg, J, pts, side)
            dim = int(np.any(frames != 0, axis=2).sum(axis=1).max(initial=0))
            return (dim == 0, dim)
        if name == "clairaut_source":
            if self.f is None:
                return (False, "no source dilation declared")
            res, _ = check_clairaut_source(mg, self.f, pts)
            return _gate_value(res)
        if name == "clairaut_target":
            if self.gfun is None:
                return (False, "no target dilation declared")
            sides = check_clairaut_target(mg, self.gfun, pts)
            return _gate_value(np.ma.concatenate(sides))
        if name == "totally_geodesic_map":
            sp = mg.split(pts)
            E = np.concatenate([sp.vertical, sp.horizontal], axis=1)
            vals = on_pairs(mg.second_fundamental_form(pts), E)
            return _gate_value(np.max(gnorm(vals, sp.GN[:, None, None]), axis=(1, 2)))
        if name == "tg_horizontal":
            sp = mg.split(pts)
            vals = on_pairs(mg.oneill_A(pts), sp.horizontal)
            return _gate_value(np.max(gnorm(vals, sp.GM[:, None, None]), axis=(1, 2)))
        if name == "tg_normal":  # P_range nabla_{e_k} e_l = -S_{e_l} e_k
            return _gate_value(np.abs(_tc_values(_Lazy(_BATCH, c=self), "shape", "Ej", "Ej")))
        if name == "vertical_potential":
            return self._potential_gate(vertical=True)
        if name == "horizontal_potential":
            return self._potential_gate(vertical=False)
        if name == "source_soliton":
            potential = self.u if self.u is not None else self.f
            if self.eta is not None:
                cfg = SolitonConfig(mg.gM, xi=self.eta, alpha=self.alpha, lam=self.lam)
            elif potential is not None:
                cfg = SolitonConfig(mg.gM, f=potential, alpha=self.alpha, lam=self.lam)
            else:
                return (False, "no potential declared")
            return _gate_value(soliton_residual(cfg, points=pts))
        if name == "kernel_nontrivial":
            return (self.dims["r0"] > 0, self.dims["r0"])
        raise GeometryError(f"unknown gate {name!r}")

    def _potential_gate(self, vertical):
        if self.eta is None:
            return (False, "no potential field declared")
        sp = self.mg.split(self.pts)
        frame = sp.horizontal if vertical else sp.vertical
        if frame.shape[1] == 0:
            return _gate_value(np.ma.masked_array(np.zeros(len(self.pts)), True))
        eta = self.eta.values(self.pts)
        return _gate_value(np.max(np.abs(qform(frame, sp.GM[:, None], eta[:, None])), axis=1))


def _gate_value(residuals):
    """(holds, value) of a gate measured by residuals over sample points."""
    res = worst(residuals)[0]
    return (res <= GATE_TOL, res)


# -- ingredients ------------------------------------------------------------------------

def _declared(value, missing):
    """value, which the case declares; UnsupportedDistribution(missing)
    when it does not."""
    if value is None:
        raise UnsupportedDistribution(missing)
    return value


def _restricted(c, part):
    """Restricted geometry of one part of the split at the case's points:
    'vertical' (the kernel, on M), 'range' or 'normal' (on N)."""
    g = c.mg.gM if part == "vertical" else c.mg.gN
    return RestrictedGeometry(g, coordinate_alignment(getattr(c.mg.split(c.pts), part)))


def _dims(c):
    """Dimensions of the split: m, n, r0 (kernel), h (horizontal), rank
    (range) and n1 (normal)."""
    sp = c.mg.split(c.pts)
    return {"m": c.mg.gM.chart.dim, "n": c.mg.gN.chart.dim,
            "r0": sp.vertical.shape[1], "h": sp.horizontal.shape[1],
            "rank": sp.range.shape[1], "n1": sp.normal.shape[1]}


def _lie_W(c):
    """L_W g_N at y for W = F_*(grad f), pushed through the declared section."""
    gradf = gradient(c.mg.gM, _declared(c.f, "case has no source dilation f"))
    W = pushforward_field(c.mg.F, gradf, validate_points=c.pts)
    return lie_derivative(c.mg.gN, W, c.mg.split(c.pts).y)


# per case: source tensors at the case's points, the dilations' jets, restricted
# geometries, the target calculus and its arrays at y, shared by every check
_INGREDIENTS = {
    "ric_M": lambda c: ricci(c.mg.gM, c.pts),
    "ric_N": lambda c: ricci(c.mg.gN, c.mg.split(c.pts).y),
    "f_jet": lambda c: function_at(c.mg.gM, _declared(c.f, "case has no source dilation f"),
                                   c.pts),
    "g_jet": lambda c: function_at(c.mg.gN, _declared(c.gfun, "case has no target dilation g"),
                                   c.mg.split(c.pts).y),
    "ker_rg": lambda c: _restricted(c, "vertical"),
    "range_rg": lambda c: _restricted(c, "range"),
    "perp_rg": lambda c: _restricted(c, "normal"),
    "dims": _dims,
    "A": lambda c: c.mg.oneill_A(c.pts),
    "NA": lambda c: c.mg.nabla_oneill("A", c.pts),
    "SFF": lambda c: c.mg.second_fundamental_form(c.pts),
    "source_J": lambda c: _declared(c.J, "no source almost complex structure declared"),
    "tc": lambda c: TargetCalculus(c.mg, c.Jp),
    "tg": lambda c: c.tc.geometry(c.mg.split(c.pts).y),
    "images": lambda c: c.tc.images(c.tg),
    "JF": lambda c: c.images[0],
    "PE": lambda c: c.images[1],
    "QE": lambda c: c.images[2],
    "mr": lambda c: c.mg.gM.chart.dim - c.dims["r0"],
    "LW": _lie_W,
}


def _tensordot01(A, B):
    """np.tensordot(A[p], B[p], axes=([0, 1], [0, 1])) at every point, for
    A (P, l, k, j) and B (P, l, k, n), by the same BLAS call."""
    P = len(A)
    return np.matmul(A.reshape(P, -1, A.shape[-1]).transpose(0, 2, 1),
                     B.reshape(P, -1, B.shape[-1]))


def _gram_form(T, G):
    """Q[p, j, n] = sum_{a,k,m} T[p, a, k, j] G[p, k, m] T[p, a, m, n]."""
    return _tensordot01(T, np.matmul(G[:, None], T))


def _acc(values, sign=1):
    """0.0 plus, or with sign -1 minus, each values[..., j] in turn."""
    acc = np.zeros(values.shape[:-1])
    for j in range(values.shape[-1]):
        acc = acc + values[..., j] if sign > 0 else acc - values[..., j]
    return acc


# per point set: values at the P points x, and at y = F(x) on the target, each
# with a leading point axis; frames are (P, k, n) stacks of row vectors
_BATCH = {
    "sp": lambda p: p.c.mg.split(p.c.pts),
    "x": lambda p: p.sp.x,
    "y": lambda p: p.sp.y,
    "V": lambda p: p.sp.vertical,
    "H": lambda p: p.sp.horizontal,
    "r0": lambda p: p.V.shape[1],
    "GM": lambda p: p.sp.GM,
    "GN": lambda p: p.sp.GN,
    "Jac": lambda p: p.sp.Jac,
    "ricM": lambda p: p.c.ric_M,
    "ricN": lambda p: p.c.ric_N,
    "Hf": lambda p: p.c.f_jet.hess,
    "gf": lambda p: p.c.f_jet.grad,
    "norm2_f": lambda p: qform(p.gf, p.GM, p.gf),
    "div_grad_f": lambda p: p.c.f_jet.lap,
    "df": lambda p: p.c.f_jet.d,
    "gg": lambda p: p.c.g_jet.grad,
    "norm2_g": lambda p: qform(p.gg, p.GN, p.gg),
    "Hg": lambda p: p.c.g_jet.hess,
    "hess_trace_g": lambda p: _acc(qform(p.Ev, p.Hg[:, None], p.Ev)),
    "dg": lambda p: p.c.g_jet.d,
    "Av": lambda p: p.c.A,
    "NAv": lambda p: p.c.NA,
    "Sv": lambda p: p.c.SFF,
    "tau": lambda p: np.sum(tform(p.Sv[:, None], p.H, p.H), axis=1),
    # contractions that do not depend on the frame pair, as bilinear forms:
    # X @ divA @ Y = sum_a g((nabla_{u_a} A)(X, Y), u_a),
    # C @ NAH @ B = sum_a g((nabla_{X_a} A)(C, X_a), B),
    # U @ NAT @ B = sum_a g((nabla_{X_a} A)(X_a, U), B)
    "PH": lambda p: np.matmul(p.H.transpose(0, 2, 1), p.H),
    "divA": lambda p: _tensordot01(
        np.matmul(p.GM, np.matmul(p.V.transpose(0, 2, 1), p.V))[..., None],
        p.NAv.reshape(p.NAv.shape[:3] + (-1,))).reshape(p.GM.shape),
    "NAH": lambda p: np.matmul(np.einsum("pklij,plj->pik", p.NAv, p.PH), p.GM),
    "NAT": lambda p: np.matmul(np.einsum("pklij,pli->pjk", p.NAv, p.PH), p.GM),
    "AA": lambda p: _gram_form(np.einsum("pkij,pli->plkj", p.Av, p.H), p.GM),
    "AMU": lambda p: _gram_form(np.einsum("pkij,paj->paki", p.Av, p.V), p.GM),
    "SS": lambda p: _tensordot01(np.einsum("paij,pli->plaj", p.Sv, p.H),
                                 np.matmul(p.GN[:, None], np.einsum("paij,plj->plai", p.Sv, p.H))),
    "ST": lambda p: _tensordot01(
        matvec(p.GN, p.tau)[:, None, :, None],
        p.Sv.reshape(len(p.Sv), 1, p.Sv.shape[1], -1)).reshape(p.Sv.shape[:1] + p.Sv.shape[2:]),
    "ric_range": lambda p: p.c.range_rg.at(p.y).ricci,
    "ric_ker": lambda p: p.c.ker_rg.at(p.x).ricci,
    "ric_perp": lambda p: p.c.perp_rg.at(p.y).ricci,
    "Jx": lambda p: p.c.source_J.values(p.x),
    "JU": lambda p: matvec(p.Jx[:, None], p.V),
    "BC": lambda p: bc_split(p.Jx[:, None], p.H, p.V[:, None], p.GM[:, None]),
    "B": lambda p: p.BC[0],
    "C": lambda p: p.BC[1],
    "Fv": lambda p: p.c.mg.field_values(p.c.mg.frames.range, p.y),
    "Ev": lambda p: p.c.mg.field_values(p.c.mg.frames.normal, p.y),
    "JFv": lambda p: np.moveaxis(p.c.JF.v, 0, 1),
    "PEv": lambda p: np.moveaxis(p.c.PE.v, 0, 1),
    "QEv": lambda p: np.moveaxis(p.c.QE.v, 0, 1),
    "LWv": lambda p: p.c.LW,
    # target calculus at y; JF and QE, the D slots, with second derivatives
    "tg": lambda p: p.c.tg,
    "Fj": lambda p: p.tg.F._replace(dd=None),
    "Ej": lambda p: p.tg.E._replace(dd=None),
    "JFh": lambda p: p.c.JF,
    "JFj": lambda p: p.JFh._replace(dd=None),
    "PEj": lambda p: p.c.PE,
    "QEh": lambda p: p.c.QE,
    "tc_values": lambda p: {},
}

# family: (first frame, second frame, labels, pairs a <= b only, ambient Ricci)
_FAMILIES = {
    "uu": ("V", "V", "uu", True, "ricM"),
    "ux": ("V", "H", "uX", False, "ricM"),
    "xx": ("H", "H", "XX", True, "ricM"),
    "FF": ("Fv", "Fv", "FF", True, "ricN"),
    "Fe": ("Fv", "Ev", "Fe", False, "ricN"),
    "ee": ("Ev", "Ev", "ee", True, "ricN"),
}


class Rows:
    """The result rows of a check, one per kept pair at each point, in
    (point, a, b) order, as arrays: point and pair indices, lhs, rhs, the
    residual |lhs - rhs| and each term's value.  `row(i)` is row i as the
    dict a report reads; a run builds only the worst row's."""

    def __init__(self, labels, at, lhs, rhs, terms):
        self.labels, (self.point, self.a, self.b) = labels, at
        self.lhs, self.rhs, self.residual = lhs, rhs, np.abs(lhs - rhs)
        self.terms = terms

    def __len__(self):
        return len(self.residual)

    def row(self, i) -> dict:
        la, lb = self.labels
        return {"point": int(self.point[i]),
                "pair": (f"{la}{self.a[i] + 1}", f"{lb}{self.b[i] + 1}"),
                "lhs": float(self.lhs[i]), "rhs": float(self.rhs[i]),
                "residual": float(self.residual[i]),
                "terms": {k: float(v[i]) for k, v in self.terms.items()}}


def _rows(family, lhs, rhs, terms, keep=None) -> Rows:
    """The rows of the family's pairs at each point from (P, na, nb) arrays:
    a <= b only for the symmetric families, and only where `keep` holds
    when it is given."""
    _, _, labels, upper, _ = _FAMILIES[family]
    mask = np.ones(lhs.shape, dtype=bool) if keep is None else keep
    if upper:
        mask = mask & np.triu(np.ones(lhs.shape[1:], dtype=bool))
    at = np.nonzero(mask)
    return Rows(labels, at, lhs[at], rhs[at], {k: v[at] for k, v in terms.items()})


def _result(ident, rows, gates, interpreted=False):
    """The result of a check from its rows; the worst row is the first
    non-finite residual, else the first largest (`geometry.worst`)."""
    if not len(rows):
        return {"id": ident, "gates": tuple(gates), "n_pairs": 0,
                "max_residual": 0.0, "worst": None, "rows": rows,
                "vacuous": True, "interpreted": interpreted}
    top = rows.row(worst(rows.residual)[1])
    return {"id": ident, "gates": tuple(gates), "n_pairs": len(rows),
            "max_residual": top["residual"], "worst": top, "rows": rows,
            "vacuous": False, "interpreted": interpreted}


# -- term helpers -------------------------------------------------------------------------
# Each returns a (P, na, nb) array over the pairs of two (P, k, n) vector stacks.

def _push(p, X):
    """F_* of a stack of source vectors."""
    return matvec(p.Jac[:, None], X)


def _ric_block(rg, ric, P, Q):
    """Restricted Ricci `ric` (P, k, k) of two stacks of vectors lying in the
    block of `rg`, contracted with their block components."""
    RP = rg.restrict_vector(P)
    return pair_form(RP, ric, RP if Q is P else rg.restrict_vector(Q))


def _ric_range(p, P, Q):
    """Ric^range(F_*P, F_*Q) for source vectors P, Q."""
    FP = _push(p, P)
    return _ric_block(p.c.range_rg, p.ric_range, FP, FP if Q is P else _push(p, Q))


def _div_A(p, X, Y):
    """sum_j g((nabla_{u_j} A)(X, Y), u_j)."""
    if p.r0 == 0:
        return np.zeros((len(X), X.shape[1], Y.shape[1]))
    return pair_form(X, p.divA, Y)


def _hess_B(p, B, W):
    return -(p.r0 + 1) * pair_form(B, p.Hf, W)


def _hess_C(p, P, Q):
    return -p.r0 * pair_form(P, p.Hf, Q)


def _nabla_A_H(p, C, B):
    """-sum_a g((nabla_{X_a} A)(C, X_a), B)."""
    return -pair_form(C, p.NAH, B)


def _df_pair(p):
    """-r CX(f) CY(f)."""
    cdf = vdot(p.C, p.df[:, None])
    return -p.r0 * cdf[:, :, None] * cdf[:, None, :]


def _tc_values(p, method, *jets):
    """Values at y of `tc.method(W1, W2, ...)` for every choice of W1, W2,
    ... from the named jets of `p` (the list axis of the i-th at axis i), as
    a (P, n1, n2, ..., n) array kept for the point set."""
    key = (method,) + jets
    if key not in p.tc_values:
        m = len(jets)
        out = getattr(p.c.tc, method)(p.tg, *(
            Jet(*(a if a is None else np.expand_dims(a, [j for j in range(m) if j != i])
                  for a in getattr(p, name))) for i, name in enumerate(jets)))
        p.tc_values[key] = np.moveaxis(getattr(out, "v", out), m, 0)
    return p.tc_values[key]


def _grad_nperp(p, Ws, Ds):
    """(m - r) g_N(grad g, nperp_W D)."""
    return p.c.mr * qform(p.gg[:, None, None], p.GN[:, None, None],
                          _tc_values(p, "nperp", Ws, Ds))


def _nts_trace(p, Ds, Xs, reverse=False):
    """[D, X]: sum_j g((nabla~_X S)_D F_j, F_j), or with `reverse`
    -sum_j g((nabla~_{F_j} S)_D X, F_j)."""
    GN = p.GN[:, None, None, None]
    if reverse:  # [j, D, X]
        vals = qform(_tc_values(p, "nabla_tilde_S", "Fj", Ds, Xs), GN, p.Fv[:, :, None, None])
        return _acc(np.moveaxis(vals, 1, -1), -1)
    vals = qform(_tc_values(p, "nabla_tilde_S", Xs, Ds, "Fj"), GN, p.Fv[:, None, None])
    return _acc(vals).swapaxes(1, 2)  # [X, D, j] summed over j


def _rperp_trace(p, Ws, Ds):
    """[W, D]: -sum_k g(R^perp(W, e_k) D, e_k)."""
    vals = qform(_tc_values(p, "r_perp", Ws, "Ej", Ds),
                 p.GN[:, None, None, None], p.Ev[:, None, :, None])  # [W, k, D]
    return _acc(np.moveaxis(vals, 2, -1), -1)


def _T(term):
    """A term over the pairs (b, a), transposed to (a, b)."""
    return lambda p: term(p).swapaxes(1, 2)


# -- the identities -----------------------------------------------------------------------

class Identity(NamedTuple):
    family: str
    ingredients: tuple
    terms: tuple
    gates: tuple
    interpreted: bool = False


# terms shared by several identities
_UV_RANGE = ("ric_range", +1, lambda p: _ric_range(p, p.JU, p.JU))
_XY_KER = ("ric_ker", +1, lambda p: _ric_block(p.c.ker_rg, p.ric_ker, p.B, p.B))
_XY_WARP = ("warp_trace", +1, lambda p: -(p.r0 * p.norm2_f + p.div_grad_f)[:, None, None]
            * pair_form(p.B, p.GM))
_XY_HESS = ("r_hess_CC", +1, lambda p: _hess_C(p, p.C, p.C))
_XY_DF = ("r_CXf_CYf", +1, _df_pair)
_XY_RANGE = ("ric_range", +1, lambda p: _ric_range(p, p.C, p.C))
_FF_PERP = ("ric_perp", +1, lambda p: _ric_block(p.c.perp_rg, p.ric_perp, p.JFv, p.JFv))
_FE_NTS = ("ntS_PE", +1, lambda p: _nts_trace(p, "JFh", "PEj"))
_FE_NTS_F = ("ntS_Fj", +1, lambda p: _nts_trace(p, "JFh", "PEj", True))
_FE_RPERP = ("r_perp", +1, _T(lambda p: _rperp_trace(p, "PEj", "JFh")))
_EE_RANGE = ("ric_range_PP", +1,
             lambda p: _ric_block(p.c.range_rg, p.ric_range, p.PEv, p.PEv))

_SOURCE = ("kahler_source", "anti_invariant_source", "clairaut_source")
_LSOURCE = ("lagrangian_source", "anti_invariant_source", "clairaut_source",
            "kahler_source")
_TARGET = ("kahler_target", "anti_invariant_target", "clairaut_target", "tg_normal")
_LTARGET = ("lagrangian_target", "anti_invariant_target", "clairaut_target",
            "kahler_target")

TABLE = {
    # Ric(U,V) = Ric^range(F_*JU, F_*JV) + r Hess f(JU, JV) - divA(JU, JV)
    "ric_uv": Identity("uu", ("range_rg", "ric_M", "f_jet", "NA", "source_J"), (
        _UV_RANGE,
        ("r_hess_f", +1, lambda p: p.r0 * pair_form(p.JU, p.Hf)),
        ("div_A", -1, lambda p: _div_A(p, p.JU, p.JU)),
    ), _SOURCE),
    "ric_ux": Identity("ux", ("range_rg", "ric_M", "f_jet", "NA", "source_J"), (
        ("hess_BX_JU", +1, _T(lambda p: _hess_B(p, p.B, p.JU))),
        ("div_A_JU_CX", +1, lambda p: _div_A(p, p.JU, p.C)),
        ("r_hess_JU_CX", +1, lambda p: _hess_C(p, p.JU, p.C)),
        ("ric_range", +1, lambda p: _ric_range(p, p.JU, p.C)),
        ("nablaA_frame_trace", +1, lambda p: pair_form(p.JU, p.NAT, p.B)),
    ), _SOURCE),
    "ric_xy": Identity("xx", ("range_rg", "ker_rg", "ric_M", "f_jet", "A", "NA", "SFF",
                              "source_J"), (
        _XY_KER,
        _XY_WARP,
        ("A_A", +1, lambda p: pair_form(p.B, p.AA)),
        _XY_HESS,
        _XY_DF,
        ("A_mu", +1, lambda p: pair_form(p.C, p.AMU) if p.r0 else
         np.zeros((len(p.C),) + (p.C.shape[1],) * 2)),
        ("div_A_CC", +1, lambda p: _div_A(p, p.C, p.C)),
        _XY_RANGE,
        ("sff_sff", +1, _T(lambda p: -pair_form(p.C, p.SS))),
        ("sff_tension", +1, lambda p: pair_form(p.C, p.ST)),
        ("hess_BX_CY", +1, lambda p: _hess_B(p, p.B, p.C)),
        ("nablaA_CY", +1, _T(lambda p: _nabla_A_H(p, p.C, p.B))),
        ("hess_BY_CX", +1, _T(lambda p: _hess_B(p, p.B, p.C))),
        ("nablaA_CX", +1, lambda p: _nabla_A_H(p, p.C, p.B)),
    ), _SOURCE),
    # Lagrangian reductions: Ric(U,V) = Ric^range(F_*JU, F_*JV), Ric(U,X) = 0,
    # Ric(X,Y) = Ric^ker(BX, BY)
    "lric_uv": Identity("uu", ("range_rg", "ric_M", "source_J"), (_UV_RANGE,), _LSOURCE),
    "lric_ux": Identity("ux", ("ric_M",), (), _LSOURCE),
    "lric_xy": Identity("xx", ("ker_rg", "ric_M", "source_J"), (_XY_KER,), _LSOURCE),
    # totally geodesic corollary: Ric(X,Y) = Ric^ker(BX,BY)
    # - (r |grad f|^2 + div grad f) g(BX,BY) - r Hess f(CX,CY)
    # + Ric^range(F_*CX, F_*CY) - r CX(f) CY(f)
    "cor_ric_xy": Identity("xx", ("range_rg", "ker_rg", "ric_M", "f_jet", "source_J"),
                           (_XY_KER, _XY_WARP, _XY_HESS, _XY_RANGE, _XY_DF),
                           ("totally_geodesic_map", "tg_horizontal", "anti_invariant_source",
                            "clairaut_source", "kahler_source")),
    # Ric(F_*X, F_*Y) = Ric^perp(J'F_*X, J'F_*Y) + (m - r) g_N(grad g, nperp J'F_*X J'F_*Y)
    "ric_fxfy": Identity("FF", ("tc", "perp_rg", "ric_N", "g_jet", "mr", "JF"), (
        _FF_PERP,
        ("grad_nperp", +1, lambda p: _grad_nperp(p, "JFj", "JFj")),
    ), _TARGET),
    "ric_fxe": Identity("Fe", ("tc", "perp_rg", "ric_N", "g_jet", "mr", "JF", "PE", "QE"), (
        ("ric_perp_Q", +1, lambda p: _ric_block(p.c.perp_rg, p.ric_perp, p.JFv, p.QEv)),
        _FE_NTS,
        _FE_NTS_F,
        ("grad_nperp", +1, _T(lambda p: _grad_nperp(p, "QEh", "JFj"))),
        _FE_RPERP,
    ), _TARGET, True),
    "ric_de": Identity("ee", ("tc", "range_rg", "perp_rg", "ric_N", "g_jet", "mr", "PE",
                              "QE"), (
        _EE_RANGE,
        ("warp_PP", +1, lambda p: -pair_form(p.PEv, p.GN)
         * (p.Ev.shape[1] * p.norm2_g + p.hess_trace_g)[:, None, None]),
        ("ntS_PD_QE", +1, _T(lambda p: _nts_trace(p, "QEh", "PEj"))),
        ("ntS_Fj_QE", +1, _T(lambda p: _nts_trace(p, "QEh", "PEj", True))),
        ("rperp_PD_QE", +1, lambda p: _rperp_trace(p, "PEj", "QEh")),
        ("ntS_PE_QD", +1, lambda p: _nts_trace(p, "QEh", "PEj")),
        ("ntS_Fj_QD", +1, lambda p: _nts_trace(p, "QEh", "PEj", True)),
        ("rperp_PE_QD", +1, _T(lambda p: _rperp_trace(p, "PEj", "QEh"))),
        ("ric_perp_QQ", +1,
         lambda p: _ric_block(p.c.perp_rg, p.ric_perp, p.QEv, p.QEv)),
        ("warp_QQ", +1, lambda p: _warp_QQ(p)),
    ), _TARGET, True),
    # Lagrangian reductions: Ric(F_*X, F_*Y) = Ric^perp(J'F_*X, J'F_*Y); only the
    # interpreted terms of the mixed identity survive; Ric(D, E) = Ric^range(PD, PE)
    "lric_fxfy": Identity("FF", ("tc", "perp_rg", "ric_N", "JF"), (_FF_PERP,), _LTARGET),
    "lric_fxe": Identity("Fe", ("tc", "ric_N", "JF", "PE"),
                         (_FE_NTS, _FE_NTS_F, _FE_RPERP), _LTARGET, True),
    "lric_de": Identity("ee", ("tc", "range_rg", "ric_N", "PE"), (_EE_RANGE,), _LTARGET),
}

def _warp_QQ(p):
    """-(m - r) (QD(g) QE(g) + Hess g(QD, QE))."""
    qdg = vdot(p.QEv, p.dg[:, None])
    return -p.c.mr * (qdg[:, :, None] * qdg[:, None, :] + pair_form(p.QEv, p.Hg))


def verify_identity(case: PropositionCase, ident: str):
    """Run one TABLE identity at the case's points; returns the per-pair rows
    with a term breakdown, the worst row and its residual, and the gate names
    to evaluate."""
    try:
        row = TABLE[ident]
    except KeyError:
        raise GeometryError(f"unknown identity {ident!r}") from None
    for name in row.ingredients:
        getattr(case, name)
    p = _Lazy(_BATCH, c=case)
    first, second, _, _, ric = _FAMILIES[row.family]
    X, Y = getattr(p, first), getattr(p, second)
    if not (X.shape[1] and Y.shape[1]):
        return _result(ident, [], row.gates, row.interpreted)
    lhs = pair_form(X, getattr(p, ric), Y)
    vals = [fn(p) for _, _, fn in row.terms]
    rhs = vals[0] if vals else np.zeros_like(lhs)
    for (_, sign, _), v in zip(row.terms[1:], vals[1:]):
        rhs = rhs + v if sign > 0 else rhs - v
    rows = _rows(row.family, lhs, rhs, {key: v for (key, _, _), v in zip(row.terms, vals)})
    return _result(ident, rows, row.gates, row.interpreted)


# -- theorem-level checks -----------------------------------------------------------------

def verify_alpha_soliton_on_range(case: PropositionCase):
    """Residual of  1/2 (L_W g_N) + (1/r) Ric^range + (lam/r) g_N  on the
    F_*(J ker) frame with W = F_*(grad f), plus the cross-pipeline
    bookkeeping that ties it to the source soliton residual."""
    r0 = case.dims["r0"]
    if r0 == 0:
        return {**_result("alpha_soliton_range", [], ("kernel_nontrivial",)),
                "alpha": None, "beta": None}
    for name in ("range_rg", "LW", "ric_M", "f_jet", "NA", "source_J"):
        getattr(case, name)
    lam = float(case.lam)
    alpha, beta = 1.0 / r0, lam / r0
    p = _Lazy(_BATCH, c=case)
    V, JU = p.V, p.JU
    FJU = _push(p, JU)
    ric_rng = _ric_block(case.range_rg, p.ric_range, FJU, FJU)
    lie_W = pair_form(FJU, p.LWv)
    lie_term = 0.5 * lie_W
    ric_term = alpha * ric_rng
    met_term = beta * pair_form(FJU, p.GN)
    range_residual = lie_term + ric_term + met_term
    # cross-pipeline bookkeeping
    if case.eta is not None:
        lie_eta = 0.5 * pair_form(V, lie_derivative(case.mg.gM, case.eta, p.x))
    elif case.u is not None:  # (1/2) L_{grad u} g = Hess u
        lie_eta = pair_form(V, function_at(case.mg.gM, case.u, p.x).hess)
    else:
        lie_eta = np.zeros_like(lie_W)
    ric_uv = pair_form(V, p.ricM)
    g_uv = pair_form(V, p.GM)
    S = lie_eta + case.alpha * ric_uv + lam * g_uv
    t_div = _div_A(p, JU, JU)
    r_hess = r0 * pair_form(JU, p.Hf)
    ident_gap = ric_uv - (ric_rng + r_hess - t_div)
    push_gap = r_hess - 0.5 * r0 * lie_W
    metric_gap = lam * (g_uv - pair_form(FJU, p.GN))
    bookkeeping = np.abs(S - r0 * range_residual
                         - (lie_eta + ident_gap + push_gap - t_div + metric_gap))
    rows = _rows("uu", range_residual, np.zeros_like(range_residual),
                 {"half_lie_W": lie_term, "alpha_ric_range": ric_term,
                  "beta_metric": met_term, "source_residual": S,
                  "identity_gap": ident_gap, "pushforward_gap": push_gap,
                  "div_A": t_div, "bookkeeping_gap": bookkeeping})
    out = _result("alpha_soliton_range", rows,
                  ("source_soliton", "tg_horizontal", "kernel_nontrivial") + _SOURCE)
    out["alpha"], out["beta"] = alpha, beta
    return out


def verify_ric_lie_relation(case: PropositionCase):
    """Ric^range(F_*JU, F_*CX) = (r/2)(L_{F_*(grad f)} g_N)(F_*JU, F_*CX)
    over (vertical, horizontal) pairs; vacuous when every CX vanishes
    (Lagrangian case)."""
    r0 = case.dims["r0"]
    for name in ("range_rg", "LW", "source_J"):
        getattr(case, name)
    p = _Lazy(_BATCH, c=case)
    rows = []
    if p.V.shape[1] and p.H.shape[1]:
        keep = ~(np.max(np.abs(p.C), axis=2) <= 1e-12)  # (P, h): CX is not 0
        if keep.any():
            FJU, FCX = _push(p, p.JU), _push(p, p.C)
            rg = case.range_rg  # leaks are checked where a pair is kept
            rg.restrict_vector(FJU[keep.any(axis=1)])
            rg.restrict_vector(FCX[keep])
            block = list(rg.indices)
            lhs = pair_form(FJU[..., block], p.ric_range, FCX[..., block])
            rhs = 0.5 * r0 * pair_form(FJU, p.LWv, FCX)
            rows = _rows("ux", lhs, rhs, {"half_r_lie_W": rhs},
                         keep=np.broadcast_to(keep[:, None, :], lhs.shape))
    return _result("ric_lie", rows, ("horizontal_potential", "tg_horizontal") + _SOURCE)
