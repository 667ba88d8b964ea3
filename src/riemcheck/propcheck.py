"""Ricci-decomposition identities and theorem-level conclusions.

The left side of every identity comes from the ambient Ricci tensor
(geometry.ricci); the right side is assembled from *restricted* Ricci
tensors of induced metrics, Hessian/gradient terms, O'Neill-derivative
traces, shape-operator terms and normal-bundle curvature, none of which
touch the ambient Ricci.  Agreement is therefore evidence, not tautology.

The identities are data: one `TABLE` row each, run by `verify_identity`.
A row gives

- a pair family.  ``uu``, ``ux`` and ``xx`` pair the vertical (u) and
  horizontal (X) frames of `MapGeometry.split_at` at x, with Ric_M on the
  left; ``FF``, ``Fe`` and ``ee`` pair the declared range (F) and normal (e)
  frames at y = F(x), with Ric_N on the left.  ``uu``, ``xx``, ``FF`` and
  ``ee`` visit only the pairs a <= b;
- the symbolic ingredients, built in the listed order before the point loop,
  so the first missing piece (no dilation, no structure, frames that are not
  coordinate-aligned) is the exception the caller sees;
- the signed terms ``(report key, +1 or -1, term function)``.  A term
  function takes the per-point namespace and the two frame indices of the
  pair and returns the term's value; a subtracted term is reported with its
  positive value.  The right side is the first term, then every further term
  added or subtracted left to right;
- the hypothesis gates and whether a term follows an interpreted definition.

Both namespaces are filled lazily: the per-call one (`_CALL`: symbolic
tensors, restricted geometries, target calculus, derivative tapes) and the
per-point one (`_POINT`: the split, metric values, tensor values, J U, the
B/C split, target frame values).  Each row of a result is one pair at one
point with residual |lhs - rhs|; the worst row is the first non-finite
residual, else the first largest.  The two theorem-level checks keep their
own row formulas on the same namespaces and pair iterator.

Restricted Ricci tensors exist only for coordinate-aligned involutive
distributions: the induced metric is the coordinate submatrix with the
transverse coordinates frozen as parameters.  Anything else raises
UnsupportedDistribution.

Terms whose definition the source text leaves open (the pullback-derivative
of the shape operator, adjoint-map directions) follow the product-rule
interpretation documented on `TargetCalculus.nabla_tilde_S` and carry
``"interpreted": True`` in the result rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import Const, as_expr, differentiate
from .expr.tape import Tape
from .geometry import (
    Chart,
    GeometryError,
    MetricField,
    VectorField,
    covariant_derivative,
    divergence,
    gradient,
    hessian,
    lie_bracket,
    lie_derivative_metric,
    sym_einsum,
    worst,
)
from .rmap import MapGeometry, pushforward_field
from .soliton import (
    ClairautConfig,
    SolitonConfig,
    check_clairaut_source,
    check_clairaut_target,
    soliton_residual,
)
from .structure import (
    AlmostComplexStructure,
    anti_invariant_residual,
    bc_split,
    complement_frame_at,
    kahler_residual,
)


class UnsupportedDistribution(GeometryError):
    pass


def coordinate_alignment(frame_rows_per_point, tol=1e-9):
    """Indices of the coordinate block spanned by the given frame vectors;
    raises UnsupportedDistribution if the span is not a coordinate block of
    matching dimension at every point."""
    support = set()
    k = None
    for rows in frame_rows_per_point:
        if k is None:
            k = len(rows)
        elif len(rows) != k:
            raise UnsupportedDistribution("distribution dimension changes across points")
        for v in rows:
            support.update(int(i) for i in np.flatnonzero(np.abs(v) > tol))
    if k is None or k == 0:
        return ()
    if len(support) != k:
        raise UnsupportedDistribution(
            f"distribution spans coordinates {sorted(support)} but has dimension {k}; "
            "not coordinate-aligned")
    return tuple(sorted(support))


class RestrictedGeometry:
    """Intrinsic geometry of the integral submanifolds of a coordinate-
    aligned distribution: the induced metric is the coordinate submatrix
    with the transverse coordinates frozen as parameters."""

    def __init__(self, parent: MetricField, indices, name=None):
        self.parent = parent
        self.indices = tuple(int(i) for i in indices)
        n = parent.chart.dim
        if (any(i < 0 or i >= n for i in self.indices)
                or len(set(self.indices)) != len(self.indices)):
            raise UnsupportedDistribution(f"bad coordinate index subset {indices}")
        if not self.indices:
            raise UnsupportedDistribution("empty distribution has no intrinsic Ricci")
        others = [i for i in range(n) if i not in self.indices]
        coords = [parent.chart.coords[i] for i in self.indices]
        params = [parent.chart.coords[i] for i in others]
        chart = Chart(name or f"{parent.chart.name}|{'.'.join(coords)}",
                      coords, params=params)
        self.metric = MetricField(chart, parent.mat[np.ix_(self.indices, self.indices)])
        self._perm = list(self.indices) + others

    def reorder(self, parent_points) -> np.ndarray:
        return np.atleast_2d(parent_points)[:, self._perm]

    def ricci_values(self, parent_points) -> np.ndarray:
        return self.metric.ricci().values(self.reorder(parent_points))

    def scalar_values(self, parent_points) -> np.ndarray:
        s = self.metric.scalar_curvature()
        tape = Tape([s], self.metric.chart.allvars)
        return tape.evaluate(self.reorder(parent_points))[:, 0]

    def restrict_vector(self, v, tol=1e-8):
        """Components of v in the distribution block; errors if v sticks out."""
        v = np.asarray(v, dtype=float)
        out_block = [i for i in range(len(v)) if i not in self.indices]
        leak = float(np.max(np.abs(v[out_block]))) if out_block else 0.0
        if not leak <= tol * max(1.0, float(np.max(np.abs(v)))):
            raise UnsupportedDistribution(
                f"vector leaves the restricted block (leak {leak:.3e})")
        return v[list(self.indices)]


# -- symbolic field calculus on the target chart ------------------------------------

class TargetCalculus:
    """Symbolic vector-field operations on the target chart, memoized by the
    field objects they take (names only label the results, and two fields
    may share one); provides the shape-operator and normal-curvature pieces
    of the target-side identities."""

    def __init__(self, mg: MapGeometry, Jp: AlmostComplexStructure | None):
        self.mg = mg
        self.gN = mg.gN
        self.Jp = Jp
        self.PR, self.PP = mg.target_projectors()
        self._memo = {}

    def field(self, name, comps):
        return VectorField(self.gN.chart, comps, name=name)

    def _apply_matrix(self, tag, M, W: VectorField) -> VectorField:
        key = (tag, W)
        if key not in self._memo:
            comps = [self.gN._simp(e) for e in sym_einsum("ij,j->i", M, W.comps)]
            self._memo[key] = self.field(f"{tag}({W.name})", comps)
        return self._memo[key]

    def J(self, W):
        if self.Jp is None:
            raise UnsupportedDistribution("no target almost complex structure declared")
        return self._apply_matrix("J'", self.Jp.mat, W)

    def proj_range(self, W):
        return self._apply_matrix("Pr", self.PR, W)

    def proj_perp(self, W):
        return self._apply_matrix("Pp", self.PP, W)

    def cov(self, W, Z) -> VectorField:
        key = ("cov", W, Z)
        if key not in self._memo:
            out = covariant_derivative(self.gN, W, Z)
            out.name = f"cov({W.name},{Z.name})"
            self._memo[key] = out
        return self._memo[key]

    def nperp(self, W, D) -> VectorField:
        """Normal connection: P_perp(nabla_W D)."""
        return self.proj_perp(self.cov(W, D))

    def shape(self, D, V) -> VectorField:
        """S_D V = -P_range(nabla_V D) for normal D and range V."""
        key = ("S", D, V)
        if key not in self._memo:
            pr = self.proj_range(self.cov(V, D))
            comps = [self.gN._simp(Const(-1.0) * c) for c in pr.comps]
            self._memo[key] = self.field(f"S[{D.name}]({V.name})", comps)
        return self._memo[key]

    def nabla_tilde_S(self, W, D, V) -> VectorField:
        """(nabla~_W S)_D V by the product rule with the pullback connection:
        P_range nabla_W (S_D V) - S_{P_perp nabla_W D} V
        - S_D (P_range nabla_W V).  Interpreted term."""
        key = ("ntS", W, D, V)
        if key not in self._memo:
            a = self.proj_range(self.cov(W, self.shape(D, V)))
            b = self.shape(self.nperp(W, D), V)
            c = self.shape(D, self.proj_range(self.cov(W, V)))
            comps = [self.gN._simp(a.comps[i] - b.comps[i] - c.comps[i])
                     for i in range(self.gN.chart.dim)]
            self._memo[key] = self.field(f"ntS({W.name};{D.name};{V.name})", comps)
        return self._memo[key]

    def r_perp(self, W1, W2, D) -> VectorField:
        """Normal-bundle curvature R^{F perp}(W1, W2) D."""
        key = ("rperp", W1, W2, D)
        if key not in self._memo:
            a = self.nperp(W1, self.nperp(W2, D))
            b = self.nperp(W2, self.nperp(W1, D))
            br = lie_bracket(self.gN.chart, W1, W2)
            br.name = f"[{W1.name},{W2.name}]"
            c = self.nperp(br, D)
            comps = [self.gN._simp(a.comps[i] - b.comps[i] - c.comps[i])
                     for i in range(self.gN.chart.dim)]
            self._memo[key] = self.field(f"Rp({W1.name},{W2.name}){D.name}", comps)
        return self._memo[key]


# -- case ------------------------------------------------------------------------------

class PropositionCase:
    """Full configuration for identity checks; ingredients are built lazily
    and cached write-once."""

    def __init__(self, mg: MapGeometry, J=None, Jp=None, f=None, gfun=None,
                 eta: VectorField | None = None, theta: VectorField | None = None,
                 alpha=1.0, lam=0.0):
        self.mg = mg
        self.J = J
        self.Jp = Jp
        self.f = as_expr(f) if f is not None else None
        self.gfun = as_expr(gfun) if gfun is not None else None
        self.eta = eta
        self.theta = theta
        self.alpha = float(alpha)
        self.lam = lam
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def ric_M(self):
        return self._get("ricM", lambda: self.mg.gM.ricci())

    def ric_N(self):
        return self._get("ricN", lambda: self.mg.gN.ricci())

    def hess_f(self):
        if self.f is None:
            raise UnsupportedDistribution("case has no source dilation f")
        return self._get("hessf", lambda: hessian(self.mg.gM, self.f))

    def grad_f(self):
        if self.f is None:
            raise UnsupportedDistribution("case has no source dilation f")
        return self._get("gradf", lambda: gradient(self.mg.gM, self.f))

    def div_grad_f(self):
        return self._get("divgradf", lambda: divergence(self.mg.gM, self.grad_f()))

    def grad_g(self):
        if self.gfun is None:
            raise UnsupportedDistribution("case has no target dilation g")
        return self._get("gradg", lambda: gradient(self.mg.gN, self.gfun))

    def hess_g(self):
        return self._get("hessg", lambda: hessian(self.mg.gN, self.gfun))

    def restricted(self, part, points) -> RestrictedGeometry:
        """Restricted geometry of one part of the split: 'vertical' (the
        kernel, on M), 'range' or 'normal' (on N)."""
        g = self.mg.gM if part == "vertical" else self.mg.gN
        return self._get(part, lambda: RestrictedGeometry(g, coordinate_alignment(
            [getattr(self.mg.split_at(x), part) for x in np.atleast_2d(points)])))

    def tc(self) -> TargetCalculus:
        return self._get("tc", lambda: TargetCalculus(self.mg, self.Jp))

    def dims(self, x):
        sp = self.mg.split_at(x)
        return {"m": self.mg.gM.chart.dim, "n": self.mg.gN.chart.dim,
                "r0": len(sp.vertical), "h": len(sp.horizontal),
                "rank": len(sp.range), "n1": len(sp.normal)}

    # ---- hypothesis gates ----
    def gates(self, points, which, tol=1e-7):
        pts = np.atleast_2d(points)
        return {name: self._gate(name, pts, tol) for name in which}

    def _gate(self, name, pts, tol):
        mg = self.mg
        kind, _, side = name.rpartition("_")
        if kind in ("kahler", "anti_invariant", "lagrangian"):
            J = self.J if side == "source" else self.Jp
            if J is None:
                return (False, f"no {side} structure declared")
            if kind == "kahler":
                g, at = (mg.gM, pts) if side == "source" else (mg.gN, mg.F.values(pts))
                return _gate_value(kahler_residual(g, J, at), tol)
            if kind == "anti_invariant":
                per_point, degen = anti_invariant_residual(mg, J, pts, side)
                res = worst(per_point)[0]
                return (res <= tol and not degen, res)
            dims = [complement_frame_at(mg, J, x, side).shape[0] for x in pts[:5]]
            return (all(d == 0 for d in dims), max(dims))
        if name == "clairaut_source":
            if self.f is None:
                return (False, "no source dilation declared")
            res, _ = check_clairaut_source(ClairautConfig(mg, "source", self.f), pts)
            return _gate_value(res, tol)
        if name == "clairaut_target":
            if self.gfun is None:
                return (False, "no target dilation declared")
            sides = check_clairaut_target(ClairautConfig(mg, "target", self.gfun), pts)
            return _gate_value(np.ma.concatenate(sides), tol)
        if name == "totally_geodesic_map":
            S = mg.second_fundamental_form()
            per_point = []
            for x in pts:
                sp = mg.split_at(x)
                E = np.vstack([sp.vertical, sp.horizontal])
                GN = mg.gN.value_at(sp.y)
                vals = np.einsum("aij,ki,lj->kla", S.value_at(x), E, E)
                per_point.append(np.sqrt(np.max(np.abs(
                    np.einsum("kla,ab,klb->kl", vals, GN, vals)))))
            return _gate_value(per_point, tol)
        if name == "tg_horizontal":
            A = mg.oneill_A()
            per_point = []
            for x in pts:
                sp = mg.split_at(x)
                H = sp.horizontal
                GM = mg.gM.value_at(x)
                vals = np.einsum("kij,ai,bj->abk", A.value_at(x), H, H)
                per_point.append(np.sqrt(np.max(np.abs(
                    np.einsum("abk,kl,abl->ab", vals, GM, vals)))))
            return _gate_value(per_point, tol)
        if name == "tg_normal":
            tc = self.tc()
            ypts = mg.F.values(pts)
            return _gate_value([np.abs(tc.proj_range(tc.cov(ek, el)).values(ypts))
                                for ek in mg.frames.normal for el in mg.frames.normal], tol)
        if name == "vertical_potential":
            return self._potential_gate(pts, vertical=True, tol=tol)
        if name == "horizontal_potential":
            return self._potential_gate(pts, vertical=False, tol=tol)
        if name == "source_soliton":
            if self.eta is not None:
                cfg = SolitonConfig(mg.gM, xi=self.eta, alpha=self.alpha, lam=self.lam)
            elif self.f is not None:
                cfg = SolitonConfig(mg.gM, f=self.f, alpha=self.alpha, lam=self.lam)
            else:
                return (False, "no potential declared")
            return _gate_value(soliton_residual(cfg, points=pts), tol)
        if name == "kernel_nontrivial":
            d = self.dims(pts[0])
            return (d["r0"] > 0, d["r0"])
        raise GeometryError(f"unknown gate {name!r}")

    def _potential_gate(self, pts, vertical, tol):
        if self.eta is None:
            return (False, "no potential field declared")
        per_point, skipped = np.zeros(len(pts)), np.zeros(len(pts), dtype=bool)
        for idx, x in enumerate(pts):
            sp = self.mg.split_at(x)
            frame = sp.horizontal if vertical else sp.vertical
            if len(frame) == 0:
                skipped[idx] = True
                continue
            per_point[idx] = np.max(np.abs(np.einsum(
                "ai,ij,j->a", frame, self.mg.gM.value_at(x), self.eta.value_at(x))))
        return _gate_value(np.ma.masked_array(per_point, skipped), tol)


def _gate_value(residuals, tol):
    """(holds, value) of a gate measured by residuals over sample points."""
    res = worst(residuals)[0]
    return (res <= tol, res)


# -- namespaces -------------------------------------------------------------------------

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


def _source_J(c):
    if c.case.J is None:
        raise UnsupportedDistribution("no source almost complex structure declared")
    return c.case.J


def _lie_W(c):
    """L_W g_N for W = F_*(grad f), pushed through the declared section."""
    W = pushforward_field(c.mg.F, c.case.grad_f(), validate_points=c.pts[:5])
    W.name = "F*(grad f)"
    return lie_derivative_metric(c.mg.gN, W)


def _f_tape(c):
    """div grad f, then the partial derivatives of f."""
    chart = c.mg.gM.chart
    return Tape([c.case.div_grad_f()] + [differentiate(c.case.f, x) for x in chart.coords],
                chart.allvars)


# per call: symbolic ingredients shared by every point
_CALL = {
    "ric_M": lambda c: c.case.ric_M(),
    "ric_N": lambda c: c.case.ric_N(),
    "hess_f": lambda c: c.case.hess_f(),
    "grad_f": lambda c: c.case.grad_f(),
    "grad_g": lambda c: c.case.grad_g(),
    "hess_g": lambda c: c.case.hess_g(),
    "ker_rg": lambda c: c.case.restricted("vertical", c.pts),
    "range_rg": lambda c: c.case.restricted("range", c.pts),
    "perp_rg": lambda c: c.case.restricted("normal", c.pts),
    "A": lambda c: c.mg.oneill_A(),
    "NA": lambda c: c.mg.nabla_oneill("A"),
    "SFF": lambda c: c.mg.second_fundamental_form(),
    "f_tape": _f_tape,
    "g_tape": lambda c: Tape([differentiate(c.case.gfun, y) for y in c.mg.gN.chart.coords],
                             c.mg.gN.chart.allvars),
    "J": _source_J,
    "tc": lambda c: c.case.tc(),
    "JF": lambda c: [c.tc.J(f) for f in c.mg.frames.range],
    "PE": lambda c: [c.tc.proj_range(c.tc.J(e)) for e in c.mg.frames.normal],
    "QE": lambda c: [c.tc.proj_perp(c.tc.J(e)) for e in c.mg.frames.normal],
    "mr": lambda c: c.mg.gM.chart.dim - c.case.dims(c.pts[0])["r0"],
    "LW": _lie_W,
}

# per point: values at x, and at y = F(x) on the target
_POINT = {
    "sp": lambda p: p.c.mg.split_at(p.x),
    "V": lambda p: p.sp.vertical,
    "H": lambda p: p.sp.horizontal,
    "r0": lambda p: len(p.sp.vertical),
    "y": lambda p: p.c.mg.F.value_at(p.x),
    "GM": lambda p: p.c.mg.gM.value_at(p.x),
    "GN": lambda p: p.c.mg.gN.value_at(p.y),
    "Jac": lambda p: p.c.mg.F.jac_at(p.x),
    "ricM": lambda p: p.c.ric_M.value_at(p.x),
    "ricN": lambda p: p.c.ric_N.value_at(p.y),
    "Hf": lambda p: p.c.hess_f.value_at(p.x),
    "gf": lambda p: p.c.grad_f.value_at(p.x),
    "norm2_f": lambda p: float(p.gf @ p.GM @ p.gf),
    "f_aux": lambda p: p.c.f_tape.evaluate_at(p.x),
    "div_grad_f": lambda p: float(p.f_aux[0]),
    "df": lambda p: p.f_aux[1:],
    "gg": lambda p: p.c.grad_g.value_at(p.y),
    "norm2_g": lambda p: float(p.gg @ p.GN @ p.gg),
    "Hg": lambda p: p.c.hess_g.value_at(p.y),
    "hess_trace_g": lambda p: sum(float(e @ p.Hg @ e) for e in p.Ev),
    "dg": lambda p: p.c.g_tape.evaluate_at(p.y),
    "Av": lambda p: p.c.A.value_at(p.x),
    "NAv": lambda p: p.c.NA.value_at(p.x),
    "Sv": lambda p: p.c.SFF.value_at(p.x),
    "tau": lambda p: np.einsum("aij,ki,kj->a", p.Sv, p.H, p.H),
    # contractions that do not depend on the frame pair, as bilinear forms:
    # X @ divA @ Y = sum_a g((nabla_{u_a} A)(X, Y), u_a),
    # C @ NAH @ B = sum_a g((nabla_{X_a} A)(C, X_a), B),
    # U @ NAT @ B = sum_a g((nabla_{X_a} A)(X_a, U), B)
    "PH": lambda p: p.H.T @ p.H,
    "divA": lambda p: np.tensordot(p.GM @ (p.V.T @ p.V), p.NAv, axes=([0, 1], [0, 1])),
    "NAH": lambda p: np.einsum("klij,lj->ik", p.NAv, p.PH) @ p.GM,
    "NAT": lambda p: np.einsum("klij,li->jk", p.NAv, p.PH) @ p.GM,
    "AA": lambda p: _gram_form(np.einsum("kij,li->lkj", p.Av, p.H), p.GM),
    "AMU": lambda p: _gram_form(np.einsum("kij,aj->aki", p.Av, p.V), p.GM),
    "SS": lambda p: np.tensordot(np.einsum("aij,li->laj", p.Sv, p.H),
                                 p.GN @ np.einsum("aij,lj->lai", p.Sv, p.H),
                                 axes=([0, 1], [0, 1])),
    "ST": lambda p: np.tensordot(p.GN @ p.tau, p.Sv, axes=1),
    "ric_range": lambda p: p.c.range_rg.ricci_values(p.y[None, :])[0],
    "ric_ker": lambda p: p.c.ker_rg.ricci_values(p.x[None, :])[0],
    "ric_perp": lambda p: p.c.perp_rg.ricci_values(p.y[None, :])[0],
    "Jx": lambda p: p.c.J.value_at(p.x),
    "JU": lambda p: [p.Jx @ u for u in p.V],
    "BC": lambda p: [bc_split(p.Jx, X, p.V, p.GM) for X in p.H],
    "B": lambda p: [b for b, _ in p.BC],
    "C": lambda p: [c for _, c in p.BC],
    "Fv": lambda p: [f.value_at(p.y) for f in p.c.mg.frames.range],
    "Ev": lambda p: [e.value_at(p.y) for e in p.c.mg.frames.normal],
    "JFv": lambda p: [f.value_at(p.y) for f in p.c.JF],
    "PEv": lambda p: [f.value_at(p.y) for f in p.c.PE],
    "QEv": lambda p: [f.value_at(p.y) for f in p.c.QE],
    "LWv": lambda p: p.c.LW.values(p.y[None, :])[0],
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


def _call(case, points, ingredients):
    c = _Lazy(_CALL, case=case, mg=case.mg, pts=np.atleast_2d(points))
    for name in ingredients:
        getattr(c, name)
    return c


def _points(c):
    for i, x in enumerate(c.pts):
        yield _Lazy(_POINT, c=c, i=i, x=x)


def _pairs(p, family):
    """(a, b, pair labels) over the frame index pairs of a family at a point."""
    first, second, (la, lb), upper, _ = _FAMILIES[family]
    nb = len(getattr(p, second))
    for a in range(len(getattr(p, first))):
        for b in range(a if upper else 0, nb):
            yield a, b, (f"{la}{a + 1}", f"{lb}{b + 1}")


def _row(p, pair, lhs, rhs, terms):
    return {"point": p.i, "pair": pair, "lhs": lhs, "rhs": rhs,
            "residual": abs(lhs - rhs), "terms": terms}


def _result(ident, rows, gates, interpreted=False):
    if not rows:
        return {"id": ident, "gates": tuple(gates), "n_pairs": 0,
                "max_residual": 0.0, "worst": None, "rows": [],
                "vacuous": True, "interpreted": interpreted}
    top = rows[worst([r["residual"] for r in rows])[1]]
    return {"id": ident, "gates": tuple(gates), "n_pairs": len(rows),
            "max_residual": top["residual"], "worst": top, "rows": rows,
            "vacuous": False, "interpreted": interpreted}


# -- term helpers -------------------------------------------------------------------------

def _ric_block(rg, ric, P, Q):
    """Restricted Ricci of two vectors lying in the block of `rg`."""
    return float(rg.restrict_vector(P) @ ric @ rg.restrict_vector(Q))


def _ric_range(p, P, Q):
    """Ric^range(F_*P, F_*Q) for source vectors P, Q."""
    return _ric_block(p.c.range_rg, p.ric_range, p.Jac @ P, p.Jac @ Q)


def _gram_form(T, G):
    """Q[j, n] = sum_{a,k,m} T[a, k, j] G_km T[a, m, n]."""
    return np.tensordot(T, G @ T, axes=([0, 1], [0, 1]))


def _div_A(p, X, Y):
    """sum_j g((nabla_{u_j} A)(X, Y), u_j)."""
    if len(p.V) == 0:
        return 0.0
    return float(X @ p.divA @ Y)


def _hess_B(p, B, W):
    return -(p.r0 + 1) * float(B @ p.Hf @ W)


def _hess_C(p, P, Q):
    return -p.r0 * float(P @ p.Hf @ Q)


def _nabla_A_H(p, C, B):
    """-sum_a g((nabla_{X_a} A)(C, X_a), B)."""
    return -float(C @ p.NAH @ B)


def _grad_nperp(p, W, D):
    """(m - r) g_N(grad g, nperp_W D)."""
    return p.c.mr * float(p.gg @ p.GN @ p.c.tc.nperp(W, D).value_at(p.y))


def _nts_trace(p, D, X, reverse=False):
    """sum_j g((nabla~_X S)_D F_j, F_j), or with `reverse`
    -sum_j g((nabla~_{F_j} S)_D X, F_j)."""
    acc = 0.0
    for Fj, fv in zip(p.c.mg.frames.range, p.Fv):
        if reverse:
            acc -= float(p.c.tc.nabla_tilde_S(Fj, D, X).value_at(p.y) @ p.GN @ fv)
        else:
            acc += float(p.c.tc.nabla_tilde_S(X, D, Fj).value_at(p.y) @ p.GN @ fv)
    return acc


def _rperp_trace(p, W, D):
    """-sum_k g(R^perp(W, e_k) D, e_k)."""
    acc = 0.0
    for Ek, ev in zip(p.c.mg.frames.normal, p.Ev):
        acc -= float(p.c.tc.r_perp(W, Ek, D).value_at(p.y) @ p.GN @ ev)
    return acc


# -- the identities -----------------------------------------------------------------------

class Identity(NamedTuple):
    family: str
    ingredients: tuple
    terms: tuple
    gates: tuple
    interpreted: bool = False


# terms shared by several identities
_UV_RANGE = ("ric_range", +1, lambda p, a, b: _ric_range(p, p.JU[a], p.JU[b]))
_XY_KER = ("ric_ker", +1,
           lambda p, i, j: _ric_block(p.c.ker_rg, p.ric_ker, p.B[i], p.B[j]))
_XY_WARP = ("warp_trace", +1, lambda p, i, j: -(p.r0 * p.norm2_f + p.div_grad_f)
            * float(p.B[i] @ p.GM @ p.B[j]))
_XY_HESS = ("r_hess_CC", +1, lambda p, i, j: _hess_C(p, p.C[i], p.C[j]))
_XY_DF = ("r_CXf_CYf", +1,
          lambda p, i, j: -p.r0 * float(p.C[i] @ p.df) * float(p.C[j] @ p.df))
_XY_RANGE = ("ric_range", +1, lambda p, i, j: _ric_range(p, p.C[i], p.C[j]))
_FF_PERP = ("ric_perp", +1,
            lambda p, a, b: _ric_block(p.c.perp_rg, p.ric_perp, p.JFv[a], p.JFv[b]))
_FE_NTS = ("ntS_PE", +1, lambda p, a, k: _nts_trace(p, p.c.JF[a], p.c.PE[k]))
_FE_NTS_F = ("ntS_Fj", +1, lambda p, a, k: _nts_trace(p, p.c.JF[a], p.c.PE[k], True))
_FE_RPERP = ("r_perp", +1, lambda p, a, k: _rperp_trace(p, p.c.PE[k], p.c.JF[a]))
_EE_RANGE = ("ric_range_PP", +1,
             lambda p, k, l: _ric_block(p.c.range_rg, p.ric_range, p.PEv[k], p.PEv[l]))

_SOURCE = ("kahler_source", "anti_invariant_source", "clairaut_source")
_LSOURCE = ("lagrangian_source", "anti_invariant_source", "clairaut_source",
            "kahler_source")
_TARGET = ("kahler_target", "anti_invariant_target", "clairaut_target", "tg_normal")
_LTARGET = ("lagrangian_target", "anti_invariant_target", "clairaut_target",
            "kahler_target")

TABLE = {
    # Ric(U,V) = Ric^range(F_*JU, F_*JV) + r Hess f(JU, JV) - divA(JU, JV)
    "ric_uv": Identity("uu", ("range_rg", "ric_M", "hess_f", "NA", "J"), (
        _UV_RANGE,
        ("r_hess_f", +1, lambda p, a, b: p.r0 * float(p.JU[a] @ p.Hf @ p.JU[b])),
        ("div_A", -1, lambda p, a, b: _div_A(p, p.JU[a], p.JU[b])),
    ), _SOURCE),
    "ric_ux": Identity("ux", ("range_rg", "ric_M", "hess_f", "NA", "J"), (
        ("hess_BX_JU", +1, lambda p, a, i: _hess_B(p, p.B[i], p.JU[a])),
        ("div_A_JU_CX", +1, lambda p, a, i: _div_A(p, p.JU[a], p.C[i])),
        ("r_hess_JU_CX", +1, lambda p, a, i: _hess_C(p, p.JU[a], p.C[i])),
        ("ric_range", +1, lambda p, a, i: _ric_range(p, p.JU[a], p.C[i])),
        ("nablaA_frame_trace", +1, lambda p, a, i: float(p.JU[a] @ p.NAT @ p.B[i])),
    ), _SOURCE),
    "ric_xy": Identity("xx", ("range_rg", "ker_rg", "ric_M", "hess_f", "grad_f", "f_tape",
                              "A", "NA", "SFF", "J"), (
        _XY_KER,
        _XY_WARP,
        ("A_A", +1, lambda p, i, j: float(p.B[i] @ p.AA @ p.B[j])),
        _XY_HESS,
        _XY_DF,
        ("A_mu", +1, lambda p, i, j: float(p.C[i] @ p.AMU @ p.C[j]) if len(p.V) else 0.0),
        ("div_A_CC", +1, lambda p, i, j: _div_A(p, p.C[i], p.C[j])),
        _XY_RANGE,
        ("sff_sff", +1, lambda p, i, j: -float(p.C[j] @ p.SS @ p.C[i])),
        ("sff_tension", +1, lambda p, i, j: float(p.C[i] @ p.ST @ p.C[j])),
        ("hess_BX_CY", +1, lambda p, i, j: _hess_B(p, p.B[i], p.C[j])),
        ("nablaA_CY", +1, lambda p, i, j: _nabla_A_H(p, p.C[j], p.B[i])),
        ("hess_BY_CX", +1, lambda p, i, j: _hess_B(p, p.B[j], p.C[i])),
        ("nablaA_CX", +1, lambda p, i, j: _nabla_A_H(p, p.C[i], p.B[j])),
    ), _SOURCE),
    # Lagrangian reductions: Ric(U,V) = Ric^range(F_*JU, F_*JV), Ric(U,X) = 0,
    # Ric(X,Y) = Ric^ker(BX, BY)
    "lric_uv": Identity("uu", ("range_rg", "ric_M", "J"), (_UV_RANGE,), _LSOURCE),
    "lric_ux": Identity("ux", ("ric_M",), (), _LSOURCE),
    "lric_xy": Identity("xx", ("ker_rg", "ric_M", "J"), (_XY_KER,), _LSOURCE),
    # totally geodesic corollary: Ric(X,Y) = Ric^ker(BX,BY)
    # - (r |grad f|^2 + div grad f) g(BX,BY) - r Hess f(CX,CY)
    # + Ric^range(F_*CX, F_*CY) - r CX(f) CY(f)
    "cor_ric_xy": Identity("xx", ("range_rg", "ker_rg", "ric_M", "hess_f", "grad_f",
                                  "f_tape", "J"),
                           (_XY_KER, _XY_WARP, _XY_HESS, _XY_RANGE, _XY_DF),
                           ("totally_geodesic_map", "tg_horizontal", "anti_invariant_source",
                            "clairaut_source", "kahler_source")),
    # Ric(F_*X, F_*Y) = Ric^perp(J'F_*X, J'F_*Y) + (m - r) g_N(grad g, nperp J'F_*X J'F_*Y)
    "ric_fxfy": Identity("FF", ("tc", "perp_rg", "ric_N", "grad_g", "mr", "JF"), (
        _FF_PERP,
        ("grad_nperp", +1, lambda p, a, b: _grad_nperp(p, p.c.JF[a], p.c.JF[b])),
    ), _TARGET),
    "ric_fxe": Identity("Fe", ("tc", "perp_rg", "ric_N", "grad_g", "mr", "JF", "PE", "QE"), (
        ("ric_perp_Q", +1,
         lambda p, a, k: _ric_block(p.c.perp_rg, p.ric_perp, p.JFv[a], p.QEv[k])),
        _FE_NTS,
        _FE_NTS_F,
        ("grad_nperp", +1, lambda p, a, k: _grad_nperp(p, p.c.QE[k], p.c.JF[a])),
        _FE_RPERP,
    ), _TARGET, True),
    "ric_de": Identity("ee", ("tc", "range_rg", "perp_rg", "ric_N", "grad_g", "hess_g",
                              "g_tape", "mr", "PE", "QE"), (
        _EE_RANGE,
        ("warp_PP", +1, lambda p, k, l: -float(p.PEv[k] @ p.GN @ p.PEv[l])
         * (len(p.Ev) * p.norm2_g + p.hess_trace_g)),
        ("ntS_PD_QE", +1, lambda p, k, l: _nts_trace(p, p.c.QE[l], p.c.PE[k])),
        ("ntS_Fj_QE", +1, lambda p, k, l: _nts_trace(p, p.c.QE[l], p.c.PE[k], True)),
        ("rperp_PD_QE", +1, lambda p, k, l: _rperp_trace(p, p.c.PE[k], p.c.QE[l])),
        ("ntS_PE_QD", +1, lambda p, k, l: _nts_trace(p, p.c.QE[k], p.c.PE[l])),
        ("ntS_Fj_QD", +1, lambda p, k, l: _nts_trace(p, p.c.QE[k], p.c.PE[l], True)),
        ("rperp_PE_QD", +1, lambda p, k, l: _rperp_trace(p, p.c.PE[l], p.c.QE[k])),
        ("ric_perp_QQ", +1,
         lambda p, k, l: _ric_block(p.c.perp_rg, p.ric_perp, p.QEv[k], p.QEv[l])),
        ("warp_QQ", +1, lambda p, k, l: -p.c.mr * (float(p.QEv[k] @ p.dg)
                                                   * float(p.QEv[l] @ p.dg)
                                                   + float(p.QEv[k] @ p.Hg @ p.QEv[l]))),
    ), _TARGET, True),
    # Lagrangian reductions: Ric(F_*X, F_*Y) = Ric^perp(J'F_*X, J'F_*Y); only the
    # interpreted terms of the mixed identity survive; Ric(D, E) = Ric^range(PD, PE)
    "lric_fxfy": Identity("FF", ("tc", "perp_rg", "ric_N", "JF"), (_FF_PERP,), _LTARGET),
    "lric_fxe": Identity("Fe", ("tc", "ric_N", "JF", "PE"),
                         (_FE_NTS, _FE_NTS_F, _FE_RPERP), _LTARGET, True),
    "lric_de": Identity("ee", ("tc", "range_rg", "ric_N", "PE"), (_EE_RANGE,), _LTARGET),
}

IDENTITIES = TABLE


def verify_identity(case: PropositionCase, ident: str, points):
    """Run one TABLE identity at the points; returns the per-pair rows with a
    term breakdown, the worst row and its residual, and the gate names to
    evaluate."""
    try:
        row = TABLE[ident]
    except KeyError:
        raise GeometryError(f"unknown identity {ident!r}") from None
    c = _call(case, points, row.ingredients)
    first, second, _, _, ric = _FAMILIES[row.family]
    rows = []
    for p in _points(c):
        for a, b, pair in _pairs(p, row.family):
            lhs = float(getattr(p, first)[a] @ getattr(p, ric) @ getattr(p, second)[b])
            vals = [fn(p, a, b) for _, _, fn in row.terms]
            rhs = vals[0] if vals else 0.0
            for (_, sign, _), v in zip(row.terms[1:], vals[1:]):
                rhs = rhs + v if sign > 0 else rhs - v
            rows.append(_row(p, pair, lhs, rhs,
                             {key: v for (key, _, _), v in zip(row.terms, vals)}))
    return _result(ident, rows, row.gates, row.interpreted)


# -- theorem-level checks -----------------------------------------------------------------

def verify_alpha_soliton_on_range(case: PropositionCase, points):
    """Residual of  1/2 (L_W g_N) + (1/r) Ric^range + (lam/r) g_N  on the
    F_*(J ker) frame with W = F_*(grad f), plus the cross-pipeline
    bookkeeping that ties it to the source soliton residual."""
    pts = np.atleast_2d(points)
    r0 = case.dims(pts[0])["r0"]
    if r0 == 0:
        return {"id": "alpha_soliton_range", "vacuous": True, "n_pairs": 0,
                "max_residual": 0.0, "rows": [], "worst": None,
                "gates": ("kernel_nontrivial",), "alpha": None, "beta": None}
    c = _call(case, pts, ("range_rg", "LW", "ric_M", "hess_f", "NA", "J"))
    Leta = lie_derivative_metric(c.mg.gM, case.eta) if case.eta is not None else None
    lam = float(case.lam)
    alpha, beta = 1.0 / r0, lam / r0
    rows = []
    for p in _points(c):
        Letav = Leta.value_at(p.x) if Leta is not None else None
        for a, b, pair in _pairs(p, "uu"):
            U, V = p.V[a], p.V[b]
            JU, JV = p.JU[a], p.JU[b]
            FJU, FJV = p.Jac @ JU, p.Jac @ JV
            ric_rng = _ric_block(c.range_rg, p.ric_range, FJU, FJV)
            lie_term = 0.5 * float(FJU @ p.LWv @ FJV)
            ric_term = alpha * ric_rng
            met_term = beta * float(FJU @ p.GN @ FJV)
            range_residual = lie_term + ric_term + met_term
            # cross-pipeline bookkeeping
            lie_eta = 0.5 * float(U @ Letav @ V) if Letav is not None else 0.0
            ric_uv = float(U @ p.ricM @ V)
            S = lie_eta + case.alpha * ric_uv + lam * float(U @ p.GM @ V)
            t_div = _div_A(p, JU, JV)
            r_hess = r0 * float(JU @ p.Hf @ JV)
            ident_gap = ric_uv - (ric_rng + r_hess - t_div)
            push_gap = r_hess - 0.5 * r0 * float(FJU @ p.LWv @ FJV)
            metric_gap = lam * (float(U @ p.GM @ V) - float(FJU @ p.GN @ FJV))
            bookkeeping = abs(S - r0 * range_residual
                              - (lie_eta + ident_gap + push_gap - t_div + metric_gap))
            rows.append(_row(p, pair, range_residual, 0.0,
                             {"half_lie_W": lie_term, "alpha_ric_range": ric_term,
                              "beta_metric": met_term, "source_residual": S,
                              "identity_gap": ident_gap, "pushforward_gap": push_gap,
                              "div_A": t_div, "bookkeeping_gap": bookkeeping}))
    out = _result("alpha_soliton_range", rows,
                  ("source_soliton", "tg_horizontal", "kernel_nontrivial") + _SOURCE)
    out["alpha"], out["beta"] = alpha, beta
    return out


def verify_ric_lie_relation(case: PropositionCase, points, vacuous_tol=1e-12):
    """Ric^range(F_*JU, F_*CX) = (r/2)(L_{F_*(grad f)} g_N)(F_*JU, F_*CX)
    over (vertical, horizontal) pairs; vacuous when every CX vanishes
    (Lagrangian case)."""
    pts = np.atleast_2d(points)
    r0 = case.dims(pts[0])["r0"]
    c = _call(case, pts, ("range_rg", "LW", "J"))
    rows = []
    saw_mu = False
    for p in _points(c):
        for a, i, pair in _pairs(p, "ux"):
            CX = p.C[i]
            if float(np.max(np.abs(CX))) <= vacuous_tol:
                continue
            saw_mu = True
            FJU, FCX = p.Jac @ p.JU[a], p.Jac @ CX
            lhs = _ric_block(c.range_rg, p.ric_range, FJU, FCX)
            rhs = 0.5 * r0 * float(FJU @ p.LWv @ FCX)
            rows.append(_row(p, pair, lhs, rhs, {"half_r_lie_W": rhs}))
    out = _result("ric_lie", rows,
                  ("horizontal_potential", "tg_horizontal") + _SOURCE)
    out["vacuous"] = not saw_mu
    return out
