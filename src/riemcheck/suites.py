"""Suite runner: executes named checks against a resolved spec configuration
and assembles a CheckReport.

Checks listed under `suite` decide the exit status; checks listed under
`audit` run identically but only feed the discrepancy ledger.  Hypothesis
gates downgrade theorem-level checks to NOT-APPLICABLE instead of failing
them, and vacuously-true checks are flagged VACUOUS.
"""

from __future__ import annotations

import numpy as np

from .expr import backend_name
from .geometry import (
    ChartDomainError,
    GeometryError,
    function_at,
    geodesic_integrate,
    gnorm,
    matvec,
    on_pairs,
    orthonormal_frames,
    qform,
    ricci,
    tform,
    vdot,
    worst,
)
from .propcheck import (
    TABLE,
    PropositionCase,
    UnsupportedDistribution,
    verify_alpha_soliton_on_range,
    verify_identity,
    verify_ric_lie_relation,
)
from .report import (
    FAIL,
    NOT_APPLICABLE,
    PARTIAL,
    PASS,
    VACUOUS,
    CheckReport,
    CheckResult,
)
from .rmap import (
    FramesRequired,
    connection_on_pairs,
    fiber_mean_curvature,
    isometry_residual,
    umbilical_fit,
    vertical_frames,
)
from .soliton import (
    SolitonError,
    check_clairaut_source,
    check_clairaut_target,
    check_conformal,
    fit_einstein,
    scalar_relation,
    solve_lambda,
    soliton_residual,
)
from .specfile import SpecConfig, SpecError
from .structure import (
    anti_invariant_residual,
    hermitian_residual,
    kahler_residual,
    square_residual,
)


class _Ctx:
    """Everything a check needs, built lazily and shared across checks."""

    def __init__(self, cfg: SpecConfig, seed, npoints, tol, box):
        self.cfg = cfg
        self.seed = seed
        self.npoints = npoints
        self.tol = tol
        self.box = box
        self.F = cfg.the_map()
        self.chart = cfg.check_chart()
        self.g = cfg.metrics[self.chart.name]
        try:
            self.points = self.chart.sample_points(npoints, seed=seed, box=box)
        except ChartDomainError as exc:
            raise SpecError(f"chart {self.chart.name}, box {list(box)}: {exc}") from exc
        self.mg = cfg.map_geometry()
        self.J = cfg.structure_on(self.chart.name)
        self.Jp = (cfg.structure_on(self.F.target.name)
                   if self.F is not None else None)
        self._case = None

    def soliton_config(self):
        sol = self.cfg.check["soliton"]
        if sol is None:
            raise SpecError("check needs a 'soliton ...' line")
        return sol

    def case(self) -> PropositionCase:
        if self._case is None:
            if self.mg is None:
                raise SpecError("identity checks need a map")
            sol, clairaut = self.cfg.check["soliton"], self.cfg.check["clairaut"]
            self._case = PropositionCase(
                self.mg, self.points, J=self.J, Jp=self.Jp, f=clairaut.get("source"),
                gfun=clairaut.get("target"), eta=sol.xi if sol else None,
                u=sol.f if sol else None, alpha=sol.alpha if sol else 1.0,
                lam=sol.lam if sol and sol.lam != "solve" else 0.0)
        return self._case

    def worst_point(self, index):
        if index is None:
            return None
        return {"index": int(index),
                "coords": [float(v) for v in self.points[index]]}

    def need_map(self, ident):
        if self.mg is None:
            raise SpecError(f"check {ident!r} needs a map declaration")
        return self.mg


def _verdict(residual, tol):
    return PASS if residual <= tol else FAIL


def _pointwise(ctx, ident, residuals, terms=None, notes=(), locate=True):
    """CheckResult of per-point residuals over the sample points: one array,
    or a dict of arrays by side or term, each of whose worst value becomes
    the term of that name.

    The value and the worst point are those of the worst side, as
    geometry.worst picks them, so a non-finite residual wins and FAILs.
    Each side with non-finite residuals gets a note with their count and
    first point.  `locate=False` leaves the worst point out of the result,
    for the checks whose reports never had one (hermitian, oneill)."""
    sides = residuals if isinstance(residuals, dict) else {None: residuals}
    reduced = [worst(r) for r in sides.values()]
    terms, notes = dict(terms or {}), list(notes)
    for name, r, (value, index, n_bad) in zip(sides, sides.values(), reduced):
        if name is not None:
            terms[name] = value
        if n_bad:
            notes.append(f"{name + ': ' if name else ''}non-finite residual at "
                         f"{n_bad} of {len(r)} points, first at index {index}")
    value, index, _ = reduced[worst([v for v, _, _ in reduced])[1]]
    return CheckResult(ident, _verdict(value, ctx.tol), value, ctx.tol,
                       ctx.worst_point(index) if locate else None, terms,
                       notes=notes)


# -- individual checks -----------------------------------------------------------------

def check_metric(ctx):
    ctx.g.check_spd(ctx.points)
    notes = []
    if ctx.mg is not None:
        ctx.mg.validate_frames(ctx.points)
        notes.append(f"jacobian rank {ctx.mg.require_constant_rank(ctx.points)} "
                     "at all samples")
    if ctx.F is not None:
        gN = ctx.cfg.metrics[ctx.F.target.name]
        gN.check_spd(ctx.F.values(ctx.points))
    return CheckResult("metric", PASS, 0.0, ctx.tol, notes=notes)


def check_riemannian_map(ctx):
    ctx.need_map("riemannian_map")
    res = isometry_residual(ctx.mg, ctx.points)
    if ctx.mg.split(ctx.points).horizontal.shape[1] == 0:
        return CheckResult("riemannian_map", VACUOUS, 0.0, ctx.tol,
                           notes=["no horizontal directions (degenerate)"])
    return _pointwise(ctx, "riemannian_map", res)


def check_anti_invariant(ctx):
    sides, notes = {}, []
    if ctx.mg is not None:
        for side, J, empty in (("source", ctx.J, "kernel"), ("target", ctx.Jp, "range")):
            if J is None:
                continue
            res, degen = anti_invariant_residual(ctx.mg, J, ctx.points, side)
            if degen:
                notes.append(f"{side} side degenerate (empty {empty})")
            else:
                sides[side] = res
    if not sides:
        return CheckResult("anti_invariant", VACUOUS, None, ctx.tol,
                           notes=notes or ["no structure declared"])
    return _pointwise(ctx, "anti_invariant", sides, notes=notes)


def check_hermitian(ctx):
    sides = {}
    if ctx.J is not None:
        sides["source_square"] = square_residual(ctx.J, ctx.points)
        sides["source_metric"] = hermitian_residual(ctx.g, ctx.J, ctx.points)
    if ctx.Jp is not None and ctx.F is not None:
        ypts = ctx.F.values(ctx.points)
        gN = ctx.cfg.metrics[ctx.F.target.name]
        sides["target_square"] = square_residual(ctx.Jp, ypts)
        sides["target_metric"] = hermitian_residual(gN, ctx.Jp, ypts)
    if not sides:
        return CheckResult("hermitian", VACUOUS, None, ctx.tol,
                           notes=["no structure declared"])
    return _pointwise(ctx, "hermitian", sides, locate=False)


def check_kahler(ctx):
    sides = {}
    if ctx.J is not None:
        sides["source"] = kahler_residual(ctx.g, ctx.J, ctx.points)
    if ctx.Jp is not None and ctx.F is not None:
        gN = ctx.cfg.metrics[ctx.F.target.name]
        sides["target"] = kahler_residual(gN, ctx.Jp, ctx.F.values(ctx.points))
    if not sides:
        return CheckResult("kahler", VACUOUS, None, ctx.tol,
                           notes=["no structure declared"])
    return _pointwise(ctx, "kahler", sides)


def check_clairaut_source_id(ctx):
    ctx.need_map("clairaut_source")
    f = ctx.cfg.check["clairaut"].get("source")
    if f is None:
        raise SpecError("clairaut_source needs 'clairaut source FUNC'")
    res, umb = check_clairaut_source(ctx.mg, f, ctx.points)
    return _pointwise(ctx, "clairaut_source", res, {"umbilic_fibers": worst(umb)[0]})


def check_clairaut_target_id(ctx):
    ctx.need_map("clairaut_target")
    gfun = ctx.cfg.check["clairaut"].get("target")
    if gfun is None:
        raise SpecError("clairaut_target needs 'clairaut target FUNC'")
    shape, umb = check_clairaut_target(ctx.mg, gfun, ctx.points)
    return _pointwise(ctx, "clairaut_target", {"shape_operator": shape, "umbilical": umb})


def check_umbilical(ctx):
    ctx.need_map("umbilical")
    res, Hs = umbilical_fit(ctx.mg, ctx.points)
    wp = worst(res)[1] or 0  # no horizontal space anywhere: point 0, where H' = 0
    return _pointwise(ctx, "umbilical", res,
                      {"fitted_H_at_worst": [float(v) for v in Hs[wp]]})


def check_oneill(ctx):
    ctx.need_map("oneill")
    mg = ctx.mg
    sp = mg.split(ctx.points)
    V, H, GM, GN = sp.vertical, sp.horizontal, sp.GM, sp.GN
    Tv, Av = mg.oneill_T(sp.x), mg.oneill_A(sp.x)
    fr = mg.frames
    P, n = len(sp.x), mg.gM.chart.dim
    at = {}  # every value of each term, (P, ...) arrays

    # three random (E, G1, G2) triples per point, drawn point by point
    E, G1, G2 = np.moveaxis(np.random.default_rng(ctx.seed + 1).normal(size=(P, 3, 3, n)), 2, 0)
    for key, Op in (("T_skew", Tv), ("A_skew", Av)):
        lhs = qform(tform(Op[:, None], E, G1), GM[:, None], G2)
        rhs = qform(tform(Op[:, None], E, G2), GM[:, None], G1)
        at[key] = np.abs(lhs + rhs)
    tv = on_pairs(Tv, V)
    at["T_vertical_sym"] = np.abs(tv - tv.transpose(0, 2, 1, 3))
    av = on_pairs(Av, H)
    at["A_horizontal_antisym"] = np.abs(av + av.transpose(0, 2, 1, 3))
    gam = mg.gM.at(sp.x).gam
    for key, which, F, Op in (("lemma1_vertical", "vertical", V, Tv),
                              ("lemma1_horizontal", "horizontal", H, Av)):
        # nabla_{F_a} F_b = its O'Neill part + its projection on span F
        if not getattr(fr, which):
            at[key] = np.zeros((P, 0))
            continue
        full = connection_on_pairs(gam, mg.frame_jet(which, sp.x))  # (P, a, b, n)
        coef = qform(F[:, None, None], GM[:, None, None, None], full[..., None, :])
        proj = matvec(F.swapaxes(1, 2)[:, None, None], coef)
        at[key] = np.abs(full - on_pairs(Op, F) - proj)
    at["shape_duality"] = np.zeros((P, 0))
    if fr.normal:
        push = np.matmul(sp.Jac, H.transpose(0, 2, 1)).transpose(0, 2, 1)
        sffH = on_pairs(mg.second_fundamental_form(sp.x), H)
        SX = np.matmul(push[:, None], mg.shape_tensors(sp.x).swapaxes(-1, -2))  # S_D F_*X_k
        lhs = qform(SX[:, :, :, None], GN[:, None, None, None], push[:, None, None])
        rhs = qform(sp.normal[:, :, None, None], GN[:, None, None, None], sffH[:, None])
        at["shape_duality"] = np.abs(lhs - rhs)
    per_point = {k: np.max(v.reshape(P, -1), axis=1, initial=0.0) for k, v in at.items()}
    return _pointwise(ctx, "oneill", per_point, locate=False)


def check_soliton(ctx):
    cfg, restriction = ctx.soliton_config(), ctx.cfg.check["restrict"]
    terms = {"lambda": cfg.lam}
    if cfg.lam == "solve":
        lam, spread, _ = solve_lambda(cfg, restriction, ctx.points)
        terms = {"lambda": lam, "spread": spread}
    res = soliton_residual(cfg, restriction, ctx.points, lam=terms["lambda"])
    return _pointwise(ctx, "soliton", res, terms)


def check_soliton_solve(ctx):
    cfg, restriction = ctx.soliton_config(), ctx.cfg.check["restrict"]
    lam, spread, per_sample = solve_lambda(cfg, restriction, ctx.points)
    terms = {"lambda": lam, "spread": spread,
             "per_sample_first": [float(v) for v in per_sample[:6]]}
    expected = ctx.cfg.check["expect_lambda"]
    notes = []
    verdict = _verdict(spread, max(ctx.tol, 1e-9))
    if expected is not None:
        terms["expected_lambda"] = expected
        if abs(lam - expected) > max(ctx.tol, 1e-6 * abs(expected)):
            verdict = FAIL
            notes.append(f"fitted lambda {lam:.6g} differs from stated "
                         f"{expected:.6g}")
    return CheckResult("soliton_solve", verdict, spread, ctx.tol,
                       terms=terms, notes=notes)


def check_einstein_full(ctx):
    ric = ricci(ctx.g, ctx.points)
    gv = ctx.g.values(ctx.points)
    lam, res = fit_einstein(ric, gv, orthonormal_frames(gv, ctx.points))
    return CheckResult("einstein", _verdict(res, ctx.tol), res, ctx.tol,
                       terms={"lambda": lam})


def _einstein_check(ident, part, restricted):
    """The check `ident`: Einstein fit of the restricted Ricci (the case's
    ingredient `restricted`) of the 'vertical', 'range' or 'normal' part of
    the split."""
    def run(ctx):
        rg = getattr(ctx.case(), restricted)
        sp = ctx.mg.split(ctx.points)
        m = rg.at(sp.x if part == "vertical" else sp.y)
        lam, res = fit_einstein(m.ricci, m.G, rg.restrict_vector(getattr(sp, part)))
        return CheckResult(ident, _verdict(res, ctx.tol), res, ctx.tol,
                           terms={"lambda": lam})
    return run


def check_conformal_id(ctx):
    X = ctx.cfg.check["conformal"]  # a field, or a potential function u: X = grad u
    if X is None:
        raise SpecError("conformal check needs a 'conformal ...' line")
    phis, res = check_conformal(ctx.g, X, ctx.cfg.check["restrict"], ctx.points)
    return _pointwise(ctx, "conformal", res, {"phi_first": [float(v) for v in phis[:6]]})


def check_ricci_values(ctx):
    expects = ctx.cfg.check["expect_ricci"]
    if not expects:
        raise SpecError("ricci_values needs 'expect ricci A B VALUE' lines")
    pts = ctx.points
    ric = ricci(ctx.g, pts)

    def values(X):  # a declared frame field reads its frame list's jets
        return X.values(pts) if ctx.mg is None else ctx.mg.field_values([X], pts)[:, 0]
    rows, gaps = [], []
    for (Xa, Xb, stated) in expects:
        vals = qform(values(Xa), ric, values(Xb))
        engine = float(np.mean(vals))
        spread = float(np.max(np.abs(vals - engine)))
        match = ("as-is" if abs(engine - stated) <= ctx.tol else
                 "sign-flipped" if abs(-engine - stated) <= ctx.tol else "none")
        gaps.append(min(abs(engine - stated), abs(engine + stated)))
        rows.append({"pair": [Xa.name, Xb.name], "stated": stated, "engine": engine,
                     "engine_spread": spread, "matches": match})
    verdict = PASS if all(r["matches"] == "as-is" for r in rows) else FAIL
    notes = [f"{r['pair'][0]},{r['pair'][1]}: stated {r['stated']:g} vs "
             f"engine {r['engine']:.6g} ({r['matches']})" for r in rows]
    return CheckResult("ricci_values", verdict, worst(gaps)[0], ctx.tol,
                       terms={"entries": rows}, notes=notes)


# per scalar relation: the restricted geometry whose scalar curvature is its
# left side, and the gates it needs
_SCALAR_RELATION_INPUTS = {
    "range_soliton": ("range_rg", ("lagrangian_source", "clairaut_source", "source_soliton")),
    "ker_einstein": ("ker_rg", ("lagrangian_source", "vertical_potential", "clairaut_source",
                                "source_soliton")),
    "rangeperp_einstein": ("perp_rg", ("lagrangian_target", "clairaut_target")),
    "range_lagrangian": ("range_rg", ("lagrangian_target", "clairaut_target")),
}


def check_scalar_relations(ctx):
    case = ctx.case()
    d, sp = case.dims, ctx.mg.split(ctx.points)
    inputs = {"lam": case.lam, "r0": d["r0"], "n1": d["n1"], "m": d["m"], "Dg": 0.0}
    terms, gaps = {}, []
    for which, (part, gates_needed) in _SCALAR_RELATION_INPUTS.items():
        try:
            gates = case.gates(gates_needed)
        except (UnsupportedDistribution, GeometryError, SolitonError) as exc:
            terms[which] = {"verdict": NOT_APPLICABLE, "note": str(exc)}
            continue
        try:
            svals = getattr(case, part).at(sp.x if part == "ker_rg" else sp.y).scalar
        except (UnsupportedDistribution, GeometryError) as exc:
            terms[which] = {"verdict": PARTIAL, "note": f"restricted scalar unavailable: {exc}"}
            continue
        lhs, rhs, gap = scalar_relation(which, svals, inputs)
        dmax = worst(gap)[0]
        gates_ok = all(ok for ok, _ in gates.values())
        terms[which] = {"verdict": _verdict(dmax, ctx.tol) if gates_ok else NOT_APPLICABLE,
                        "lhs_first": float(lhs[0]), "rhs": rhs, "max_gap": dmax,
                        "gates": {k: [bool(ok), v] for k, (ok, v) in gates.items()}}
        if gates_ok:
            gaps.append(dmax)
    overall = [t["verdict"] for t in terms.values()]
    if any(v == FAIL for v in overall):
        verdict = FAIL
    elif all(v == NOT_APPLICABLE for v in overall):
        verdict = NOT_APPLICABLE
    elif any(v == PARTIAL for v in overall):
        verdict = PARTIAL
    else:
        verdict = PASS
    return CheckResult("scalar_relations", verdict, worst(gaps)[0], ctx.tol, terms=terms)


def clairaut_invariant(mg, f, xs, vs) -> np.ndarray:
    """e^f sin(theta) at each trajectory point (xs[p], vs[p]), theta being the
    angle between the velocity and the horizontal space; a Clairaut map
    keeps it constant along every geodesic.  sin(theta)^2 is the squared
    vertical part of v over g_M(v, v).  The tapes are read through
    `Jets.evaluate`, which keeps none of the trajectory's arrays."""
    P, n = xs.shape
    G = mg.gM.jets.evaluate(xs)[0].reshape(P, n, n)
    if mg.frames.vertical:
        U = np.stack([u.jets.evaluate(xs)[0] for u in mg.frames.vertical], axis=1)
    else:
        J = mg.F.jets.evaluate(xs, 1)[1].swapaxes(1, 2)  # J[p, a, i] = d_i F^a
        U = vertical_frames(xs, G, np.ascontiguousarray(J))
    coef = qform(U, G[:, None], vs[:, None])  # g_M(u_a, v)
    return (np.exp(mg.gM.function_jets(f).evaluate(xs)[0][:, 0])
            * np.sqrt(vdot(coef, coef) / qform(vs, G, vs)))


def check_geodesic(ctx):
    geo = ctx.cfg.check["geodesic"]
    if geo is None:
        raise SpecError("geodesic check needs a 'geodesic ...' line")
    for key in ("from", "dir"):
        if len(geo.get(key, ())) != ctx.chart.dim:
            raise SpecError(f"geodesic {key} needs {ctx.chart.dim} values, the dimension of chart "
                            f"{ctx.chart.name}; got {len(geo[key]) if key in geo else 'none'}")
    traj = geodesic_integrate(ctx.g, np.array(geo["from"]), np.array(geo["dir"]),
                              t_end=geo.get("t", 10.0), dt=geo.get("dt", 1e-3))
    terms = {"energy_drift": traj.energy_drift, "halvings": traj.halvings}
    drifts, notes = [traj.energy_drift], []
    energy_tol, clairaut_tol = 1e-8, 1e-6
    verdict = PASS if traj.energy_drift <= energy_tol else FAIL
    if traj.unconverged:
        verdict = FAIL
        notes.append(f"{traj.unconverged} steps still drift above the energy "
                     "tolerance after 12 halvings")
    if geo.get("monitor") == "clairaut":
        f = ctx.cfg.check["clairaut"].get("source")
        if f is None or ctx.mg is None:
            raise SpecError("clairaut monitor needs a map and 'clairaut source F'")
        inv = clairaut_invariant(ctx.mg, f, traj.xs, traj.vs)
        top, first, n_bad = worst(inv)
        drift = top - float(np.min(inv))
        if n_bad:
            notes.append(f"non-finite Clairaut invariant at {n_bad} of {len(inv)} "
                         f"trajectory points, first at t={traj.times[first]:.6g}")
        terms["clairaut_invariant_drift"] = drift
        terms["clairaut_invariant_mean"] = float(np.mean(inv))
        if not drift <= clairaut_tol:
            verdict = FAIL
        drifts.append(drift)
    return CheckResult("geodesic", verdict, worst(drifts)[0], ctx.tol, terms=terms,
                       notes=notes)


def check_fiber_curvature(ctx):
    """Consistency of the fiber mean curvature with -grad f (the Clairaut
    source condition restated)."""
    ctx.need_map("fiber_curvature")
    f = ctx.cfg.check["clairaut"].get("source")
    if f is None:
        raise SpecError("fiber_curvature needs 'clairaut source FUNC'")
    diff = fiber_mean_curvature(ctx.mg, ctx.points) + function_at(ctx.g, f, ctx.points).grad
    return _pointwise(ctx, "fiber_curvature", gnorm(diff, ctx.g.values(ctx.points)))


def _identity_check(ident):
    def run(ctx):
        case = ctx.case()
        if ident == "alpha_soliton_range":
            res = verify_alpha_soliton_on_range(case)
        elif ident == "ric_lie":
            res = verify_ric_lie_relation(case)
        else:
            res = verify_identity(case, ident)
        gates = case.gates(res["gates"])
        gates_ok = all(ok for ok, _ in gates.values())
        gate_terms = {k: [bool(ok), v if isinstance(v, str) else float(v)]
                      for k, (ok, v) in gates.items()}
        terms = {"gates": gate_terms, "n_pairs": res["n_pairs"]}
        if res.get("interpreted"):
            terms["interpreted"] = True
        top = res["worst"]
        wp = None
        if top is not None:
            terms["worst_pair"] = list(top["pair"])
            terms["lhs"] = top["lhs"]
            terms["rhs"] = top["rhs"]
            terms["term_breakdown"] = top["terms"]
            wp = ctx.worst_point(top["point"])
        if res.get("vacuous"):
            verdict = VACUOUS
        elif not gates_ok:
            verdict = NOT_APPLICABLE
        else:
            verdict = _verdict(res["max_residual"], ctx.tol)
        return CheckResult(ident, verdict, res["max_residual"], ctx.tol,
                           wp, terms)
    return run


CHECKS = {
    "metric": check_metric,
    "riemannian_map": check_riemannian_map,
    "anti_invariant": check_anti_invariant,
    "hermitian": check_hermitian,
    "kahler": check_kahler,
    "clairaut_source": check_clairaut_source_id,
    "clairaut_target": check_clairaut_target_id,
    "umbilical": check_umbilical,
    "oneill": check_oneill,
    "soliton": check_soliton,
    "soliton_solve": check_soliton_solve,
    "einstein": check_einstein_full,
    "einstein_ker": _einstein_check("einstein_ker", "vertical", "ker_rg"),
    "einstein_range": _einstein_check("einstein_range", "range", "range_rg"),
    "einstein_perp": _einstein_check("einstein_perp", "normal", "perp_rg"),
    "conformal": check_conformal_id,
    "ricci_values": check_ricci_values,
    "scalar_relations": check_scalar_relations,
    "geodesic": check_geodesic,
    "fiber_curvature": check_fiber_curvature,
}
for _ident in list(TABLE) + ["alpha_soliton_range", "ric_lie"]:
    CHECKS[_ident] = _identity_check(_ident)


def run_suite(cfg: SpecConfig, suite=None, points=None, seed=None, tol=None) -> CheckReport:
    """Execute the configured (or overridden) checks and assemble the report.

    Overriding `suite` replaces the spec's suite list and drops its audits
    (explicitly requested checks are pass/fail)."""
    ck = cfg.check
    seed = ck["seed"] if seed is None else seed
    npoints = ck["points"] if points is None else points
    if npoints < 1:
        raise SpecError(f"points {npoints}: at least one sample point is needed")
    tol = ck["tol"] if tol is None else tol
    if not (np.isfinite(tol) and tol >= 0.0):
        raise SpecError(f"tol {tol}: the tolerance must be finite and at least 0")
    lo, hi = ck["box"]
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise SpecError(f"box {lo} {hi}: the bounds must be finite, the first below the second")
    ctx = _Ctx(cfg, seed, npoints, tol, ck["box"])
    report = CheckReport(cfg.name, seed, npoints, tol, ck["box"], backend_name())

    if suite is not None:
        todo = [(s, "suite") for s in suite]
    else:
        todo = [(s, "suite") for s in ck["suite"]] + \
               [(s, "audit") for s in ck["audit"]]
    seen = set()
    for ident, mode in todo:
        if (ident, mode) in seen:
            continue
        seen.add((ident, mode))
        if ident not in CHECKS:
            raise SpecError(f"unknown check id {ident!r}")
        try:
            result = CHECKS[ident](ctx)
        except (FramesRequired, UnsupportedDistribution) as exc:
            result = CheckResult(ident, PARTIAL, None, tol,
                                 notes=[f"unavailable: {exc}"])
        except (GeometryError, np.linalg.LinAlgError, ArithmeticError) as exc:
            result = CheckResult(ident, FAIL, None, tol,
                                 notes=[f"error: {exc}"])
            report.errors.append(f"{ident}: {exc}")
        result.mode = mode
        report.add(result)
        # every discrepancy is ledgered: audit outcomes that are not clean
        # passes, and failing suite checks (which still decide the exit code)
        ledger_worthy = (result.verdict == FAIL
                         or (mode == "audit"
                             and result.verdict in (NOT_APPLICABLE, PARTIAL)))
        if ledger_worthy:
            summary = result.notes[0] if result.notes else (
                f"verdict {result.verdict}"
                + (f", residual {result.max_residual:.3e}"
                   if result.max_residual is not None else ""))
            report.add_ledger(ident, summary,
                              {"verdict": result.verdict,
                               "max_residual": result.max_residual,
                               "terms": result.terms,
                               "gates": result.gates})
    return report
