"""The stacked frame-pair contractions of the soliton, Einstein, conformal and
Kaehler checks against the per-point loops they replaced, which are kept
here as the reference.  On random stacks drawn by hypothesis and on every
catalog entry with a NaN sample point, each function agrees with its loop:
NaN at the same places, raised errors of the same type and message, and
every other value within 1e-12 of the largest value of its result.  The
frame contractions of `geometry` they are written with are checked the same
way against per-point einsums, and the O'Neill check makes no einsum of
four or more operands."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemcheck import geometry, soliton, structure
from riemcheck.catalog import load, names
from riemcheck.geometry import GeometryError, orthonormal_frames, ricci
from riemcheck.report import PASS
from riemcheck.suites import _Ctx, run_suite


# -- the per-point loops -------------------------------------------------------------

def loop_pair_frames(g, points, restriction):
    pts = np.atleast_2d(points)
    if restriction:
        return pts, [np.array([f.values(x)[0] for f in restriction]) for x in pts]
    return pts, orthonormal_frames([g.values(x)[0] for x in pts], pts)


def loop_soliton_residual(cfg, restriction, points, lam):
    pts, frames = loop_pair_frames(cfg.g, points, restriction)
    L, R, G = cfg.term_values(pts)
    E = L + R + float(lam) * G
    return np.array([np.max(np.abs(np.einsum("ai,ij,bj->ab", fr, E[p], fr)), initial=0.0)
                     for p, fr in enumerate(frames)])


def loop_solve_lambda(cfg, restriction, points):
    pts, frames = loop_pair_frames(cfg.g, points, restriction)
    L, R, G = cfg.term_values(pts)
    nums, dens = [], []
    for p, fr in enumerate(frames):
        nums.append(np.einsum("ai,ij,bj->ab", fr, L[p] + R[p], fr).ravel())
        dens.append(np.einsum("ai,ij,bj->ab", fr, G[p], fr).ravel())
    num = np.concatenate(nums)
    den = np.concatenate(dens)
    mask = np.abs(den) > 1e-8
    if not np.any(mask):
        raise soliton.SolitonError(
            "solve_lambda: all sampled g(X,Y) vanish (underdetermined)")
    lam = -float(num[mask] @ den[mask]) / float(den[mask] @ den[mask])
    per_sample = -num[mask] / den[mask]
    return lam, float(np.max(np.abs(per_sample - lam))), per_sample


def loop_fit_einstein(ric_vals, g_vals, frame_rows):
    rs, gs = [], []
    for p in range(len(ric_vals)):
        fr = frame_rows[p]
        rs.append(np.einsum("ai,ij,bj->ab", fr, ric_vals[p], fr).ravel())
        gs.append(np.einsum("ai,ij,bj->ab", fr, g_vals[p], fr).ravel())
    r = np.concatenate(rs)
    g = np.concatenate(gs)
    denom = float(g @ g)
    if denom < 1e-20:
        raise soliton.SolitonError("fit_einstein: degenerate restriction")
    lam = -float(r @ g) / denom
    return lam, float(np.max(np.abs(r + lam * g)))


def loop_check_conformal(g, X, restriction, points):
    pts, frames = loop_pair_frames(g, points, restriction)
    Lv = soliton.lie_derivative(g, X, pts)
    Gv = g.values(pts)
    phis, residual = [], []
    for p, fr in enumerate(frames):
        lv = np.einsum("ai,ij,bj->ab", fr, Lv[p], fr)
        gv = np.einsum("ai,ij,bj->ab", fr, Gv[p], fr)
        denom = float(np.sum(gv * gv))
        phi = float(np.sum(lv * gv)) / denom if denom > 1e-20 else 0.0
        phis.append(phi)
        residual.append(np.max(np.abs(lv - phi * gv)))
    return np.array(phis), np.array(residual)


def loop_kahler_residual(g, J, points):
    pts = np.atleast_2d(points)
    NJ = structure.nabla_J(g, J, pts)
    G = g.values(pts)
    out = np.empty(len(pts))
    for p, vecs in enumerate(orthonormal_frames(G, pts)):
        norms = []
        for X in vecs:
            M = np.einsum("klj,l->kj", NJ[p], X)
            for Y in vecs:
                W = M @ Y
                norms.append(np.sqrt(abs(W @ G[p] @ W)))
        out[p] = np.max(norms)
    return out


# -- comparison ----------------------------------------------------------------------

def outcome(fn, *args):
    """The flat float values of fn(*args), or the type and message it raised."""
    try:
        got = fn(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc), str(exc)
    parts = got if isinstance(got, tuple) else (got,)
    return np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in parts])


def assert_agree(new, old):
    if isinstance(old, tuple):
        assert new == old
        return
    assert new.shape == old.shape
    assert np.array_equal(np.isnan(new), np.isnan(old))
    assert np.array_equal(new[np.isinf(old)], old[np.isinf(old)])
    finite = np.isfinite(old)
    scale = np.max(np.abs(old[finite]), initial=0.0)
    assert np.all(np.abs(new[finite] - old[finite]) <= 1e-12 * scale), (new, old)


# -- hypothesis-drawn stacks -----------------------------------------------------------

class Stack:
    """A field or tensor whose value at the point (p,) is entry p of a stack."""

    def __init__(self, vals):
        self.vals = vals

    def values(self, points):
        return self.vals[np.atleast_2d(points)[:, 0].astype(int)]


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def _sym(rng, P, n):
    A = rng.normal(size=(P, n, n))
    return A + A.transpose(0, 2, 1)


@settings(max_examples=80, deadline=None)
@given(P=st.integers(1, 5), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_stacked_contractions_match_the_per_point_loops(P, n, seed, data):
    k = data.draw(st.integers(0, n), label="k")
    nan = data.draw(st.sampled_from([None, "form", "metric", "frame"]), label="nan")
    rng = np.random.default_rng(seed)
    pts = np.arange(P, dtype=float)[:, None]
    G = np.array([_spd(rng, n) for _ in range(P)])
    L, R, LX = _sym(rng, P, n), _sym(rng, P, n), _sym(rng, P, n)
    NJ = rng.normal(size=(P, n, n, n))
    E = rng.normal(size=(P, k, n))
    if nan is not None:
        p = data.draw(st.integers(0, P - 1), label="point")
        for arr in {"form": (L, LX, NJ), "metric": (G,), "frame": (E,)}[nan]:
            if arr.size:
                arr[p].flat[data.draw(st.integers(0, arr[p].size - 1))] = np.nan
    restriction = [Stack(E[:, a]) for a in range(k)] or None
    cfg = SimpleNamespace(g=Stack(G), term_values=lambda _: (L, R, G))
    lam = rng.normal()

    for new, old, args in (
            (soliton.soliton_residual, loop_soliton_residual, (restriction, pts, lam)),
            (soliton.solve_lambda, loop_solve_lambda, (restriction, pts))):
        assert_agree(outcome(new, cfg, *args), outcome(old, cfg, *args))
    frames = E if k else orthonormal_frames(G, pts)
    assert_agree(outcome(soliton.fit_einstein, L, G, frames),
                 outcome(loop_fit_einstein, L, G, frames))
    with mock.patch.object(soliton, "lie_derivative", lambda g, X, pts: LX):
        assert_agree(outcome(soliton.check_conformal, Stack(G), None, restriction, pts),
                     outcome(loop_check_conformal, Stack(G), None, restriction, pts))
    with mock.patch.object(structure, "nabla_J", lambda g, J, points: NJ):
        assert_agree(outcome(structure.kahler_residual, Stack(G), None, pts),
                     outcome(loop_kahler_residual, Stack(G), None, pts))


# -- the catalog entries -----------------------------------------------------------------

@pytest.mark.parametrize("entry", names())
def test_catalog_contractions_match_the_per_point_loops(entry):
    cfg = load(entry)
    ctx = _Ctx(cfg, 7, 12, 1e-8, cfg.check["box"])
    pts = np.insert(ctx.points, 5, np.nan, axis=0)
    pairs = []  # (new, old, args)
    g = ctx.g
    gv = g.values(pts)
    pairs.append((soliton.fit_einstein, loop_fit_einstein,
                   (ricci(g, pts), gv, orthonormal_frames(gv, pts))))
    if ctx.J is not None:
        pairs.append((structure.kahler_residual, loop_kahler_residual, (g, ctx.J, pts)))
    if ctx.Jp is not None:
        gN = cfg.metrics[ctx.F.target.name]
        pairs.append((structure.kahler_residual, loop_kahler_residual,
                      (gN, ctx.Jp, ctx.F.values(pts))))
    if cfg.check["soliton"] is not None:
        sol, restriction = ctx.soliton_config(), cfg.check["restrict"]
        pairs += [(soliton.soliton_residual, loop_soliton_residual,
                   (sol, restriction, pts, 0.7)),
                  (soliton.solve_lambda, loop_solve_lambda, (sol, restriction, pts))]
        for (chart, _), X in cfg.fields.items():
            if chart == ctx.chart.name:
                pairs += [(soliton.check_conformal, loop_check_conformal,
                           (g, X, restriction, pts)),
                          (soliton.check_conformal, loop_check_conformal,
                           (g, X, None, pts))]
    for ident, part, restricted in (("einstein_ker", "vertical", "ker_rg"),
                                    ("einstein_range", "range", "range_rg"),
                                    ("einstein_perp", "normal", "perp_rg")):
        if ident in cfg.check["suite"] + cfg.check["audit"]:
            rg = getattr(ctx.case(), restricted)
            sp = ctx.mg.split(ctx.points)
            m = rg.at(sp.x if part == "vertical" else sp.y)
            pairs.append((soliton.fit_einstein, loop_fit_einstein,
                          (m.ricci, m.G, rg.restrict_vector(getattr(sp, part)))))
    for new, old, args in pairs:
        want = outcome(old, *args)
        assert not isinstance(want, tuple), (new.__name__, want)
        assert_agree(outcome(new, *args), want)


# -- the frame contractions of geometry against per-point einsums -------------------

def per_point(subscripts, *operands):
    """np.einsum(subscripts) at each point of stacks with a leading point axis."""
    return np.array([np.einsum(subscripts, *ops) for ops in zip(*operands)])


@settings(max_examples=100, deadline=None)
@given(P=st.integers(1, 5), a=st.integers(0, 4), b=st.integers(0, 4), n=st.integers(1, 5),
       k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_frame_contractions_match_per_point_einsums(P, a, b, n, k, seed, data):
    """Each helper agrees with its einsum at every point to 1e-12 of the
    einsum over absolute values, with NaN at the same places; one entry of
    one operand is NaN.  M, T and G are not symmetric, so a swapped slot
    shows, and w.G.w takes both signs."""
    rng = np.random.default_rng(seed)
    shapes = {"E": (a, n), "F": (b, n), "M": (n, n), "T": (k, n, n), "X": (n,), "Y": (n,),
              "w": (a, b, k), "G": (k, k), "gram": (a, b), "H": (k,),
              "dd": (n, a, a), "u": (a,)}
    ops = {key: rng.normal(size=(P,) + shape) for key, shape in shapes.items()}
    key = data.draw(st.sampled_from(sorted(c for c, v in ops.items() if v.size)), label="nan")
    ops[key].flat[data.draw(st.integers(0, ops[key].size - 1), label="at")] = np.nan
    o = SimpleNamespace(**ops)
    mag = SimpleNamespace(**{c: np.abs(v) for c, v in ops.items()})

    def check(got, subscripts, *names, post=lambda v: v):
        want = post(per_point(subscripts, *(getattr(o, c) for c in names)))
        scale = post(per_point(subscripts, *(getattr(mag, c) for c in names)))
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want)), (got, want)
        ok = ~np.isnan(want)
        assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * scale[ok]), (got, want)

    check(geometry.pair_form(o.E, o.M, o.F), "ai,ij,bj->ab", "E", "M", "F")
    check(geometry.pair_form(o.E, o.M), "ai,ij,bj->ab", "E", "M", "E")
    check(geometry.tform(o.T, o.X, o.Y), "kij,i,j->k", "T", "X", "Y")
    check(geometry.on_pairs(o.T, o.E, o.F), "kij,ai,bj->abk", "T", "E", "F")
    check(geometry.on_pairs(o.T, o.E), "kij,ai,bj->abk", "T", "E", "E")
    # a derivative tensor along a coordinates, none when a is 0
    check(geometry.tvec(o.dd, o.u, 2), "kij,j->ki", "dd", "u")
    # squared norms against |w.G.w|
    check(geometry.gnorm(o.w, o.G[:, None, None]) ** 2, "abk,kl,abl->ab", "w", "G", "w",
          post=np.abs)
    # the umbilic gap, squared: max over pairs of |d.G.d| for d = w - gram H
    o.d = o.w - per_point("ab,k->abk", o.gram, o.H)
    mag.d = mag.w + per_point("ab,k->abk", mag.gram, mag.H)
    if a and b:
        check(geometry.umbilic_gap(o.w, o.gram, o.H, o.G) ** 2, "abk,kl,abl->ab", "d", "G", "d",
              post=lambda q: np.max(np.abs(q), axis=(1, 2)))


@pytest.mark.parametrize("entry", ["paper-3.1", "paper-4.1"])
def test_oneill_check_calls_no_einsum_of_four_or_more_operands(entry, monkeypatch):
    real_einsum, operand_counts = np.einsum, []

    def einsum(subscripts, *operands, **kwargs):
        operand_counts.append(len(operands))
        return real_einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    report = run_suite(load(entry), suite=["oneill"], points=10)
    assert [(c.id, c.verdict) for c in report.checks] == [("oneill", PASS)]
    assert max(operand_counts, default=0) < 4, operand_counts
