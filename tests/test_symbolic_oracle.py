"""Independent symbolic oracle for the curvature builders.

sympy differentiates the metric entries (and a fixed test function) exactly;
Christoffel symbols, Riemann, Ricci, scalar curvature and the function's
Hessian, gradient and Laplacian are then assembled numerically from those
derivatives with numpy, sharing nothing with riemcheck's expression
simplifier or its symbolic contractions.  Every catalog
metric (source and target) and the non-diagonal Heisenberg metric are
compared with riemcheck's values at three seeded points, to 1e-12 relative.
sympy is not a dependency of the package, so the module skips without it.
"""

import numpy as np
import pytest

from riemcheck import catalog
from riemcheck.expr.nodes import Binary, Const, Pow, Unary, Var
from riemcheck.geometry import Chart, MetricField, function_at, ricci, riemann, scalar_curvature

sympy = pytest.importorskip("sympy")

REL = 1e-12

_UNARY = {"neg": lambda a: -a, "exp": sympy.exp, "log": sympy.log,
          "sin": sympy.sin, "cos": sympy.cos, "sqrt": sympy.sqrt}
_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "div": lambda a, b: a / b}


def to_sympy(e, syms):
    """The expression tree as a sympy expression (constants kept exact)."""
    if isinstance(e, Const):
        return sympy.Rational(e.value)
    if isinstance(e, Var):
        return syms[e.name]
    if isinstance(e, Unary):
        return _UNARY[e.op](to_sympy(e.arg, syms))
    if isinstance(e, Binary):
        return _BINARY[e.op](to_sympy(e.a, syms), to_sympy(e.b, syms))
    if isinstance(e, Pow):
        return to_sympy(e.base, syms) ** sympy.Rational(e.exponent)
    raise TypeError(e)


def sample_function(chart):
    """A fixed function using every coordinate, with a nonzero Hessian."""
    c = chart.coords
    quad = " + ".join(f"{0.1 * (i + 1):.1f}*{x}^2" for i, x in enumerate(c))
    return chart.parse(f"{quad} + exp(0.5*{c[0]})*sin({c[-1]})")


def oracle(g, f):
    """Pointwise oracle: x -> (Gamma, Riemann, Ricci, scalar, Hess f, grad f,
    Laplacian of f)."""
    chart = g.chart
    syms = {c: sympy.Symbol(c) for c in chart.coords}
    xs = [syms[c] for c in chart.coords]
    n = chart.dim
    G = [[to_sympy(g.mat[i, j], syms) for j in range(n)] for i in range(n)]
    dG = [[[sympy.diff(G[i][j], xs[a]) for j in range(n)] for i in range(n)]
          for a in range(n)]
    ddG = [[[[sympy.diff(dG[a][i][j], xs[b]) for j in range(n)] for i in range(n)]
            for a in range(n)] for b in range(n)]
    fs = to_sympy(f, syms)
    df = [sympy.diff(fs, x) for x in xs]
    ddf = [[sympy.diff(d, x) for x in xs] for d in df]
    fn = sympy.lambdify(xs, [G, dG, ddG, df, ddf], "math")

    def at(x):
        G, dG, ddG, df, ddf = (np.array(v, dtype=float) for v in fn(*x))
        Gi = np.linalg.inv(G)                               # g^{kl}
        dGi = -np.einsum("km,amn,nl->akl", Gi, dG, Gi)      # d_a g^{kl}
        # inner[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, and its d_b
        inner = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
        dinner = (np.einsum("bijl->blij", ddG) + np.einsum("bjil->blij", ddG)
                  - ddG)
        gam = 0.5 * np.einsum("kl,lij->kij", Gi, inner)
        dgam = 0.5 * (np.einsum("bkl,lij->bkij", dGi, inner)
                      + np.einsum("kl,blij->bkij", Gi, dinner))  # d_b Gamma^k_ij
        R = (np.einsum("iljk->lijk", dgam) - np.einsum("jlik->lijk", dgam)
             + np.einsum("lim,mjk->lijk", gam, gam)
             - np.einsum("ljm,mik->lijk", gam, gam))
        ric = np.einsum("kkij->ij", R)
        H = ddf - np.einsum("kij,k->ij", gam, df)
        return gam, R, ric, float(np.sum(Gi * ric)), H, Gi @ df, float(np.sum(Gi * H))

    return at


def close(ours, want):
    ours, want = np.asarray(ours, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(ours - want))) <= REL * max(1.0, float(np.max(np.abs(want))))


def heisenberg():
    chart = Chart("H", ["x", "y", "z"])
    rows = [["1", "0", "0"], ["0", "1 + x^2", "-x"], ["0", "-x", "1"]]
    return MetricField(chart, np.array([[chart.parse(e) for e in r] for r in rows],
                                       dtype=object))


def metric(case):
    if case == "heisenberg":
        return heisenberg()
    entry, chart_name = case.split(":")
    return catalog.load(entry).metrics[chart_name]


CASES = ["heisenberg"] + [f"{name}:{chart}" for name in catalog.names()
                          for chart in catalog.load(name).metrics]


@pytest.mark.parametrize("case", CASES)
def test_curvature_matches_the_sympy_oracle(case):
    g = metric(case)
    f = sample_function(g.chart)
    at = oracle(g, f)
    pts = g.chart.sample_points(3, seed=17)
    fa = function_at(g, f, pts)
    numeric_gam = g.at(pts).gam
    for p, x in enumerate(pts):
        gam, R, ric, s, H, grad, lap = at(x)
        assert close(g.christoffel().values(x)[0], gam), ("christoffel", x)
        assert close(numeric_gam[p], gam), ("numeric christoffel", x)
        assert close(riemann(g, pts)[p], R), ("riemann", x)
        assert close(ricci(g, pts)[p], ric), ("ricci", x)
        assert close(scalar_curvature(g, pts)[p], s), ("scalar", x)
        assert close(fa.hess[p], H), ("hessian", x)
        assert close(fa.grad[p], grad), ("gradient", x)
        assert close(fa.lap[p], lap), ("laplacian", x)
