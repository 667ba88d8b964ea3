"""Symbolic target calculus: the oracle for `propcheck.TargetCalculus`.

These are the symbolic bodies the engine used before its target calculus
became array contractions: P_range and P_perp are expression matrices built
from the declared frames, J', P_range and P_perp are applied to a field by
one symbolic matrix product each, every operation builds a new `VectorField`
per argument tuple through nested `covariant_derivative` and `simplify`
calls, and `lie_bracket` forms [X, Y] symbolically.  They are slow and kept only as
the independent reference the numeric operations are compared against, as
`fd_oracle.py` and `geodesic_oracle.py` are.

`oracle_tc_values` stands in for `propcheck._tc_values`: it evaluates one
symbolic field per combination of the named field lists, as the engine did.
"""

import itertools

import numpy as np

from riemcheck.expr import Const, simplify
from riemcheck.expr.nodes import ZERO, differentiate
from riemcheck.geometry import VectorField, _add, _prod, _sub, sym_einsum
from riemcheck.propcheck import TargetCalculus, UnsupportedDistribution

from source_calculus_oracle import covariant_derivative, projector_from_fields


def lie_bracket(chart, X, Y) -> VectorField:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    comps = []
    for k in range(chart.dim):
        acc = ZERO
        for i in range(chart.dim):
            acc = _add(acc, _prod(X.comps[i], differentiate(Y.comps[k], chart.coords[i])))
            acc = _sub(acc, _prod(Y.comps[i], differentiate(X.comps[k], chart.coords[i])))
        comps.append(simplify(acc, chart.nonvanishing_keys()))
    return VectorField(chart, comps)


class SymbolicTargetCalculus(TargetCalculus):
    """J', the projectors and the derivative operations as symbolic fields,
    memoized by the field objects they take."""

    def __init__(self, mg, Jp):
        super().__init__(mg, Jp)
        self.gN = mg.gN
        self.PR = projector_from_fields(mg.gN, mg.frames.range)
        self.PP = projector_from_fields(mg.gN, mg.frames.normal)
        self._memo = {}

    def _apply_matrix(self, tag, M, W: VectorField) -> VectorField:
        key = (tag, W)
        if key not in self._memo:
            comps = [self.gN._simp(e) for e in sym_einsum("ij,j->i", M, W.comps)]
            self._memo[key] = VectorField(self.gN.chart, comps, name=f"{tag}({W.name})")
        return self._memo[key]

    def J(self, W):
        if self.Jp is None:
            raise UnsupportedDistribution("no target almost complex structure declared")
        return self._apply_matrix("J'", self.Jp.mat, W)

    def proj_range(self, W):
        return self._apply_matrix("Pr", self.PR, W)

    def proj_perp(self, W):
        return self._apply_matrix("Pp", self.PP, W)

    def field(self, name, comps):
        return VectorField(self.gN.chart, comps, name=name)

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
        """S_D V = -P_range(nabla_V D)."""
        key = ("S", D, V)
        if key not in self._memo:
            pr = self.proj_range(self.cov(V, D))
            comps = [self.gN._simp(_prod(Const(-1.0), c)) for c in pr.comps]
            self._memo[key] = self.field(f"S[{D.name}]({V.name})", comps)
        return self._memo[key]

    def nabla_tilde_S(self, W, D, V) -> VectorField:
        """P_range nabla_W (S_D V) - S_{P_perp nabla_W D} V
        - S_D (P_range nabla_W V)."""
        key = ("ntS", W, D, V)
        if key not in self._memo:
            a = self.proj_range(self.cov(W, self.shape(D, V)))
            b = self.shape(self.nperp(W, D), V)
            c = self.shape(D, self.proj_range(self.cov(W, V)))
            comps = [self.gN._simp(_sub(_sub(ai, bi), ci))
                     for ai, bi, ci in zip(a.comps, b.comps, c.comps)]
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
            comps = [self.gN._simp(_sub(_sub(ai, bi), ci))
                     for ai, bi, ci in zip(a.comps, b.comps, c.comps)]
            self._memo[key] = self.field(f"Rp({W1.name},{W2.name}){D.name}", comps)
        return self._memo[key]


def field_lists(case, tc):
    """The symbolic field list, through the oracle `tc`, behind each jet name
    of the batch namespace."""
    fr = case.mg.frames
    JF = [tc.J(f) for f in fr.range]
    return {"Fj": fr.range, "Ej": fr.normal, "JFj": JF, "JFh": JF,
            "PEj": [tc.proj_range(tc.J(e)) for e in fr.normal],
            "QEh": [tc.proj_perp(tc.J(e)) for e in fr.normal]}


def oracle_tc_values(p, method, *jets):
    """`propcheck._tc_values` through `SymbolicTargetCalculus`: one symbolic
    field per combination, evaluated at y, as a (P, n1, n2, ..., n) array."""
    tc = p.c.__dict__.setdefault(
        "oracle_tc", SymbolicTargetCalculus(p.c.mg, p.c.Jp))
    fields = [field_lists(p.c, tc)[name] for name in jets]
    make = getattr(tc, method)
    vals = [make(*ws).values(p.y) for ws in itertools.product(*fields)]
    shape = (len(p.y),) + tuple(map(len, fields)) + (p.y.shape[1],)
    return np.stack(vals, axis=1).reshape(shape)
