"""The two worked-example configurations, built directly through the API.

These mirror the built-in catalog entries but are constructed independently
here so catalog/spec-file parsing failures cannot mask engine regressions.
`CURVED_KAHLER` is a spec with no catalog entry, run through `run_suite`.
"""

import numpy as np

from riemcheck.expr import Const, parse
from riemcheck.geometry import Chart, MetricField, VectorField
from riemcheck.rmap import AdaptedFrames, MapGeometry, SmoothMap
from riemcheck.structure import AlmostComplexStructure


def diag_metric(chart, entries):
    n = chart.dim
    mat = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            mat[i, j] = chart.parse(entries[i]) if i == j else Const(0.0)
    return MetricField(chart, mat)


def vf(chart, comps, name=None):
    return VectorField(chart, [chart.parse(c) if isinstance(c, str) else c
                               for c in comps], name=name)


def example31():
    """Source: hyperbolic-warp 6-manifold with frame-declared J; map keeps
    (x5, x2, x4, x6) and kills (x1, x3)."""
    M = Chart("M31", [f"x{i}" for i in range(1, 7)],
              constraints=[(parse(f"x{i}"), "nonzero") for i in range(1, 7)])
    N = Chart("N31", [f"y{i}" for i in range(1, 7)])
    gM = diag_metric(M, ["exp(-2*x4)"] * 3 + ["1", "1", "1"])
    gN = diag_metric(N, ["1", "exp(-2*y4)", "1", "1", "exp(-2*y4)", "1"])
    F = SmoothMap(M, N, [M.parse(c) for c in ("x5", "x2", "0", "x4", "0", "x6")],
                  name="F31",
                  section=[N.parse(c) for c in ("0.5", "y2", "0.5", "y4", "y1", "y6")])

    U1 = vf(M, ["exp(x4)", "0", "0", "0", "0", "0"], "U1")
    U2 = vf(M, ["0", "0", "exp(x4)", "0", "0", "0"], "U2")
    X1 = vf(M, ["0", "exp(x4)", "0", "0", "0", "0"], "X1")
    X2 = vf(M, ["0", "0", "0", "1", "0", "0"], "X2")
    X3 = vf(M, ["0", "0", "0", "0", "1", "0"], "X3")
    X4 = vf(M, ["0", "0", "0", "0", "0", "1"], "X4")
    # pushforwards of X1..X4 in order; normal completes the target basis
    e2p = vf(N, ["0", "exp(y4)", "0", "0", "0", "0"], "e2p")
    e4p = vf(N, ["0", "0", "0", "1", "0", "0"], "e4p")
    e1p = vf(N, ["1", "0", "0", "0", "0", "0"], "e1p")
    e6p = vf(N, ["0", "0", "0", "0", "0", "1"], "e6p")
    e3p = vf(N, ["0", "0", "1", "0", "0", "0"], "e3p")
    e5p = vf(N, ["0", "0", "0", "0", "exp(y4)", "0"], "e5p")

    frames = AdaptedFrames(vertical=[U1, U2], horizontal=[X1, X2, X3, X4],
                           range_=[e2p, e4p, e1p, e6p], normal=[e3p, e5p],
                           mu=[X3, X4])
    mg = MapGeometry(F, gM, gN, frames)

    # J U1 = X1, J U2 = X2, J X1 = -U1, J X2 = -U2, J X3 = X4, J X4 = -X3
    frame = [U1, U2, X1, X2, X3, X4]
    act = np.zeros((6, 6))
    act[2, 0] = 1.0   # J U1 = X1
    act[3, 1] = 1.0   # J U2 = X2
    act[0, 2] = -1.0  # J X1 = -U1
    act[1, 3] = -1.0  # J X2 = -U2
    act[5, 4] = 1.0   # J X3 = X4
    act[4, 5] = -1.0  # J X4 = -X3
    J = AlmostComplexStructure.from_frame(gM, frame, act.astype(object))
    f_clairaut = M.parse("-x4")
    return mg, J, f_clairaut


def example41():
    """Target: warped 6-manifold with frame-declared J'; map keeps (x2, x5)."""
    M = Chart("M41", [f"x{i}" for i in range(1, 7)],
              constraints=[(parse(f"x{i}"), "nonzero") for i in range(1, 7)])
    N = Chart("N41", [f"y{i}" for i in range(1, 7)])
    gM = diag_metric(M, ["1", "1", "exp(2*x5)", "exp(2*x5)", "1", "exp(2*x5)"])
    gN = diag_metric(N, ["1", "1", "exp(2*y5)", "1", "1", "exp(2*y5)"])
    F = SmoothMap(M, N, [M.parse(c) for c in ("0", "x2", "0", "0", "x5", "0")],
                  name="F41",
                  section=[N.parse(c) for c in ("0.5", "y2", "0.5", "0.5", "y5", "0.5")])

    U1 = vf(M, ["1", "0", "0", "0", "0", "0"], "U1")
    U2 = vf(M, ["0", "0", "exp(-x5)", "0", "0", "0"], "U2")
    U3 = vf(M, ["0", "0", "0", "exp(-x5)", "0", "0"], "U3")
    U4 = vf(M, ["0", "0", "0", "0", "0", "exp(-x5)"], "U4")
    X1 = vf(M, ["0", "1", "0", "0", "0", "0"], "X1")
    X2 = vf(M, ["0", "0", "0", "0", "1", "0"], "X2")

    e1p = vf(N, ["1", "0", "0", "0", "0", "0"], "e1p")
    e2p = vf(N, ["0", "1", "0", "0", "0", "0"], "e2p")
    e3p = vf(N, ["0", "0", "exp(-y5)", "0", "0", "0"], "e3p")
    e4p = vf(N, ["0", "0", "0", "1", "0", "0"], "e4p")
    e5p = vf(N, ["0", "0", "0", "0", "1", "0"], "e5p")
    e6p = vf(N, ["0", "0", "0", "0", "0", "exp(-y5)"], "e6p")

    frames = AdaptedFrames(vertical=[U1, U2, U3, U4], horizontal=[X1, X2],
                           range_=[e2p, e5p], normal=[e1p, e3p, e4p, e6p])
    mg = MapGeometry(F, gM, gN, frames)

    # J' e1=e2, e2=-e1, e3=e4, e4=-e3, e5=e6, e6=-e5 on the orthonormal frame
    frame = [e1p, e2p, e3p, e4p, e5p, e6p]
    act = np.zeros((6, 6))
    for a, b, s in ((0, 1, 1.0), (1, 0, -1.0), (2, 3, 1.0), (3, 2, -1.0),
                    (4, 5, 1.0), (5, 4, -1.0)):
        act[b, a] = s  # J' frame[a] = s * frame[b]
    Jp = AlmostComplexStructure.from_frame(gN, frame, act.astype(object))
    g_clairaut = N.parse("0")  # engine-computed second fundamental form is zero
    return mg, Jp, g_clairaut


def flat_lagrangian():
    """R^4 -> R^4 coordinate projection with constant structures on both
    sides; every Lagrangian reduction holds with zero residual."""
    M = Chart("FL4", [f"x{i}" for i in range(1, 5)])
    N = Chart("FLN", [f"y{i}" for i in range(1, 5)])
    gM = diag_metric(M, ["1"] * 4)
    gN = diag_metric(N, ["1"] * 4)
    F = SmoothMap(M, N, [M.parse(c) for c in ("x3", "x4", "0", "0")],
                  name="Flag",
                  section=[N.parse(c) for c in ("0", "0", "y1", "y2")])
    U1, U2 = vf(M, ["1", "0", "0", "0"], "U1"), vf(M, ["0", "1", "0", "0"], "U2")
    X1, X2 = vf(M, ["0", "0", "1", "0"], "X1"), vf(M, ["0", "0", "0", "1"], "X2")
    R1, R2 = vf(N, ["1", "0", "0", "0"], "R1"), vf(N, ["0", "1", "0", "0"], "R2")
    E1, E2 = vf(N, ["0", "0", "1", "0"], "E1"), vf(N, ["0", "0", "0", "1"], "E2")
    frames = AdaptedFrames(vertical=[U1, U2], horizontal=[X1, X2],
                           range_=[R1, R2], normal=[E1, E2])
    mg = MapGeometry(F, gM, gN, frames)
    # J d1 = d3, J d2 = d4, J d3 = -d1, J d4 = -d2 (constant, Kaehler)
    Jm = np.array([[0, 0, -1, 0], [0, 0, 0, -1],
                   [1, 0, 0, 0], [0, 1, 0, 0]], dtype=object)
    J = AlmostComplexStructure(M, Jm)
    Jpm = np.array([[0, 0, -1, 0], [0, 0, 0, -1],
                    [1, 0, 0, 0], [0, 1, 0, 0]], dtype=object)
    Jp = AlmostComplexStructure(N, Jpm)
    return mg, J, Jp, M.parse("0"), N.parse("0")


def polar_kahler():
    """Flat C^2 in polar-adapted coordinates (r, t, a, b): the fibers are the
    circles of the Lagrangian (x1, x3)-plane, the structure is the standard
    (parallel) one, and the Clairaut dilation f = log r is genuinely
    nonconstant.  Every hypothesis of the source-side identities holds."""
    M = Chart("PK4", ["r", "t", "a", "b"],
              constraints=[(parse("r"), "positive")])
    N = Chart("PK3", ["y1", "y2", "y3"])
    gM = diag_metric(M, ["1", "r^2", "1", "1"])
    gN = diag_metric(N, ["1", "1", "1"])
    F = SmoothMap(M, N, [M.parse("r"), M.parse("a"), M.parse("b")], name="Fpk",
                  section=[N.parse(c) for c in ("y1", "0.7", "y2", "y3")])
    u = vf(M, ["0", "1/r", "0", "0"], "u1")
    X1 = vf(M, ["1", "0", "0", "0"], "X1")
    X2 = vf(M, ["0", "0", "1", "0"], "X2")
    X3 = vf(M, ["0", "0", "0", "1"], "X3")
    frames = AdaptedFrames(vertical=[u], horizontal=[X1, X2, X3],
                           range_=[vf(N, ["1", "0", "0"], "R1"),
                                   vf(N, ["0", "1", "0"], "R2"),
                                   vf(N, ["0", "0", "1"], "R3")],
                           normal=[])
    mg = MapGeometry(F, gM, gN, frames)
    # the standard structure of C^2 written on the adapted frame:
    # J u = -sin(t) X2 + cos(t) X3,  J X1 = cos(t) X2 + sin(t) X3,
    # J X2 = sin(t) u - cos(t) X1,   J X3 = -cos(t) u - sin(t) X1
    e = M.parse
    act = np.empty((4, 4), dtype=object)
    act[:] = Const(0.0)
    act[2, 0], act[3, 0] = e("-sin(t)"), e("cos(t)")
    act[2, 1], act[3, 1] = e("cos(t)"), e("sin(t)")
    act[0, 2], act[1, 2] = e("sin(t)"), e("-cos(t)")
    act[0, 3], act[1, 3] = e("-cos(t)"), e("-sin(t)")
    J = AlmostComplexStructure.from_frame(gM, [u, X1, X2, X3], act)
    return mg, J, M.parse("log(r)")


def warped_clairaut(h="0.3*x3*x4"):
    """Warped submersion R^4 -> R^2 with T(U,V) = -g(U,V) grad h by
    construction; Lagrangian with frame-declared J."""
    M = Chart("WC4", [f"x{i}" for i in range(1, 5)])
    N = Chart("WC2", ["y1", "y2"])
    gM = diag_metric(M, [f"exp(2*({h}))", f"exp(2*({h}))", "1", "1"])
    gN = diag_metric(N, ["1", "1"])
    F = SmoothMap(M, N, [M.parse("x3"), M.parse("x4")], name="Fwc",
                  section=[N.parse(c) for c in ("0.5", "0.5", "y1", "y2")])
    w = f"exp(-({h}))"
    U1, U2 = vf(M, [w, "0", "0", "0"], "U1"), vf(M, ["0", w, "0", "0"], "U2")
    X1, X2 = vf(M, ["0", "0", "1", "0"], "X1"), vf(M, ["0", "0", "0", "1"], "X2")
    frames = AdaptedFrames(vertical=[U1, U2], horizontal=[X1, X2],
                           range_=[vf(N, ["1", "0"], "R1"), vf(N, ["0", "1"], "R2")],
                           normal=[])
    mg = MapGeometry(F, gM, gN, frames)
    act = np.zeros((4, 4))
    act[2, 0] = 1.0   # J U1 = X1
    act[3, 1] = 1.0   # J U2 = X2
    act[0, 2] = -1.0  # J X1 = -U1
    act[1, 3] = -1.0  # J X2 = -U2
    J = AlmostComplexStructure.from_frame(gM, [U1, U2, X1, X2], act.astype(object))
    return mg, J, M.parse(h)


# The warped-product projection H^2 x H^2 -> R x H^2 in log coordinates (each
# factor dt^2 + e^{-2t} dx^2 is H^2), forgetting the fiber coordinate x1: a
# Riemannian submersion with totally umbilic fibers and warping h = e^{-x2},
# so a Clairaut map with f = log h = -x2, and a curved Kaehler source on
# which the gates of ric_uv, ric_ux and ric_xy hold.  J rotates each factor.
CURVED_KAHLER = """
manifold M
  coords x1 x2 x3 x4
  metric diag exp(-2*x2), 1, exp(-2*x4), 1
end

manifold N
  coords y1 y2 y3
  metric diag 1, exp(-2*y3), 1
end

map F
  source M
  target N
  components x2, x3, x4
  section 0, y1, y2, y3
end

frames F
  vertical U1 = exp(x2), 0, 0, 0
  horizontal X1 = 0, 1, 0, 0
  horizontal X2 = 0, 0, exp(x4), 0
  horizontal X3 = 0, 0, 0, 1
  range R1 = 1, 0, 0
  range R2 = 0, exp(y3), 0
  range R3 = 0, 0, 1
end

structure J
  manifold M
  row 0, -exp(x2), 0, 0
  row exp(-x2), 0, 0, 0
  row 0, 0, 0, -exp(x4)
  row 0, 0, exp(-x4), 0
end

function f on M = -x2

check
  seed 7
  points 40
  suite metric riemannian_map anti_invariant hermitian kahler clairaut_source umbilical oneill fiber_curvature
  audit ric_uv ric_ux ric_xy
  clairaut source f
end
"""


def all_rows(res):
    """Every row of an identity check's result as the dict a report reads for
    its worst row, in (point, a, b) order."""
    return [res["rows"].row(i) for i in range(len(res["rows"]))]
