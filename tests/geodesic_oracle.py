"""Numpy-array RK4 geodesic integrator.

The reference for `geometry.geodesic_integrate`, which runs the same method
on Python float lists: each state is a length-2n array, each RK4 stage one
`Tape.evaluate_at` call, and the stage arithmetic is numpy's elementwise
arithmetic in the same operation order.  It has no bound on total work; a
test compares the two only on integrations that stay well inside the
integrator's sub-step budget.
"""

import math

import numpy as np

from riemcheck.geometry import (
    ChartDomainError,
    GeometryError,
    MetricField,
    Trajectory,
    geodesic_tape,
    worst,
)


def geodesic_integrate(g: MetricField, p0, v0, t_end, dt, energy_tol=1e-8) -> Trajectory:
    if dt <= 0.0:
        raise GeometryError("geodesic_integrate: dt must be positive")
    chart = g.chart
    n = chart.dim
    x = np.asarray(p0, dtype=float)
    v = np.asarray(v0, dtype=float)
    if v.shape != (n,) or not np.any(v):
        raise GeometryError("geodesic_integrate: v0 must be a nonzero tangent vector")

    rhs = geodesic_tape(g).evaluate_at
    g_tape = g.jets.tape()

    def rk4(state, h):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def energy(state):
        gv = g_tape.evaluate_at(state[:n]).reshape(n, n)
        return float(state[n:] @ gv @ state[n:])

    state = np.concatenate([x, v])
    e0 = energy(state)
    escale = max(abs(e0), 1e-30)
    nfull = int(math.floor(t_end / dt + 1e-12))
    steps = [dt] * nfull
    rem = t_end - nfull * dt
    if rem > 1e-12 * max(1.0, t_end):
        steps.append(rem)
    times = [0.0]
    xs = [state[:n].copy()]
    vs = [state[n:].copy()]
    drifts = []
    halvings = unconverged = 0
    t = 0.0
    e_state = e0  # energy of the last accepted state
    for dt_step in steps:
        sub = 1
        h = dt_step
        prev = state
        for attempt in range(13):
            cand = prev
            for _ in range(sub):
                cand = rk4(cand, h)
                if not np.all(np.isfinite(cand)):
                    break
            else:
                e_cand = energy(cand)
                de = abs(e_cand - e_state) / escale
                if de <= energy_tol or attempt == 12:
                    unconverged += not de <= energy_tol
                    state, e_state = cand, e_cand
                    break
            sub *= 2
            h *= 0.5
            halvings += 1
        else:
            raise GeometryError(
                f"geodesic step from t={t} is non-finite at every step size")
        t += dt_step
        try:
            chart.check_domain(state[:n])
        except ChartDomainError as exc:
            raise ChartDomainError(f"geodesic left chart domain at t={t}: {exc}") from exc
        drifts.append(abs(e_state - e0) / escale)
        times.append(t)
        xs.append(state[:n].copy())
        vs.append(state[n:].copy())
    return Trajectory(chart, np.array(times), np.array(xs), np.array(vs),
                      worst(drifts)[0], halvings, unconverged)
