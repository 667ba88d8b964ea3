"""One workload process of the benchmark; `run.py` starts it.

    python3 perfbench/worker.py --import-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--spans PATH] [--chrome PATH]

With `--import-only` the process times the engine import and exits.
Otherwise it runs passes of the workload for `--seconds` and checks every
report against the frozen expected result.  With `--trace 1` the first half
of the time runs untraced and the second half traced, and the traced reports
must be byte-identical to the untraced ones.  The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

from expect import compare, load_expected, reference
from workloads import REFERENCE_SEED, WORKLOADS

# numpy.linalg routines wrapped as contraction, including some the engine does
# not call yet, so that a change that starts calling them is still measured.
LINALG = ("cholesky", "det", "eig", "eigh", "eigvalsh", "inv", "lstsq",
          "matrix_rank", "norm", "pinv", "qr", "solve", "svd")

# (span name, self-seconds metric, calls metric)
LAYERS = (
    ("expr.simplify", "expr.simplify_s", "expr.simplify_calls"),
    ("expr.differentiate", "expr.differentiate_s", "expr.differentiate_calls"),
    ("geometry.curvature", "geometry.curvature_s", None),
    ("rmap.oneill", "rmap.oneill_s", None),
    ("propcheck.target_calculus", "propcheck.target_calculus_s", None),
    ("expr.tape.compile", "expr.tape.compile_s", None),
    ("expr.tape.eval_one", "expr.tape.eval_one_s", "expr.tape.eval_one_calls"),
    ("expr.tape.eval_batch", "expr.tape.eval_batch_s", "expr.tape.eval_batch_calls"),
    ("rmap.split_at", "rmap.split_at_s", "rmap.split_at_calls"),
    ("contract.einsum", "contract.einsum_s", "contract.einsum_calls"),
    ("contract.linalg", "contract.linalg_s", "contract.linalg_calls"),
    ("geometry.geodesic_integrate", "geometry.geodesic_integrate_s", None),
    ("geometry.sample_points", "geometry.sample_points_s", None),
    ("specfile.load_spec", "specfile.load_spec_s", None),
    ("report.emit", "report.emit_s", None),
    ("suites.run_suite", "suites.run_suite_self_s", None),
)
COUNTERS = ("expr.tape.compiles", "expr.tape.instructions",
            "expr.tape.eval_batch_points", "geometry.geodesic_steps",
            "geometry.geodesic_halvings")
CHECK_SPAN = "suites.check."
ENTRY_SPAN = "entry"
# Times of the SpeedProbe loop and contraction on the reference host, which
# define the host speed that times are rescaled to.
REF_LOOP_S = 0.001
REF_EINSUM_S = 0.002
SAMPLE_EVERY_S = 0.25


def _on_compile(tracer, args, _out):
    tracer.count("expr.tape.compiles")
    tracer.count("expr.tape.instructions", args[0].nregs)


def _on_batch(tracer, args, _out):
    tracer.count("expr.tape.eval_batch_points", len(args[1]))


def _on_geodesic(tracer, _args, traj):
    tracer.count("geometry.geodesic_steps", len(traj) - 1)
    tracer.count("geometry.geodesic_halvings", traj.halvings)


def instrument(tracer):
    """Wrap the engine's public entry points of every layer."""
    import numpy
    from riemcheck import geometry, propcheck, report, rmap, specfile, suites
    from riemcheck.expr import nodes, tape

    t = tracer
    t.wrap_function(nodes, "simplify", "expr.simplify")
    t.wrap_function(nodes, "differentiate", "expr.differentiate")
    for fn in ("christoffel", "riemann", "ricci", "scalar_curvature"):
        t.wrap_function(geometry, fn, "geometry.curvature")
    for m in ("oneill_T", "oneill_A", "nabla_oneill", "second_fundamental_form",
              "shape_tensors"):
        t.wrap_method(rmap.MapGeometry, m, "rmap.oneill")
    for m in ("__init__", "J", "proj_range", "proj_perp", "cov", "nperp",
              "shape", "nabla_tilde_S", "r_perp"):
        t.wrap_method(propcheck.TargetCalculus, m, "propcheck.target_calculus")
    t.wrap_method(tape.Tape, "__init__", "expr.tape.compile", _on_compile)
    t.wrap_method(tape.Tape, "evaluate", "expr.tape.eval_batch", _on_batch)
    t.wrap_method(tape.Tape, "evaluate_at", "expr.tape.eval_one")
    t.wrap_method(rmap.MapGeometry, "split_at", "rmap.split_at")
    t.wrap_function(numpy, "einsum", "contract.einsum")
    for fn in LINALG:
        t.wrap_function(numpy.linalg, fn, "contract.linalg")
    t.wrap_function(geometry, "geodesic_integrate", "geometry.geodesic_integrate",
                    _on_geodesic)
    t.wrap_method(geometry.Chart, "sample_points", "geometry.sample_points")
    t.wrap_function(specfile, "load_spec", "specfile.load_spec")
    t.wrap_method(report.CheckReport, "to_machine", "report.emit")
    t.wrap_function(suites, "run_suite", "suites.run_suite")
    for ident in list(suites.CHECKS):
        t.wrap_item(suites.CHECKS, ident, CHECK_SPAN + ident)


class Checker:
    """Compares every entry run with the frozen reference, and every report
    of an entry with the first one (byte for byte)."""

    def __init__(self, workload, seed):
        self.want = load_expected()["workloads"][workload]
        self.full = seed == REFERENCE_SEED
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, entry, text, exit_code, error, traced):
        self.attempted += 1
        if error is not None:
            problems = [error]
        else:
            got = reference(json.loads(text), exit_code)
            problems = compare(self.want[entry], got, self.full)
            if text != self.first.setdefault(entry, text):
                problems.append("report bytes differ from the first untraced run"
                                if traced else "report bytes differ between passes")
        if problems:
            self.failed += 1
            self.problems.append(f"{entry}{' (traced)' if traced else ''}: "
                                 + "; ".join(problems))


class SpeedProbe:
    """Host-speed samples.  A sample times a fixed interpreter loop and a
    fixed einsum contraction, the two kinds of work the passes are made of,
    each relative to its time on the reference host, and averages them
    (1.0 on the reference host, 2.0 at half its speed).  Samples are taken
    three at a time between entry runs and, if `during` is set, once every
    SAMPLE_EVERY_S from a timer signal while an entry runs.  The time spent
    in timer samples is summed in `spent`, so that it can be left out of the
    timed regions."""

    def __init__(self, during):
        import numpy as np
        self.samples = []
        self.spent = 0.0
        self.during = during
        self._einsum = np.einsum
        rng = np.random.default_rng(0)
        self._operands = (rng.normal(size=(6, 6, 6, 6)), rng.normal(size=(6, 6)),
                          rng.normal(size=6))

    def sample(self):
        t = time.perf_counter()
        acc, d = 0.0, {}
        for i in range(10000):
            acc += (i % 7) * 0.5
            d[i & 255] = acc
        t_loop = time.perf_counter() - t
        R, M, v = self._operands
        t = time.perf_counter()
        for _ in range(3):
            self._einsum("klij,al,i,aj,km,m->", R, M, v, M, M, v)
        t_einsum = time.perf_counter() - t
        self.samples.append((t_loop / REF_LOOP_S + t_einsum / REF_EINSUM_S) / 2)

    def _on_timer(self, _signum, _frame):
        t = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t

    def __enter__(self):
        if self.during:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self):
        """Samples taken outside the timed regions; returns the index of the
        first."""
        first = len(self.samples)
        for _ in range(3):
            self.sample()
        return first

    def scale(self, first):
        """Factor that rescales a time measured since sample `first` to the
        reference host speed."""
        return 1.0 / statistics.median(self.samples[first:])


def run_pass(entries, points, seed, probe, tracer=None):
    """One closed-loop pass over `entries`, sampling the host speed before
    the first entry and after each one.

    Returns (wall seconds, rescaled seconds, [(entry, rescaled run_suite
    seconds, report text, exit code, error)])."""
    from riemcheck import catalog, suites
    entry_nid = tracer.name_id(ENTRY_SPAN) if tracer is not None else None
    wall = scaled = 0.0
    runs = []
    first = probe.between()
    for entry in entries:
        run_s = text = code = error = None
        root = tracer.open(entry_nid) if tracer is not None else None
        t0, spent0 = time.perf_counter(), probe.spent
        try:
            cfg = catalog.load(entry)
            t, spent = time.perf_counter(), probe.spent
            rep = suites.run_suite(cfg, points=points, seed=seed)
            run_s = time.perf_counter() - t - (probe.spent - spent)
            text, code = rep.to_machine(), rep.exit_code()
        except Exception:
            error = traceback.format_exc()
        entry_s = time.perf_counter() - t0 - (probe.spent - spent0)
        if tracer is not None:
            tracer.close(root)
        following = probe.between()
        scale = probe.scale(first)
        first = following
        wall += entry_s
        scaled += entry_s * scale
        runs.append((entry, None if run_s is None else run_s * scale,
                     text, code, error))
    return wall, scaled, runs


def run_loop(seconds, wl, seed, checker, probe, tracer=None):
    """Passes until `seconds` have elapsed (at least one).  Returns wall and
    rescaled pass times, and rescaled run_suite times per entry."""
    walls, scaled, entry_times = [], [], {}
    deadline = time.perf_counter() + seconds
    while True:
        wall, pass_s, runs = run_pass(wl["entries"], wl["points"], seed, probe,
                                      tracer)
        walls.append(wall)
        scaled.append(pass_s)
        for entry, run_s, text, code, error in runs:
            checker.check(entry, text, code, error, tracer is not None)
            if run_s is not None:
                entry_times.setdefault(entry, []).append(run_s)
        if time.perf_counter() >= deadline:
            return walls, scaled, entry_times


def environment():
    import numpy
    import riemcheck
    return {
        "backend": riemcheck.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def layer_metrics(tracer, traced_walls, traced_scaled, untraced_scaled, entries):
    """Per-pass means of span self times and counts over the traced passes.
    Span times are wall times, so that they add up to the traced pass."""
    n = len(traced_walls)
    totals = tracer.totals()
    metrics, check_incl = {}, {}
    self_sum = 0.0
    for span, sec_metric, calls_metric in LAYERS:
        calls, own, _ = totals.get(span, (0, 0.0, 0.0))
        metrics[sec_metric] = own / n
        self_sum += own / n
        if calls_metric:
            metrics[calls_metric] = calls / n
    for key in COUNTERS:
        metrics[key] = tracer.counters.get(key, 0) / n
    checks = 0
    for span, (calls, own, dur) in totals.items():
        if span.startswith(CHECK_SPAN):
            ident = span[len(CHECK_SPAN):]
            metrics["suites.check_s." + ident] = own / n
            check_incl[ident] = dur / n
            self_sum += own / n
            checks += calls
    metrics["suites.checks"] = checks / n
    calls, own, _ = totals[ENTRY_SPAN]
    _, parent, _, _ = tracer.arrays()
    if calls != n * entries or int((parent < 0).sum()) != calls:
        raise RuntimeError("trace spans do not nest under the entry spans")
    metrics["other_s"] = own / n
    metrics["trace.pass_s"] = statistics.fmean(traced_walls)
    metrics["trace.closure"] = (self_sum + metrics["other_s"]) / metrics["trace.pass_s"]
    metrics["trace.overhead"] = (statistics.median(traced_scaled)
                                 / statistics.median(untraced_scaled))
    one_calls = metrics["expr.tape.eval_one_calls"]
    metrics["expr.tape.eval_one_us"] = (
        1e6 * metrics["expr.tape.eval_one_s"] / one_calls if one_calls else 0.0)
    batch_points = metrics["expr.tape.eval_batch_points"]
    metrics["expr.tape.eval_batch_point_us"] = (
        1e6 * metrics["expr.tape.eval_batch_s"] / batch_points if batch_points else 0.0)
    return metrics, check_incl


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here (.npz)")
    ap.add_argument("--chrome", help="write the first traced pass here as "
                                     "Chrome trace-event JSON")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import riemcheck  # noqa: F401
    from riemcheck import catalog, report, suites  # noqa: F401
    import_s = time.perf_counter() - t0
    if args.import_only:
        # Sampled right after the import: the probe itself needs numpy.
        probe = SpeedProbe(during=False)
        first = probe.between()
        probe.between()
        print(json.dumps({"import_s": import_s,
                          "setup_s": import_s * probe.scale(first)}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload]
    checker = Checker(args.workload, args.seed)
    out = {"import_s": import_s, "env": environment()}
    half = args.seconds / 2 if args.trace else args.seconds
    with SpeedProbe(during=True) as probe:
        walls, scaled, entry_times = run_loop(half, wl, args.seed, checker, probe)
    out.update(pass_wall_s=walls, pass_scaled_s=scaled,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics = {"suites.run_suite_s." + e: statistics.median(ts)
               for e, ts in entry_times.items()}

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        # Made before instrumenting, so that its einsum is not traced; no
        # timer samples, which would land inside the spans.
        probe = SpeedProbe(during=False)
        try:
            instrument(tracer)
            t_walls, t_scaled, _ = run_loop(half, wl, args.seed, checker,
                                            probe, tracer)
        finally:
            tracer.restore()
        layers, check_incl = layer_metrics(tracer, t_walls, t_scaled, scaled,
                                           len(wl["entries"]))
        metrics.update(layers)
        out.update(traced_pass_wall_s=t_walls, traced_pass_scaled_s=t_scaled)
        out["check_inclusive_s"] = check_incl
        if args.spans:
            tracer.save(args.spans)
        if args.chrome:
            tracer.save_chrome(args.chrome, roots=len(wl["entries"]))
        if abs(metrics["trace.closure"] - 1.0) > 0.05:
            checker.problems.append(
                f"span self times cover {metrics['trace.closure']:.4f} of the pass")

    out.update(metrics=metrics, attempted=checker.attempted,
               failed=checker.failed, problems=checker.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
