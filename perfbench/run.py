#!/usr/bin/env python3
"""riemcheck benchmark: end-to-end and per-layer timings of catalog runs.

    python3 perfbench/run.py --workload identities|geodesic|cold-build
        [--seed N] [--seconds S] [--trace 0|1] [--chrome PATH]

Run from anywhere inside a source checkout; the engine is imported from its
`src/` directory, so nothing needs installing.  The seed is the sample seed
passed to `run_suite` (default 7, the catalog's own).

`--trace 0` reports the end-to-end metrics: `setup_s` (median time to import
the engine in a fresh process, over several processes), `pass_s` (median
time of one pass) and `peak_rss_mb` (peak resident memory of the workload
process).  Both times are rescaled to a reference host speed sampled around
and during each timed region (see README.md).  `--trace 1` reports the
per-layer metrics from a second, traced half of the run.  Both check every
report against the frozen expected results; a mismatch makes the run exit
non-zero.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Full results, the environment and the traced spans
are written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0
PER_RUN_PREFIXES = ("suites.check_s.", "suites.run_suite_s.")


def worker_env():
    env = dict(os.environ)
    # Matrices are at most 6x6: one BLAS/OpenMP thread each.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def call_worker(args, env, deadline):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chrome", help="with --trace 1, also write the first "
                                     "traced pass as Chrome trace-event JSON")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "riemcheck" / "__init__.py").is_file():
        print(f"run.py: no riemcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = worker_env()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    setup = []
    if not args.trace:
        call_worker(["--import-only"], env, deadline)  # fills bytecode caches
        setup = [call_worker(["--import-only"], env, deadline)["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        wargs += ["--spans", str(out_dir / f"{args.workload}.spans.npz")]
        if args.chrome:
            wargs += ["--chrome", str(Path(args.chrome).resolve())]
    res = call_worker(wargs, env, deadline)

    values = dict(res["metrics"])
    if not args.trace:
        values.update(setup_s=statistics.median(setup),
                      pass_s=statistics.median(res["pass_scaled_s"]),
                      peak_rss_mb=res["peak_rss_mb"])
    metrics = {}
    for m in declared:
        if m["name"] in values:
            value = values[m["name"]]
        elif m["name"].startswith(PER_RUN_PREFIXES):
            value = 0.0  # a check or entry this workload does not run
        else:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = res["failed"] == 0 and not res["problems"]
    error_rate = res["failed"] / res["attempted"]
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "setup_samples": setup, "error_rate": error_rate,
                   "correct": correct, "metrics": metrics, "worker": res},
                  fh, indent=1)
    for p in res["problems"]:
        print(f"MISMATCH {p}", file=sys.stderr)
    print("env " + json.dumps(res["env"], sort_keys=True))
    walls = res["traced_pass_wall_s"] if args.trace else res["pass_wall_s"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} median_pass_wall_s={statistics.median(walls):.4f} "
          f"entry_runs={res['attempted']} error_rate={error_rate:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
