#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload geodesic --seeds 1 2 3 4 5

Runs `run.py --trace 0` once per seed, one run at a time, and prints for
each end-to-end metric its median over the runs and the distance between
the first and third quartiles as a share of the median, next to a third of
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {m['name']}: median {med:.4f} {m['unit']}, "
              f"spread {(q3 - q1) / med:.4f} (a third of the bound: "
              f"{m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
