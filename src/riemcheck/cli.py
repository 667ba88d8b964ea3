"""Command-line interface.

    riemcheck check SPECFILE [--suite ID ...] [--points N] [--seed S]
                             [--tol T] [--report PATH] [--machine]
    riemcheck catalog list
    riemcheck catalog run NAME [same options as check]
    riemcheck geodesic SPECFILE --from V,V --dir V,V --t T [--dt DT]
                             [--monitor clairaut|none] [--points N] [--seed S]
                             [--tol T] [--report PATH] [--machine]

Exit codes: 0 clean, 1 any FAIL verdict in the suite, 2 spec or file error
(a numeric failure inside a check is that check's FAIL).
RIEMCHECK_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import load as catalog_load, names as catalog_names
from .report import CheckReport
from .specfile import SpecError, load_spec
from .suites import run_suite


def _env_seed():
    v = os.environ.get("RIEMCHECK_SEED")
    return int(v) if v else None


def _add_run_options(p):
    p.add_argument("--points", type=int, help="sample-point count override")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--tol", type=float, help="tolerance override")
    p.add_argument("--report", metavar="PATH", help="write the report here")
    p.add_argument("--machine", action="store_true",
                   help="emit the machine-readable JSON report")


def _emit(report: CheckReport, args) -> int:
    text = report.to_machine() if args.machine else report.to_human()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report.exit_code()


def _run(cfg, args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    report = run_suite(cfg, suite=args.suite, points=args.points,
                       seed=seed, tol=args.tol)
    return _emit(report, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riemcheck",
        description="Symbolic-numeric verification of Riemannian-map "
                    "geometry: curvature identities, Clairaut conditions, "
                    "Ricci solitons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a spec file's check suite")
    p_check.add_argument("spec", help="path to the spec file")

    p_cat = sub.add_parser("catalog", help="built-in example configurations")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list catalog entries")
    p_cat_run = cat_sub.add_parser("run", help="run a catalog entry's suite")
    p_cat_run.add_argument("name")
    for p in (p_check, p_cat_run):
        p.add_argument("--suite", nargs="+", metavar="ID",
                       help="run exactly these checks (pass/fail) instead of "
                            "the spec's suite+audit lists")
        _add_run_options(p)

    p_geo = sub.add_parser("geodesic", help="integrate a geodesic with "
                                            "invariant monitoring")
    p_geo.add_argument("spec")
    p_geo.add_argument("--from", dest="start", required=True,
                       help="start coordinates, comma-separated")
    p_geo.add_argument("--dir", dest="direction", required=True,
                       help="initial velocity, comma-separated")
    p_geo.add_argument("--t", type=float, default=10.0)
    p_geo.add_argument("--dt", type=float, default=1e-3)
    p_geo.add_argument("--monitor", choices=("clairaut", "none"),
                       default="none")
    _add_run_options(p_geo)

    args = parser.parse_args(argv)

    try:
        if args.command == "check":
            with open(args.spec) as fh:
                cfg = load_spec(fh.read(), name=os.path.basename(args.spec))
            return _run(cfg, args)

        if args.command == "catalog":
            if args.catalog_command == "list":
                for name in catalog_names():
                    print(name)
                return 0
            cfg = catalog_load(args.name)
            return _run(cfg, args)

        if args.command == "geodesic":
            with open(args.spec) as fh:
                cfg = load_spec(fh.read(), name=os.path.basename(args.spec))
            cfg.check["geodesic"] = {
                "from": [float(v) for v in args.start.split(",")],
                "dir": [float(v) for v in args.direction.split(",")],
                "t": args.t, "dt": args.dt, "monitor": args.monitor,
            }
            args.suite = ["geodesic"]
            return _run(cfg, args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"riemcheck: {exc}\n")
        return 2
    except (SpecError, KeyError, ValueError) as exc:
        sys.stderr.write(f"riemcheck: configuration error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
