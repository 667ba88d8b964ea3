"""Workload definitions: which catalog entries a pass runs, and at how many
sample points.

Each workload is a closed loop with one client: a pass runs every entry in
order (`catalog.load`, `suites.run_suite`, `CheckReport.to_machine`), and the
next pass starts when the previous one has finished.  `points=None` keeps the
entry's own catalog point count.

- identities: the paper's own propositions.  Per-point contraction and
  single-point tape calls dominate, on top of a moderate symbolic build.
- geodesic: RK4 geodesics with the Clairaut monitor.  Single-point tape calls
  and `split_at` dominate; the symbolic and identity layers are bypassed.
- cold-build: the six entries without a geodesic check, at 4 points: the
  smoke run made while writing a spec.  Symbolic build, identity setup and
  tape compile weigh more here than evaluation.  revolution-surface and
  sphere-2 are left out because their geodesic checks do not depend on the
  point count and would make this pass mostly single-point evaluation, the
  profile the geodesic workload already measures.
"""

REFERENCE_SEED = 7

WORKLOADS = {
    "identities": {"entries": ("paper-3.1", "paper-4.1"), "points": None},
    "geodesic": {"entries": ("revolution-surface", "sphere-2"), "points": None},
    "cold-build": {
        "entries": ("euclidean-kahler", "flat-lagrangian", "gaussian-soliton",
                    "hyperbolic-2", "polar-kahler", "warped-clairaut"),
        "points": 4,
    },
}
