"""riemcheck: symbolic-numeric verification of Riemannian-map geometry.

Declares charts, metrics, almost complex structures and smooth maps; computes
the curvature / O'Neill / second-fundamental-form apparatus symbolically; and
verifies Clairaut, anti-invariance, Ricci-soliton and Ricci-decomposition
conditions numerically at seeded sample points, with an explicit discrepancy
ledger for stated values that fail independent recomputation.
"""

__version__ = "0.1.0"

from .expr import backend_name  # noqa: F401
