"""Weighted prime sums at scale.

Computes S(x) = sum of sqrt(log p / p) over primes p <= x, the companion
sum M(x) = sum of log(p)/p, and the derived pair sum E(x) = S(x)^2 - M(x),
alongside exact pi(x) counts.  Ships the structural-identity checks, block
inequalities, and calculus identities that tie the three together, plus a
deterministic CLI with resumable checkpoints.
"""

__version__ = "0.1.0"

from .accumulate import grid_points, run_stream
from .asymptotics import block_sandwich, sandwich_records

__all__ = ["__version__", "block_sandwich", "grid_points", "run_stream", "sandwich_records"]
