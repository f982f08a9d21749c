"""Independent reference values and the checks made on the program's outputs.

Nothing here imports primesums: the primes come from a plain numpy sieve
written for the benchmark, the sums from math.fsum of numpy weights, and
the grid from its own loop.  The README explains the tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

# pi(10^k), OEIS A006880
LITERATURE_PI = {
    10: 4,
    100: 25,
    1000: 168,
    10**4: 1229,
    10**5: 9592,
    10**6: 78498,
    10**7: 664579,
    10**8: 5761455,
}
# Relative gap allowed between the program's S, M and the fsum reference:
# the README bounds it by 22 units of roundoff; 32 are allowed.
SUM_RTOL = 32 * 2.0**-53
CSV_HEADER = "x,pi,S,M,E,r_S,r_E_pi,r_E_x,mertens_remainder"
VERIFY_CHECK_IDS = frozenset(
    {
        "pair_identity",
        "jump_identity",
        "e_monotone",
        "scale_identity",
        "ratio_positive",
        "mertens_contraction",
        "abel_identity",
        "main_term",
        "lower_bound",
        "block_sandwich_lower",
        "block_sandwich_upper",
    }
)


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def reference_primes(limit: int) -> np.ndarray:
    """Primes <= limit from a dense odds-only sieve of Eratosthenes."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


class Reference:
    """Prime counts and weight sums for every x up to a limit."""

    def __init__(self, limit: int) -> None:
        self.primes = reference_primes(limit)
        for x, count in LITERATURE_PI.items():
            if x <= limit:
                require(
                    self.pi(x) == count,
                    f"reference sieve: pi({x}) = {self.pi(x)}, literature {count}",
                )
        p = self.primes.astype(np.float64)
        self.weights = np.sqrt(np.log(p) / p)
        self._sums: dict[float, tuple[float, float]] = {}
        self.passed: set[tuple] = set()  # (digest, x_max, ratio) of checked CSVs

    def pi(self, x: float) -> int:
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))

    def sums(self, x: float) -> tuple[float, float]:
        """(S(x), M(x)), each correctly rounded from the reference weights."""
        if x not in self._sums:
            w = self.weights[: self.pi(x)]
            self._sums[x] = (_fsum(w), _fsum(w * w))
        return self._sums[x]


def _fsum(values: np.ndarray, chunk: int = 1 << 16) -> float:
    """math.fsum of an array, converted to Python floats a chunk at a time."""
    return math.fsum(
        v for i in range(0, len(values), chunk) for v in values[i : i + chunk].tolist()
    )


def geometric_grid(start: float, x_max: float, ratio: float) -> list[float]:
    """start * ratio^k below x_max, then x_max itself."""
    points = []
    k = 0
    while start * ratio**k < x_max:
        points.append(start * ratio**k)
        k += 1
    return points + [float(x_max)]


def check_rows(path: Path, ref: Reference, x_max: int, ratio: float) -> None:
    """The checkpoint CSV against the reference and the method's properties.

    A file byte-identical to one already checked with the same arguments
    passes without being parsed again.
    """
    data = Path(path).read_bytes()
    key = (hashlib.sha256(data).digest(), x_max, ratio)
    if key in ref.passed:
        return
    fh = io.StringIO(data.decode())
    header = fh.readline().rstrip("\n")
    require(header == CSV_HEADER, f"{path}: header {header!r}")
    rows = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    grid = geometric_grid(100.0, x_max, ratio)
    require(len(rows) == len(grid), f"{path}: {len(rows)} rows, grid has {len(grid)}")
    x, pi, S, M, E = (rows[:, i] for i in range(5))
    require(np.array_equal(x, grid), f"{path}: x column is not the geometric grid")
    want_pi = np.searchsorted(ref.primes, np.floor(x), side="right")
    bad = np.flatnonzero(pi != want_pi)
    require(bad.size == 0, f"{path}: pi wrong at x = {x[bad[:1]]}")
    bad = np.flatnonzero(E != S * S - M)
    require(bad.size == 0, f"{path}: E != S^2 - M at x = {x[bad[:1]]}")
    require(bool(np.all(E >= 0.0)), f"{path}: E < 0")
    require(bool(np.all(np.diff(E) >= 0.0)), f"{path}: E decreases")
    want_S, want_M = ref.sums(x_max)
    for name, got, want in (("S", S[-1], want_S), ("M", M[-1], want_M)):
        require(
            abs(got - want) <= SUM_RTOL * want,
            f"{path}: {name}({x_max}) = {got!r}, reference {want!r}",
        )
    ref.passed.add(key)


def check_verification(path: Path) -> None:
    """Every expected check id is present and every record passes."""
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    ids = {r["check_id"] for r in records}
    require(ids == VERIFY_CHECK_IDS, f"{path}: check ids {sorted(ids ^ VERIFY_CHECK_IDS)} differ")
    failing = [r["check_id"] for r in records if r["pass"] != "1"]
    require(not failing, f"{path}: failing checks {failing}")


def check_report(path: Path) -> None:
    """Every block stat lies in its sandwich and every record passes."""
    bundle = json.loads(Path(path).read_text())
    stats = bundle["block_stats"]
    require(len(stats) > 0, f"{path}: no block stats")
    for s in stats:
        require(
            s["lower"] <= s["delta_S"] <= s["upper"],
            f"{path}: block at x = {s['x']}, lambda = {s['lambda']} outside its bounds",
        )
    failing = [r["check_id"] for r in bundle["verification_records"] if not r["pass"]]
    require(not failing, f"{path}: failing records {failing}")


def check_same_bytes(a: Path, b: Path) -> None:
    require(Path(a).read_bytes() == Path(b).read_bytes(), f"{a} and {b} differ")
