"""Ratio tracking, block bounds, and empirical constant extraction.

Nothing here proves an order-of-magnitude statement; the point is to
measure the quantities that would appear in one.  Checkpoints carry

    r_S   = S / sqrt(x/log x)
    r_E_pi = E / pi(x)
    r_E_x  = E log(x) / x
    mertens_remainder = M - log x

and this module extracts their inf/sup bands over a window, checks the
exact block inequalities that follow from w being decreasing beyond e,
and samples a_n * S_{n-1}.

The block checks read a whole run at once, as arrays of its checkpoint
fields.  A block's lower edge x/ratio is snapped down to the nearest grid
point of the same run, which keeps every asserted inequality exact (any
lower edge >= 3 works) while avoiding a second sieve pass.  One
searchsorted finds every edge, the bounds and residuals are array
expressions, and each check reports its worst point, the first of equals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .accumulate import Checkpoint
from .errors import ConfigError
from .verify import VerificationRecord, worst_record

BAND_SERIES = ("r_S", "r_E_pi", "r_E_x", "mertens_remainder")
AN_SN_SERIES = "anS"

_MIN_BLOCK_EDGE = 3.0  # smallest prime above e; w is decreasing from here on


@dataclass(frozen=True)
class BlockStat:
    """Sums over one block (x_lower, x] with the exact sandwich bounds.

    lam is the requested block ratio; x_lower is the grid point that
    x/lam snapped down to, so the effective ratio x/x_lower is >= lam.
    """

    x: float
    lam: float
    x_lower: float
    delta_S: float
    delta_pi: int
    lower: float
    upper: float


@dataclass(frozen=True)
class RatioBand:
    """Empirical inf/sup of one tracked series over an x-window."""

    name: str
    x_min: float
    x_max: float
    inf_value: float
    inf_at: float
    sup_value: float
    sup_at: float


@dataclass(frozen=True, eq=False)
class Blocks:
    """Every block of a run, one array per BlockStat field, in x-major
    order over (x, lam)."""

    x: np.ndarray
    lam: np.ndarray
    x_lower: np.ndarray
    delta_S: np.ndarray
    delta_pi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def stats(self) -> list[BlockStat]:
        """The blocks as BlockStat rows, as report.json lists them."""
        cols = (getattr(self, f.name).tolist() for f in fields(BlockStat))
        return [BlockStat(*row) for row in zip(*cols)]


def _columns(checkpoints: Sequence[Checkpoint], *names: str) -> tuple[np.ndarray, ...]:
    """x, the named fields and log(x) of the checkpoints, an array each.
    The log is the C library's, as eval_w and snapshot take it, so that no
    bit moves."""
    x, *cols = (np.array([getattr(cp, n) for cp in checkpoints]) for n in ("x", *names))
    return (x, *cols, np.array([math.log(v) for v in x.tolist()]))


def _edges(
    x: np.ndarray, ratios: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, k, lo): the block (x[lo], x[hi]] of ratio ratios[k], for every
    pair (hi, k) in x-major order whose edge x[hi]/ratios[k] is >= 3 and
    not below the first grid point; x[lo] is that edge snapped down.  x
    strictly ascends, as in every run and every checkpoint file that loads."""
    if any(r <= 1.0 for r in ratios):
        raise ConfigError(f"block ratios must be > 1, got {tuple(ratios)}")
    edge = x[:, None] / np.asarray(ratios, dtype=np.float64)
    lo = np.searchsorted(x, edge, side="right") - 1
    hi, k = np.nonzero((edge >= _MIN_BLOCK_EDGE) & (lo >= 0))
    return hi, k, lo[hi, k]


def _bound_record(
    check_id: str, x: np.ndarray, value: np.ndarray, bound: np.ndarray,
    violation: np.ndarray, tolerance: float,
) -> VerificationRecord:
    """The worst point of a one-sided bound on value: its residual is the
    violation over max(1, |bound|), and zero where the bound holds."""
    residual = np.maximum(0.0, violation) / np.maximum(1.0, np.abs(bound))
    return worst_record(check_id, x, value, bound, tolerance, residual)


def block_sandwich(checkpoints: Sequence[Checkpoint], lambdas: Sequence[float]) -> Blocks:
    """Block sums over every block (x_lower, x] of the run, at each ratio
    of lambdas, with their exact bounds: every prime in a block has
    w(x) <= w(p) <= w(x_lower), so

        delta_pi * w(x) <= delta_S <= delta_pi * w(x_lower).
    """
    x, pi, S, log_x = _columns(checkpoints, "pi", "S")
    w = np.sqrt(log_x / x)
    hi, k, lo = _edges(x, lambdas)
    delta_pi = pi[hi] - pi[lo]
    return Blocks(
        x=x[hi],
        lam=np.asarray(lambdas, dtype=np.float64)[k],
        x_lower=x[lo],
        delta_S=S[hi] - S[lo],
        delta_pi=delta_pi,
        lower=delta_pi * w[hi],
        upper=delta_pi * w[lo],
    )


def sandwich_records(
    blocks: Blocks, tolerance: float = 1e-12
) -> list[VerificationRecord]:
    """The worst block of each side of the sandwich, lower side first;
    none when there are no blocks."""
    if not len(blocks.x):
        return []
    x, s, lower, upper = blocks.x, blocks.delta_S, blocks.lower, blocks.upper
    return [
        _bound_record("block_sandwich_lower", x, s, lower, lower - s, tolerance),
        _bound_record("block_sandwich_upper", x, s, upper, s - upper, tolerance),
    ]


def lower_bound_check(
    checkpoints: Sequence[Checkpoint], A: float, tolerance: float = 1e-12
) -> list[VerificationRecord]:
    """The worst grid point x of S(x) >= (M(x) - M(y)) / w(y), with y the
    grid point x/A snaps down to; none when no x/A reaches the grid.
    Exact mathematics for any y >= 3; the tolerance only covers rounding."""
    x, S, M, log_x = _columns(checkpoints, "S", "M")
    hi, _, lo = _edges(x, (A,))
    if not len(hi):
        return []
    bound = (M[hi] - M[lo]) / np.sqrt(log_x[lo] / x[lo])
    return [_bound_record("lower_bound", x[hi], S[hi], bound, bound - S[hi], tolerance)]


def series_band(name: str, samples: Sequence[tuple[float, float]]) -> RatioBand:
    """inf/sup with arg-locations over (location, value) samples."""
    if not samples:
        raise ConfigError(f"no samples to band for series {name!r}")
    inf_at, inf_value = samples[0]
    sup_at, sup_value = samples[0]
    for at, value in samples:
        if value < inf_value:
            inf_value, inf_at = value, at
        if value > sup_value:
            sup_value, sup_at = value, at
    return RatioBand(
        name=name,
        x_min=min(at for at, _ in samples),
        x_max=max(at for at, _ in samples),
        inf_value=inf_value,
        inf_at=inf_at,
        sup_value=sup_value,
        sup_at=sup_at,
    )


def empirical_constants(
    checkpoints: Sequence[Checkpoint],
    x_min: float,
    x_max: float = math.inf,
) -> list[RatioBand]:
    """Bands of the four checkpoint series over checkpoints with
    x_min <= x <= x_max; these are the run's empirical constants."""
    selected = [cp for cp in checkpoints if x_min <= cp.x <= x_max]
    if not selected:
        raise ConfigError(f"no checkpoints in window [{x_min}, {x_max}]")
    bands = []
    for name in BAND_SERIES:
        samples = [(cp.x, getattr(cp, name)) for cp in selected]
        bands.append(series_band(name, samples))
    return bands


def an_sn_band(samples: Sequence[tuple[int, float]], n_min: int = 2) -> RatioBand:
    """Band of a_n * S_{n-1} over sampled n >= n_min (n=1 is always zero
    and excluded).  Locations are the sample indices n."""
    kept = [(float(n), v) for n, v in samples if n >= n_min]
    return series_band(AN_SN_SERIES, kept)


def mertens_width(
    checkpoints: Sequence[Checkpoint], lo: float, hi: float
) -> float:
    """max - min of the Mertens remainder over checkpoints in [lo, hi]."""
    values = [cp.mertens_remainder for cp in checkpoints if lo <= cp.x <= hi]
    if not values:
        raise ConfigError(f"no checkpoints in window [{lo}, {hi}]")
    return max(values) - min(values)


def mertens_contraction_record(
    checkpoints: Sequence[Checkpoint],
    early_window: tuple[float, float] = (1e2, 1e4),
    late_window: tuple[float, float] = (1e6, 1e8),
) -> VerificationRecord:
    """Pass iff the Mertens-remainder fluctuation over the late window is
    strictly smaller than over the early window."""
    early = mertens_width(checkpoints, *early_window)
    late = mertens_width(checkpoints, *late_window)
    violation = max(0.0, late - early) / max(1.0, early)
    return VerificationRecord(
        check_id="mertens_contraction",
        location=late_window[1],
        lhs=late,
        rhs=early,
        residual=violation,
        tolerance=0.0,
        passed=late < early,
    )


def scale_identity_record(
    checkpoints: Sequence[Checkpoint], tolerance: float = 1e-12
) -> VerificationRecord:
    """r_E_x / r_E_pi must equal pi(x) * log(x) / x, a pure algebraic
    consistency among the ratio fields; reports the worst checkpoint."""
    x, pi, r_E_x, r_E_pi, log_x = _columns(
        [cp for cp in checkpoints if cp.x >= 3.0], "pi", "r_E_x", "r_E_pi")
    if not len(x):
        raise ConfigError("no checkpoints with x >= 3 to check")
    return worst_record("scale_identity", x, r_E_x / r_E_pi, pi * log_x / x, tolerance)


def ratio_positivity_record(
    checkpoints: Sequence[Checkpoint],
    an_sn_samples: Sequence[tuple[int, float]] = (),
    x_min: float = 100.0,
) -> VerificationRecord:
    """All of r_S, r_E_pi, r_E_x (for x >= x_min) and a_n S_{n-1} (for
    n >= 2) must be finite and strictly positive."""
    worst = math.inf
    location = x_min
    for cp in checkpoints:
        if cp.x < x_min:
            continue
        low = min(cp.r_S, cp.r_E_pi, cp.r_E_x)
        if math.isnan(low):
            low = -math.inf
        if low < worst:
            worst, location = low, cp.x
    for n, value in an_sn_samples:
        if n >= 2 and value < worst:
            worst, location = value, float(n)
    passed = worst > 0.0 and math.isfinite(worst)
    violation = 0.0 if passed else 1.0
    return VerificationRecord(
        check_id="ratio_positive",
        location=location,
        lhs=worst,
        rhs=0.0,
        residual=violation,
        tolerance=0.0,
        passed=passed,
    )
