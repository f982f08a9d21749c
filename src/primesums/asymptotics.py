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

Every check here reads a whole run at once, as the columns of its
checkpoint table.  A block's lower edge x/ratio is snapped down to the
nearest grid point of the same run, which keeps every asserted inequality
exact (any lower edge >= 3 works) while avoiding a second sieve pass.  One
searchsorted finds every edge, the bounds, bands and residuals are array
expressions, and each check reports its worst point, the first of equals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accumulate import Checkpoint, libm_log
from .errors import ConfigError
from .verify import VerificationRecord, worst_record

BAND_SERIES = ("r_S", "r_E_pi", "r_E_x", "mertens_remainder")
AN_SN_SERIES = "anS"

_MIN_BLOCK_EDGE = 3.0  # smallest prime above e; w is decreasing from here on


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
    """Every block (x_lower, x] of a run with its exact sandwich bounds, one
    array per column, in x-major order over (x, lam).

    lam is the requested block ratio; x_lower is the grid point that x/lam
    snapped down to, so the effective ratio x/x_lower is >= lam.
    """

    x: np.ndarray
    lam: np.ndarray
    x_lower: np.ndarray
    delta_S: np.ndarray
    delta_pi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


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


def block_sandwich(checkpoints: Checkpoint, lambdas: Sequence[float]) -> Blocks:
    """Block sums over every block (x_lower, x] of the run, at each ratio
    of lambdas, with their exact bounds: every prime in a block has
    w(x) <= w(p) <= w(x_lower), so

        delta_pi * w(x) <= delta_S <= delta_pi * w(x_lower).
    """
    x, pi, S = checkpoints.x, checkpoints.pi, checkpoints.S
    w = np.sqrt(libm_log(x) / x)
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
    checkpoints: Checkpoint, A: float, tolerance: float = 1e-12
) -> list[VerificationRecord]:
    """The worst grid point x of S(x) >= (M(x) - M(y)) / w(y), with y the
    grid point x/A snaps down to; none when no x/A reaches the grid.
    Exact mathematics for any y >= 3; the tolerance only covers rounding."""
    x, S, M = checkpoints.x, checkpoints.S, checkpoints.M
    hi, _, lo = _edges(x, (A,))
    if not len(hi):
        return []
    bound = (M[hi] - M[lo]) / np.sqrt(libm_log(x[lo]) / x[lo])
    return [_bound_record("lower_bound", x[hi], S[hi], bound, bound - S[hi], tolerance)]


def series_band(name: str, at: np.ndarray, values: np.ndarray) -> RatioBand:
    """inf/sup of values with their locations at, each the first of equals."""
    if not len(values):
        raise ConfigError(f"no samples to band for series {name!r}")
    i, j = int(np.argmin(values)), int(np.argmax(values))
    return RatioBand(
        name=name,
        x_min=float(at.min()),
        x_max=float(at.max()),
        inf_value=float(values[i]),
        inf_at=float(at[i]),
        sup_value=float(values[j]),
        sup_at=float(at[j]),
    )


def empirical_constants(
    checkpoints: Checkpoint,
    x_min: float,
    x_max: float = math.inf,
) -> list[RatioBand]:
    """Bands of the four checkpoint series over checkpoints with
    x_min <= x <= x_max; these are the run's empirical constants."""
    selected = checkpoints.select((x_min <= checkpoints.x) & (checkpoints.x <= x_max))
    if not len(selected):
        raise ConfigError(f"no checkpoints in window [{x_min}, {x_max}]")
    return [series_band(name, selected.x, getattr(selected, name)) for name in BAND_SERIES]


def _samples(samples: Sequence[tuple[int, float]], n_min: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampled n >= n_min, as floats, and their values a_n * S_{n-1}."""
    n, values = np.array(samples, dtype=np.float64).reshape(-1, 2).T
    return n[n >= n_min], values[n >= n_min]


def an_sn_band(samples: Sequence[tuple[int, float]], n_min: int = 2) -> RatioBand:
    """Band of a_n * S_{n-1} over sampled n >= n_min (n=1 is always zero
    and excluded).  Locations are the sample indices n."""
    return series_band(AN_SN_SERIES, *_samples(samples, n_min))


def mertens_width(checkpoints: Checkpoint, lo: float, hi: float) -> float:
    """max - min of the Mertens remainder over checkpoints in [lo, hi]."""
    values = checkpoints.mertens_remainder[(lo <= checkpoints.x) & (checkpoints.x <= hi)]
    if not len(values):
        raise ConfigError(f"no checkpoints in window [{lo}, {hi}]")
    return float(values.max() - values.min())


def mertens_contraction_record(
    checkpoints: Checkpoint,
    early_window: tuple[float, float] = (1e2, 1e4),
    late_window: tuple[float, float] = (1e6, 1e8),
) -> VerificationRecord:
    """Pass iff the Mertens-remainder fluctuation over the late window is
    strictly smaller than over the early window, located at the last
    checkpoint in the late window.

    A late window that holds one checkpoint has width 0 and passes
    whatever the data.  The record is still made: the benchmark's output
    checks require a mertens_contraction record on every run, so refusing
    such a window waits for a change to those checks.
    """
    early = mertens_width(checkpoints, *early_window)
    late = mertens_width(checkpoints, *late_window)
    violation = max(0.0, late - early) / max(1.0, early)
    return VerificationRecord(
        check_id="mertens_contraction",
        location=float(checkpoints.x[checkpoints.x <= late_window[1]][-1]),
        lhs=late,
        rhs=early,
        residual=violation,
        tolerance=0.0,
        passed=late < early,
    )


def scale_identity_record(
    checkpoints: Checkpoint, tolerance: float = 1e-12
) -> VerificationRecord:
    """r_E_x / r_E_pi must equal pi(x) * log(x) / x, a pure algebraic
    consistency among the ratio fields; reports the worst checkpoint."""
    cp = checkpoints.select(checkpoints.x >= 3.0)
    if not len(cp):
        raise ConfigError("no checkpoints with x >= 3 to check")
    rhs = cp.pi * libm_log(cp.x) / cp.x
    return worst_record("scale_identity", cp.x, cp.r_E_x / cp.r_E_pi, rhs, tolerance)


def ratio_positivity_record(
    checkpoints: Checkpoint,
    an_sn_samples: Sequence[tuple[int, float]] = (),
    x_min: float = 100.0,
) -> VerificationRecord:
    """All of r_S, r_E_pi, r_E_x (for x >= x_min) and a_n S_{n-1} (for
    n >= 2) must be finite and strictly positive; a NaN counts as -inf.
    Reports the lowest value, the first of equals, checkpoints before
    samples."""
    cp = checkpoints
    low = np.minimum(np.minimum(cp.r_S, cp.r_E_pi), cp.r_E_x)[cp.x >= x_min]
    n, values = _samples(an_sn_samples, 2)
    # +inf at x_min leads, so only a value below it moves the worst point
    at = np.concatenate(([x_min], cp.x[cp.x >= x_min], n))
    values = np.concatenate(([math.inf], low, values))
    values[np.isnan(values)] = -math.inf
    i = int(np.argmin(values))
    worst, location = float(values[i]), float(at[i])
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
