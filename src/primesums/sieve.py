"""Segmented sieve of Eratosthenes with streaming delivery and exact counting.

The sieve works on odd numbers only: base primes up to sqrt(limit) are
computed once by a dense sieve, then fixed-size windows are cleared with
vectorized strided writes.  Memory stays O(sqrt(limit) + segment), so
limits in the 1e9-1e10 range are workable on one machine.  Segments are
handed to the consumer in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError

DEFAULT_SEGMENT_SIZE = 1 << 20  # odd slots per window, i.e. ~2M integers
# Every prime <= 2**53 is exact as a float64, which the weights and the grid
# comparisons rely on; the dense base sieve to isqrt(2**53) then takes ~95 MB.
MAX_LIMIT = 2**53
MAX_SEGMENT_SIZE = 1 << 24  # a 16 MB window mask


@dataclass(frozen=True)
class SieveConfig:
    """Bounds for one sieve run: inclusive upper limit and window size."""

    limit: int
    segment_size: int = DEFAULT_SEGMENT_SIZE

    def __post_init__(self) -> None:
        if self.limit < 2:
            raise ConfigError(f"sieve limit must be >= 2, got {self.limit}")
        if self.limit > MAX_LIMIT:
            raise ConfigError(f"sieve limit must be <= 2**53, got {self.limit}")
        if not 1024 <= self.segment_size <= MAX_SEGMENT_SIZE:
            raise ConfigError(
                f"segment_size must be in [1024, {MAX_SEGMENT_SIZE}], "
                f"got {self.segment_size}"
            )


@dataclass(frozen=True, eq=False)
class PrimeSegment:
    """All primes in the half-open range (lo, hi], ascending, as int64.

    Consecutive segments from one stream tile their range with no gap or
    overlap; each prime therefore belongs to exactly one segment.  Segments
    (and the arrays stream_segments puts in them) are read-only.
    """

    lo: int
    hi: int
    primes: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeSegment):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi) and np.array_equal(
            self.primes, other.primes
        )

    __hash__ = None  # type: ignore[assignment]


def base_primes(bound: int) -> list[int]:
    """Primes <= bound via a dense sieve; empty list for bound < 2."""
    if bound < 2:
        return []
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(bound) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags).tolist()


def _window_mask(wlo: int, hi: int, odd_base: list[int]) -> tuple[int, np.ndarray]:
    """Composite-clearing mask for the odd numbers in (wlo, hi], wlo odd.

    Returns (first_odd, mask) where mask[i] corresponds to first_odd + 2i.
    """
    first = wlo + 2
    if hi < first:
        return first, np.zeros(0, dtype=bool)
    mask = np.ones((hi - first) // 2 + 1, dtype=bool)
    for p in odd_base:
        pp = p * p
        if pp > hi:
            break
        # smallest odd multiple of p strictly above wlo, but never below p*p
        start = max(pp, (wlo // p + 1) * p)
        if start % 2 == 0:
            start += p
        if start > hi:
            continue
        mask[(start - first) >> 1 :: p] = False
    return first, mask


def _window_bounds(limit: int, segment_size: int, start: int) -> list[tuple[int, int]]:
    span = 2 * segment_size
    first_k = max(0, (start - 2) // span) if start > 2 else 0
    bounds = []
    lo = 1 + first_k * span
    while lo < limit:
        hi = min(lo + span, limit)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def stream_segments(cfg: SieveConfig, *, start: int = 2) -> Iterator[PrimeSegment]:
    """Yield PrimeSegments covering (start-1, limit] in ascending order.

    With start=2 (the default) the segments tile (1, limit] completely.  A
    larger start is used when resuming a run: windows below it are skipped
    and the first emitted segment is trimmed to primes >= start.  Window
    boundaries are fixed by segment_size alone.
    """
    limit = cfg.limit
    if start > limit:
        return
    odd_base = [p for p in base_primes(math.isqrt(limit)) if p != 2]
    for wlo, hi in _window_bounds(limit, cfg.segment_size, start):
        first, mask = _window_mask(wlo, hi, odd_base)
        primes = first + 2 * np.flatnonzero(mask).astype(np.int64, copy=False)
        if wlo == 1 and start <= 2:
            primes = np.concatenate((np.array([2], dtype=np.int64), primes))
        lo = wlo
        if start - 1 > wlo:
            primes = primes[np.searchsorted(primes, start) :]
            lo = start - 1
        primes.flags.writeable = False
        yield PrimeSegment(lo=lo, hi=hi, primes=primes)


def prime_array(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes <= limit as one ascending int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [seg.primes for seg in stream_segments(SieveConfig(limit, segment_size))]
    )


def prime_count(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """pi(limit): the number of primes <= limit."""
    if limit < 2:
        return 0
    odd_base = [p for p in base_primes(math.isqrt(limit)) if p != 2]
    count = 1  # the prime 2
    for wlo, hi in _window_bounds(limit, segment_size, 2):
        _, mask = _window_mask(wlo, hi, odd_base)
        count += int(np.count_nonzero(mask))
    return count
