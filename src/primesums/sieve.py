"""Segmented sieve of Eratosthenes with streaming delivery and exact counting.

The sieve works on odd numbers only: base primes up to sqrt(limit) are
computed once by a dense sieve, then fixed-size windows are cleared.  Each
window starts as a presieve pattern, the odd numbers coprime to 3*5*7*11*13
(15015 slots, rotated to the window's first number and tiled), so only the
base primes above 13 are left to mark.  One int64 numpy pass finds every
base prime's first odd multiple in the window; a prime with many multiples
there is marked by one strided write, and the sparse ones (at most
SPARSE_HITS multiples) by one fancy-index write per group of primes with a
similar count.  The int64 arithmetic cannot overflow: base primes are at
most isqrt(2**53) < 2**27, so p*p < 2**53 and every multiple formed is at
most hi + 2p < 2**63.  A window holds one prime-sized array at a time: its
mask is dropped once the primes are read off it in place, and the
generator drops its reference to a segment once it has been yielded.
Memory stays O(sqrt(limit) + segment).  Segments are handed to the
consumer in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError

DEFAULT_SEGMENT_SIZE = 1 << 20  # odd slots per window, i.e. ~2M integers
# Every prime <= 2**53 is exact as a float64, which the weights and the grid
# comparisons rely on.  The base set-up there holds 95 MB of flags, 44 MB of primes.
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


def _dense_primes(bound: int) -> np.ndarray:
    """Primes <= bound as int64, read off a dense sieve's flags, no list."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(bound) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


def base_primes(bound: int) -> list[int]:
    """Primes <= bound via a dense sieve; empty list for bound < 2."""
    return _dense_primes(bound).tolist()


_PRESIEVE = (3, 5, 7, 11, 13)
_PERIOD = 3 * 5 * 7 * 11 * 13  # 15015 odd slots, 15 KB


def _presieve_pattern() -> np.ndarray:
    """Slot i is True when 2i + 1 has no factor in _PRESIEVE (period 2 * _PERIOD)."""
    pattern = np.ones(_PERIOD, dtype=bool)
    for p in _PRESIEVE:
        pattern[p // 2 :: p] = False
    return pattern


_PATTERN = _presieve_pattern()
SPARSE_HITS = 48  # a prime with at most this many multiples in a window is sparse
# a prime has at most k = ceil(n / p) multiples in a window of n slots; the
# sparse primes whose k falls in (_BANDS[j + 1], _BANDS[j]] are marked
# together, _BANDS[j] multiples each, in writes of _GROUP_CELLS cells
_BANDS = (SPARSE_HITS, 32, 24, 16, 12, 8, 6, 4, 3, 2, 1)
_GROUP_CELLS = 1 << 17  # 1 MB of int64 indices
_STEPS = np.arange(SPARSE_HITS)


def _sieving_primes(limit: int) -> np.ndarray:
    """The base primes for limit that the presieve leaves to the windows."""
    base = _dense_primes(math.isqrt(limit))
    return base[np.searchsorted(base, _PRESIEVE[-1], side="right") :]


def _window_mask(first: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primality of the odd numbers first, first + 2, ... <= hi (first odd).

    mask[i] is True when first + 2i is prime, or is 1.  base holds the
    sieving primes (_sieving_primes) for a limit >= hi.
    """
    n = max(0, (hi - first) // 2 + 1)
    # the pattern rotated to first and tiled, plus one spare slot that takes
    # every grouped write past hi
    mask = np.resize(np.roll(_PATTERN, -(first // 2 % _PERIOD)), n + 1)
    for p in _PRESIEVE:
        if first <= p <= hi:
            mask[(p - first) // 2] = True
    b = base[: np.searchsorted(base, math.isqrt(hi), side="right")]
    # slot of the smallest odd multiple of p above first - 2, never below p*p
    s = (first - 2) // b + 1
    s *= b
    np.maximum(s, b * b, out=s)
    s += ((s & 1) ^ 1) * b
    s -= first
    s >>= 1
    # cuts[j]: the first prime with ceil(n / p) <= _BANDS[j]
    cuts = np.searchsorted(b, -(-n // np.array(_BANDS))).tolist() + [len(b)]
    for i, p in zip(s[: cuts[0]].tolist(), b[: cuts[0]].tolist()):
        mask[i::p] = False
    for k, i, j in zip(_BANDS, cuts, cuts[1:]):
        rows = _GROUP_CELLS // k
        for g in range(i, j, rows):
            idx = b[g : min(g + rows, j), None] * _STEPS[:k]
            idx += s[g : min(g + rows, j), None]
            mask[np.minimum(idx, n, out=idx)] = False
    return mask[:n]


def _windows(limit: int, segment_size: int, start: int) -> Iterator[tuple[int, int]]:
    """(first, hi) of each window that holds a number in [start, limit].

    Windows are (1 + k*span, 1 + (k+1)*span] cut at limit, span = 2 *
    segment_size.  The first one begins at the odd number >= start, or at
    1, whose slot stands for the prime 2, when start <= 2.
    """
    span = 2 * segment_size
    lo = 1 + max(0, (start - 2) // span) * span
    first = 1 if start <= 2 else start | 1
    while lo < limit:
        hi = min(lo + span, limit)
        yield first, hi
        lo, first = hi, hi + 2


def stream_segments(cfg: SieveConfig, *, start: int = 2) -> Iterator[PrimeSegment]:
    """Yield PrimeSegments covering (start-1, limit] in ascending order.

    With start=2 (the default) the segments tile (1, limit] completely.  A
    larger start is used when resuming a run: windows below it are skipped
    and the first window is sieved from start.  Later window boundaries are
    fixed by segment_size alone.
    """
    limit = cfg.limit
    if start > limit:
        return
    base = _sieving_primes(limit)
    lo = max(1, start - 1)
    for first, hi in _windows(limit, cfg.segment_size, start):
        mask = _window_mask(first, hi, base)
        primes = np.flatnonzero(mask).astype(np.int64, copy=False)
        del mask
        primes *= 2
        primes += first
        if first == 1:
            primes[0] = 2  # the slot of 1 stands for the prime 2
        primes.flags.writeable = False
        yield PrimeSegment(lo=lo, hi=hi, primes=primes)
        del primes  # the consumer holds the segment's one array
        lo = hi


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
    base = _sieving_primes(limit)
    # the first window's slot of 1 counts the prime 2
    return sum(
        int(np.count_nonzero(_window_mask(first, hi, base)))
        for first, hi in _windows(limit, segment_size, 2)
    )
