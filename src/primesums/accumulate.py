"""Streaming accumulation of the weighted prime sums.

For the n-th prime p_n the weight is a_n = sqrt(log(p_n)/p_n), defined
once by weights().  Its log, numpy's natural log, is the one log behind
every stored column and every check on stored data: the table's log x,
the block bounds and the Abel pass all take w and log x from numpy too.
The stream maintains

    S = sum a_k,    M = sum a_k^2,    E = S^2 - M,

where S and M are exact.  Every weight and every squared weight a_k*a_k
(a double) of a prime <= 2**53 is a multiple of 2**-120, so the sums are
held as Python ints in units of 2**-120 and rounded to a double only when
read.  They therefore do not depend on the order of the additions, the
block or segment boundaries, or where a run was split and resumed.  E is
never accumulated: the checkpoint table computes it as S^2 - M, which
suffers no cancellation at scale (E grows like x/log x while M grows like
log x).

Bulk absorption takes int64 prime arrays in blocks of BLOCK primes: numpy
computes the weights, splits each value exactly into 40-bit int64 limbs
and sums the limbs; only block totals become Python ints.  A prefix sum
within a block is formed only where a mark or a sample reads it.

Checkpoints are one table over a geometric x-grid, held as its four stored
columns x, pi, S and M, with E and the ratios derived where they are read;
sums are inclusive (p <= x), and a grid point that lands exactly on a
prime counts that prime.  stream_rows hands the table out a slice of at
most SLICE rows at a time, which compute writes as it comes; run_stream
collects the slices into the whole table for in-process callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, SequencingError
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, stream_segments

MAX_GRID_POINTS = 10_000_000

FRAC_BITS = 120  # the exact sums are integers in units of 2**-FRAC_BITS
_SCALE = float(1 << FRAC_BITS)
_UNIT = 1.0 / _SCALE  # float(int) rounds correctly, and scaling by it is exact
_LIMB_BITS = 40
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_SCALE = float(1 << _LIMB_BITS)
# Primes per numpy block: keeps limb sums below 2**63 and the block's
# arrays at a few MB whatever the segment size.
BLOCK = 1 << 13
# marks of a block rounded at a time: a block with a mark at every prime
# forms its gathered limbs and rounding carries a chunk at a time
MARK_CHUNK = 1 << 11
# grid points stream_rows reads at a time: bounds a slice's arrays
SLICE = 1 << 13


@dataclass(frozen=True)
class WeightedPrimeTerm:
    """One prime with its weight a_n and squared weight a_n^2.

    weight_sq is stored as weight*weight (the square of the rounded
    weight, within 2 ulps of log(prime)/prime) so that S_1^2 - M_1 is
    exactly zero and every snapshot satisfies E >= 0.
    """

    index: int
    prime: int
    weight: float
    weight_sq: float


def weights(primes: np.ndarray) -> np.ndarray:
    """a = sqrt(log p / p) for an array of primes, or of any t > 1.

    The one definition of the weight w: extend_primes, term_stream, the
    w the pair and jump checks read beside the accumulator's S and M, the
    block bounds at grid points, the Abel pass (h = 1/w) and the one-value
    references in tests/oracles.py all call it, so no two paths can differ
    by the last-bit gap between numpy's log and the C library's.
    """
    pf = np.asarray(primes, dtype=np.float64)
    return np.sqrt(np.log(pf) / pf)


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """The checkpoint table of a run: a row per grid point x in ascending
    order, held as the four columns the checkpoint file stores, pi as int64.

    E and the four ratios are derived where they are read: the first read
    of any forms all five (derived), which the table then keeps.  Ratio
    columns are NaN below x = 3, where the x/log x scales are not
    meaningful; every pipeline grid starts at 3 or above.
    """

    x: np.ndarray
    pi: np.ndarray
    S: np.ndarray
    M: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    @cached_property
    def derived(self) -> dict[str, np.ndarray]:
        """E = S*S - M and the four ratios, in one pass: the one formula of
        the derived columns."""
        x, S, M = self.x, self.S, self.M
        E = S * S - M
        scaled = x >= 3.0
        lx = np.full(len(x), math.nan)  # NaN below 3 carries into r_S, r_E_x, M - lx
        lx[scaled] = np.log(x[scaled])
        return {
            "E": E,
            "r_S": S / np.sqrt(x / lx),
            "r_E_pi": E / np.where(scaled, self.pi, math.nan),
            "r_E_x": E * lx / x,
            "mertens_remainder": M - lx,
        }

    E = property(lambda self: self.derived["E"])
    r_S = property(lambda self: self.derived["r_S"])
    r_E_pi = property(lambda self: self.derived["r_E_pi"])
    r_E_x = property(lambda self: self.derived["r_E_x"])
    mertens_remainder = property(lambda self: self.derived["mertens_remainder"])

    def select(self, rows) -> "Checkpoint":
        """The table of the rows a boolean mask, index array or slice picks,
        with those rows of the derived columns if they are already formed."""
        out = Checkpoint(self.x[rows], self.pi[rows], self.S[rows], self.M[rows])
        if "derived" in vars(self):  # the cache of the derived property
            vars(out)["derived"] = {k: v[rows] for k, v in self.derived.items()}
        return out


def checkpoint_table(x, pi, S, M) -> Checkpoint:
    """The checkpoint table at grid points x with prime counts pi and sums
    S, M there, as float64 and int64 columns; snapshot is its one-row case."""
    return Checkpoint(
        np.asarray(x, dtype=np.float64),
        np.asarray(pi, dtype=np.int64),
        np.asarray(S, dtype=np.float64),
        np.asarray(M, dtype=np.float64),
    )


def _limbs(v: np.ndarray) -> np.ndarray:
    """Exact int64 limbs [hi, mid, lo] of values v, v = (hi*2**80 +
    mid*2**40 + lo) * 2**-120, on a new first axis.

    v must lie in (-512, 512) and be a multiple of 2**-120, as every weight,
    squared weight and pair product of weights of primes <= 2**53 is.
    Scaling by 2**40, truncating and subtracting the truncation are exact
    for either sign (a floor is not: 1 - 3*2**-54 rounds), so no bit is
    lost, the three limbs share the sign of v, and sums of BLOCK limbs stay
    below 2**63 in magnitude.  Limb-major, so sums over v are contiguous.
    """
    out = np.empty((3,) + v.shape, dtype=np.int64)
    r = v * _LIMB_SCALE
    f = np.empty_like(r)
    for k in range(2):
        np.trunc(r, out=f)
        out[k] = f
        r -= f
        r *= _LIMB_SCALE
    out[2] = r  # an integer by now
    return out


def _to_int(limbs: np.ndarray) -> int:
    """The integer hi*2**80 + mid*2**40 + lo of one limb triple."""
    hi, mid, lo = limbs.tolist()
    return (hi << 2 * _LIMB_BITS) + (mid << _LIMB_BITS) + lo


def _prefix_limbs(limbs: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The limb sums of limbs[..., :c] for each c of cuts (not empty,
    ascending, in 0..n = limbs.shape[-1]), on the last axis: one running
    sum where cuts are dense, else the running sums of the sums between
    distinct cuts."""
    n = limbs.shape[-1]
    if len(cuts) > n >> 3:  # past one cut in 8 values, the running sum costs less
        run = np.zeros(limbs.shape[:-1] + (n + 1,), dtype=np.int64)
        np.cumsum(limbs, axis=-1, out=run[..., 1:])
        return run[..., cuts]
    inner = cuts[(cuts > 0) & (cuts < n)]
    starts = inner[np.diff(inner, prepend=0) > 0]
    run = np.zeros(limbs.shape[:-1] + (len(starts) + 2,), dtype=np.int64)
    np.cumsum(np.add.reduceat(limbs, np.concatenate(([0], starts)), axis=-1),
              axis=-1, out=run[..., 1:])
    return run[..., np.searchsorted(starts, cuts) + (cuts > 0)]


def _round_prefixes(base: int, prefix: np.ndarray) -> np.ndarray:
    """(base + prefix[:, i]) * 2**-120 rounded to the nearest double, each i.

    prefix holds limb sums [hi, mid, lo] as int64 columns, of either sign;
    top, from the largest limbs, bounds every |base + prefix|.  Each
    value's bits from 2**k up are gathered into an int64 h < 2**63, and
    whether any bit below 2**k is set goes into h's last bit; the carries
    are arithmetic shifts and masks, so they are exact for negative limbs
    and bases too.  When h has at least 55 bits that last bit lies below
    the rounding position, so one int64 -> float64 conversion rounds as
    the full value would.  Any other value, negative or near zero, is
    rounded from the exact Python int instead.
    """
    top = abs(base) + _to_int(np.abs(prefix).max(axis=1, initial=0))
    k = max(top.bit_length() - 63, _LIMB_BITS)
    low = base & ((1 << k) - 1)
    x0 = prefix[2] + (low & _LIMB_MASK)
    x1 = prefix[1] + ((low >> _LIMB_BITS) & _LIMB_MASK) + (x0 >> _LIMB_BITS)
    x2 = prefix[0] + (low >> 2 * _LIMB_BITS) + (x1 >> _LIMB_BITS)
    x0 &= _LIMB_MASK
    x1 &= _LIMB_MASK
    if k <= 2 * _LIMB_BITS:
        h = (x2 << (2 * _LIMB_BITS - k)) | (x1 >> (k - _LIMB_BITS))
        sticky = (x1 & ((1 << (k - _LIMB_BITS)) - 1)) | x0
    else:
        h = x2 >> (k - 2 * _LIMB_BITS)
        sticky = (x2 & ((1 << (k - 2 * _LIMB_BITS)) - 1)) | x1 | x0
    h += base >> k
    out = np.ldexp((h | (sticky != 0)).astype(np.float64), k - FRAC_BITS)
    for i in np.flatnonzero(h < (1 << 54)).tolist():
        out[i] = float(base + _to_int(prefix[:, i])) * _UNIT
    return out


class SumState:
    """Single-writer streaming accumulator; strictly sequential by design.

    S and M are exact integers in units of 2**-120, the sums of a_n and of
    a_n*a_n (the rounded double); S_total and M_total round them correctly.
    The rest is what a resume continues from: n, the last prime, and
    a_n * S_{n-1} at the last n.  The state after a run of primes is the
    same however it is split into calls.
    """

    # also the keys of the checkpoint file's state, by name
    __slots__ = ("n", "last_prime", "S", "M", "last_anS")

    def __init__(self) -> None:
        self.n = 0
        self.last_prime = 0
        self.S = 0
        self.M = 0
        self.last_anS = 0.0

    @property
    def S_total(self) -> float:
        return float(self.S) * _UNIT

    @property
    def M_total(self) -> float:
        return float(self.M) * _UNIT

    def extend_primes(
        self,
        primes: Sequence[int] | np.ndarray,
        samples: list[tuple[int, float]] | None = None,
        marks: Sequence[int] = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk absorb ascending primes, the first above last_prime (else
        SequencingError).

        Bit-identical to the one-term push of tests/oracles.py for each
        prime in turn, and to any split of primes over several calls.
        samples, if given, gets (n, a_n * S_{n-1}) at each power-of-two n.
        marks are ascending prefix lengths of primes; the result is S and M,
        correctly rounded, after the first marks[i] primes, for each i.  A
        block adds its limb totals; prefixes are summed only where read, and
        rounded MARK_CHUNK marks at a time.
        """
        primes = np.asarray(primes, dtype=np.int64)
        if len(primes) and primes[0] <= self.last_prime:
            raise SequencingError(f"prime {primes[0]} not above last absorbed {self.last_prime}")
        marks = np.asarray(marks, dtype=np.int64)
        s_at, m_at = np.empty(len(marks)), np.empty(len(marks))
        mi = int(np.searchsorted(marks, 0, side="right"))
        s_at[:mi], m_at[:mi] = self.S_total, self.M_total
        for b0 in range(0, len(primes), BLOCK):
            w = weights(primes[b0 : b0 + BLOCK])
            n0, s0, m0 = self.n, self.S, self.M
            lw = _limbs(np.stack((w, w * w)))  # (limb, [w, w*w], prime)
            total = lw.sum(axis=2)
            self.n = n0 + len(w)
            self.S = s0 + _to_int(total[:, 0])
            self.M = m0 + _to_int(total[:, 1])
            ks = [1 << e for e in range(n0.bit_length(), self.n.bit_length())]  # in (n0, n]
            if samples is not None and ks:
                j = np.array(ks) - n0 - 1  # S_{k-1} is s0 plus w[:j]
                s_prev = _round_prefixes(s0, _prefix_limbs(lw[:, 0], j))
                samples.extend(zip(ks, (w[j] * s_prev).tolist()))
            mj = int(np.searchsorted(marks, b0 + len(w), side="right"))
            lo = 0  # the sums of the block's first lo primes are added to s0 and m0
            for i in range(mi, mj, MARK_CHUNK):  # the marks in the block, a chunk at a time
                cuts = marks[i : min(i + MARK_CHUNK, mj)] - b0
                pre = _prefix_limbs(lw[..., lo : cuts[-1]], cuts - lo)
                s_at[i : i + len(cuts)] = _round_prefixes(s0, pre[:, 0])
                m_at[i : i + len(cuts)] = _round_prefixes(m0, pre[:, 1])
                s0, m0 = s0 + _to_int(pre[:, 0, -1]), m0 + _to_int(pre[:, 1, -1])
                lo = int(cuts[-1])
            mi = mj
        if len(primes):
            # w_last * 2**120 is an integer, so S_{n-1} = S - w_last is exact
            w_last = float(w[-1])
            self.last_prime = int(primes[-1])
            self.last_anS = w_last * (float(self.S - int(w_last * _SCALE)) * _UNIT)
        return s_at, m_at


def snapshot(state: SumState, x: float) -> Checkpoint:
    """The one-row checkpoint table of the sums at x.

    Valid only while x is at or beyond the last absorbed prime and below
    the next unabsorbed one, so the sums over p <= x equal the state; the
    caller owns the upper side of that window.
    """
    if x < state.last_prime:
        raise SequencingError(
            f"snapshot at x={x} behind last absorbed prime {state.last_prime}"
        )
    if x >= 2.0 and state.n == 0:
        raise SequencingError(f"snapshot at x={x} before any prime was absorbed")
    return checkpoint_table([x], [state.n], [state.S_total], [state.M_total])


def check_grid(x_start: float, x_max: float, ratio: float) -> None:
    """Refuse (ConfigError) a grid that grid_points cannot build: every
    bound is written so that NaN fails it, and the points are counted in
    closed form, before any is built."""
    if not 3.0 <= x_start < math.inf:
        raise ConfigError(f"grid_start must be finite and >= 3, got {x_start}")
    if not x_start <= x_max < math.inf:
        raise ConfigError(f"x_max must be finite and >= grid_start {x_start}, got {x_max}")
    if not 1.0 < ratio < math.inf:
        raise ConfigError(f"grid_ratio must be finite and > 1, got {ratio}")
    if math.log(x_max / x_start) / math.log(ratio) > MAX_GRID_POINTS:
        raise ConfigError("grid ratio too close to 1: more than 1e7 points")


def grid_points(x_start: float, x_max: float, ratio: float) -> np.ndarray:
    """Geometric grid x_start * ratio**k (Python's float **) clipped to
    x_max, with x_max as the final point whether or not it lies on the
    lattice, as a float64 array; check_grid refuses first a grid it cannot
    build."""
    check_grid(x_start, x_max, ratio)
    ratio = float(ratio)
    # n: the first k with x_start * ratio**k >= x_max, from its closed form
    n = math.ceil(math.log(x_max / x_start) / math.log(ratio))
    while n > 0 and x_start * ratio ** (n - 1) >= x_max:
        n -= 1
    while x_start * ratio**n < x_max:
        n += 1
    points = np.fromiter(chain(map(ratio.__pow__, range(n)), [1.0]), np.float64, n + 1)
    points *= x_start
    points[n] = x_max
    return points


@dataclass
class RunResult:
    """Everything one accumulation pass produces."""

    checkpoints: Checkpoint
    state: SumState
    power_samples: list[tuple[int, float]]

    @property
    def an_sn_samples(self) -> list[tuple[int, float]]:
        """a_n * S_{n-1} at the power-of-two n (power_samples) and the final n."""
        n = self.state.n
        return self.power_samples + ([(n, self.state.last_anS)] if n & (n - 1) else [])


def stream_rows(
    x_max: float,
    grid: Sequence[float],
    state: SumState,
    samples: list[tuple[int, float]],
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> Iterator[Checkpoint]:
    """Sieve to x_max, fold every prime into state, and hand out the sums
    at the grid points as consecutive slices of the checkpoint table, at
    most SLICE rows each; samples gets a_n * S_{n-1} at each power-of-two n.

    grid must be strictly ascending, not below the state's last prime and
    not above x_max (else SequencingError, raised before any work).  A
    window's primes are split at the last point of each slice it holds,
    which extend_primes absorbs bit-identically under any split, so memory
    holds one window's primes and one slice's arrays, whatever the grid.
    """
    limit = int(math.floor(x_max))
    if limit < 2:
        raise ConfigError(f"x_max must be >= 2, got {x_max}")
    grid = np.asarray(grid, dtype=np.float64)
    if len(grid) and grid[0] < state.last_prime:
        raise SequencingError(
            f"grid point x={grid[0]} behind last absorbed prime {state.last_prime}"
        )
    if len(grid) and not grid[-1] <= x_max:
        raise SequencingError(f"grid point x={grid[-1]} beyond x_max={x_max}")
    bad = np.flatnonzero(~(grid[:-1] < grid[1:]))
    if len(bad):
        raise SequencingError(f"grid point x={grid[bad[0] + 1]} does not follow "
                              f"x={grid[bad[0]]} in strictly ascending order")
    return _slices(limit, grid, state, samples, segment_size)


def _slices(limit, grid, state, samples, segment_size) -> Iterator[Checkpoint]:
    gi = 0
    if state.last_prime < limit:
        cfg = SieveConfig(limit=limit, segment_size=segment_size)
        for seg in stream_segments(cfg, start=state.last_prime + 1):
            n0, lo = state.n, 0  # the primes before the window, and of it absorbed
            gj = int(np.searchsorted(grid, seg.hi, side="right"))
            for g in range(gi, gj, SLICE):
                x = grid[g : min(g + SLICE, gj)]
                cuts = np.searchsorted(seg.primes, x, side="right")
                first = np.flatnonzero(np.diff(cuts, prepend=-1))  # of each distinct cut
                s_at, m_at = state.extend_primes(seg.primes[lo : cuts[-1]], samples,
                                                 cuts[first] - lo)
                runs = np.diff(first, append=len(cuts))  # the points that share it
                yield checkpoint_table(x, n0 + cuts, np.repeat(s_at, runs), np.repeat(m_at, runs))
                lo = int(cuts[-1])
            state.extend_primes(seg.primes[lo:], samples)
            gi = gj
            del seg  # not kept alive while the next window is sieved
    # grid points past the last segment hold every prime absorbed
    for g in range(gi, len(grid), SLICE):
        x = grid[g : g + SLICE]
        yield checkpoint_table(x, *(np.full(len(x), v) for v in
                                    (state.n, state.S_total, state.M_total)))


def run_stream(
    x_max: float,
    grid: Sequence[float],
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    state: SumState | None = None,
    samples: list[tuple[int, float]] | None = None,
) -> RunResult:
    """The whole checkpoint table of stream_rows, its slices collected, with
    the state and the power-of-two samples: for in-process callers.

    Pass a restored state (and its power-of-two samples) to continue an
    earlier run bit-identically; the samples given are copied, not extended.
    """
    state = state if state is not None else SumState()
    samples = list(samples or ())
    grid = np.asarray(grid, dtype=np.float64)
    pi = np.empty(len(grid), dtype=np.int64)
    S, M = np.empty(len(grid)), np.empty(len(grid))
    i = 0
    for rows in stream_rows(x_max, grid, state, samples, segment_size=segment_size):
        at = slice(i, i + len(rows))
        pi[at], S[at], M[at] = rows.pi, rows.S, rows.M
        i = at.stop
    return RunResult(checkpoint_table(grid, pi, S, M), state, samples)
