"""Streaming accumulation of the weighted prime sums.

For the n-th prime p_n the weight is a_n = sqrt(log(p_n)/p_n) (natural
log throughout), defined once by weights().  The stream maintains

    S = sum a_k,    M = sum a_k^2,    E = S^2 - M,

where S and M are exact.  Every weight and every squared weight a_k*a_k
(a double) of a prime <= 2**53 is a multiple of 2**-120, so the sums are
held as Python ints in units of 2**-120 and rounded to a double only when
read.  They therefore do not depend on the order of the additions, the
block or segment boundaries, the thread count, or where a run was split
and resumed.  E is never accumulated directly: snapshots compute it as
S^2 - M, which suffers no cancellation at scale (E grows like x/log x
while M grows like log x).  A separate exact sum of the per-step jumps
2*a_n*S_{n-1} is carried purely as a built-in cross-check: telescoped, it
must reproduce S^2 - M.

Bulk absorption takes int64 prime arrays in blocks of BLOCK primes: numpy
computes the weights, splits each value exactly into 40-bit int64 limbs
and sums the limbs; only block totals become Python ints.

Checkpoints are immutable snapshots taken on a geometric x-grid; sums are
inclusive (p <= x), and a grid point that lands exactly on a prime counts
that prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, SequencingError
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, stream_segments

_MAX_GRID_POINTS = 10_000_000

FRAC_BITS = 120  # the exact sums are integers in units of 2**-FRAC_BITS
_SCALE = float(1 << FRAC_BITS)
_UNIT = 1.0 / _SCALE  # float(int) rounds correctly, and scaling by it is exact
_LIMB_BITS = 40
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_SCALE = float(1 << _LIMB_BITS)
# Primes per numpy block: keeps limb sums below 2**63 and the block's
# arrays at a few MB whatever the segment size.
BLOCK = 1 << 13


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
    """a = sqrt(log p / p) for an array of primes.

    The one definition of the weight: make_term, term_stream and
    extend_primes all call it, so no two paths can differ by the last-bit
    gap between numpy's log and the C library's.
    """
    pf = np.asarray(primes, dtype=np.float64)
    return np.sqrt(np.log(pf) / pf)


def make_term(index: int, prime: int) -> WeightedPrimeTerm:
    """Build the weighted term for the index-th prime."""
    if prime < 2:
        raise DomainError(f"prime must be >= 2, got {prime}")
    if index < 1:
        raise DomainError(f"index must be >= 1, got {index}")
    w = float(weights(np.array([prime], dtype=np.int64))[0])
    return WeightedPrimeTerm(index=index, prime=prime, weight=w, weight_sq=w * w)


@dataclass(frozen=True)
class Checkpoint:
    """Immutable snapshot of the sums at grid point x.

    Ratio fields are NaN below x = 3, where the x/log x scales are not
    meaningful; every pipeline grid starts at 3 or above.
    """

    x: float
    pi: int
    S: float
    M: float
    E: float
    r_S: float
    r_E_pi: float
    r_E_x: float
    mertens_remainder: float


def _limbs(v: np.ndarray) -> np.ndarray:
    """Exact int64 limbs [hi, mid, lo] of values v, v = (hi*2**80 +
    mid*2**40 + lo) * 2**-120, on a new last axis.

    v must lie in [0, 512) and be a multiple of 2**-120, as every weight,
    squared weight and half jump of a prime <= 2**53 is.  Scaling by 2**40,
    floor and subtracting the floor are exact, so no bit is lost, and sums
    of BLOCK limbs stay below 2**63.
    """
    out = np.empty(v.shape + (3,), dtype=np.int64)
    r = v * _LIMB_SCALE
    for k in range(2):
        f = np.floor(r)
        out[..., k] = f
        r -= f
        r *= _LIMB_SCALE
    out[..., 2] = r  # an integer by now
    return out


def _to_int(limbs: np.ndarray) -> int:
    """The integer hi*2**80 + mid*2**40 + lo of one limb triple."""
    hi, mid, lo = limbs.tolist()
    return (hi << 2 * _LIMB_BITS) + (mid << _LIMB_BITS) + lo


def _round_prefixes(base: int, prefix: np.ndarray, top: int) -> np.ndarray:
    """(base + prefix[i]) * 2**-120 rounded to the nearest double, each i.

    prefix holds nonnegative limb sums [hi, mid, lo] as int64 rows, and top
    bounds every base + prefix.  Each value's bits from 2**k up are gathered into
    an int64 h < 2**63, and whether any bit below 2**k is set goes into
    h's last bit.  When h has at least 55 bits that last bit lies below
    the rounding position, so one int64 -> float64 conversion rounds as the
    full value would.  The rare shorter h, where a block starts near zero,
    is rounded from the exact Python int instead.
    """
    k = max(top.bit_length() - 63, _LIMB_BITS)
    low = base & ((1 << k) - 1)
    x0 = prefix[:, 2] + (low & _LIMB_MASK)
    x1 = prefix[:, 1] + ((low >> _LIMB_BITS) & _LIMB_MASK) + (x0 >> _LIMB_BITS)
    x2 = prefix[:, 0] + (low >> 2 * _LIMB_BITS) + (x1 >> _LIMB_BITS)
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
        out[i] = float(base + _to_int(prefix[i])) * _UNIT
    return out


class SumState:
    """Single-writer streaming accumulator; strictly sequential by design.

    S, M and E_incremental are exact integers in units of 2**-120: the sums
    of a_n, of a_n*a_n (the rounded double) and of the jumps
    2*a_n*S_{n-1}, where S_{n-1} is the exact prefix rounded to the
    nearest double.  Read them through S_total/M_total/E_total, which round
    correctly.  The state after a run of primes is the same however the run
    is split into calls.
    """

    __slots__ = (
        "n",
        "last_prime",
        "S",
        "M",
        "E_incremental",
        "last_weight",
        "last_anS",
        "weights_decreasing",
    )

    def __init__(self) -> None:
        self.n = 0
        self.last_prime = 0
        self.S = 0
        self.M = 0
        self.E_incremental = 0
        self.last_weight = math.inf
        self.last_anS = 0.0
        self.weights_decreasing = True

    @classmethod
    def restore(
        cls,
        *,
        n: int,
        last_prime: int,
        S: int,
        M: int,
        E_incremental: int,
        last_weight: float,
        last_anS: float,
        weights_decreasing: bool,
    ) -> "SumState":
        state = cls()
        state.n = n
        state.last_prime = last_prime
        state.S = S
        state.M = M
        state.E_incremental = E_incremental
        state.last_weight = last_weight
        state.last_anS = last_anS
        state.weights_decreasing = weights_decreasing
        return state

    @property
    def S_total(self) -> float:
        return float(self.S) * _UNIT

    @property
    def M_total(self) -> float:
        return float(self.M) * _UNIT

    @property
    def E_total(self) -> float:
        return float(self.E_incremental) * _UNIT

    def push(self, term: WeightedPrimeTerm) -> "SumState":
        """Absorb one term; primes must arrive strictly ascending."""
        if term.prime <= self.last_prime:
            raise SequencingError(
                f"prime {term.prime} not above last absorbed {self.last_prime}"
            )
        if term.index != self.n + 1:
            raise SequencingError(
                f"term index {term.index} does not follow count {self.n}"
            )
        w = term.weight
        half_jump = w * (float(self.S) * _UNIT)
        # scaling by a power of two is exact, and so is int() of the result
        self.S += int(w * _SCALE)
        self.M += int(term.weight_sq * _SCALE)
        self.E_incremental += int(half_jump * (2.0 * _SCALE))
        self.n += 1
        if self.n >= 3 and w >= self.last_weight:
            self.weights_decreasing = False
        self.last_weight = w
        self.last_anS = half_jump
        self.last_prime = term.prime
        return self

    def extend_primes(
        self,
        primes: Sequence[int] | np.ndarray,
        sink: Callable[[int, float], None] | None = None,
        marks: Sequence[int] = (),
        at_mark: Callable[[int], None] | None = None,
    ) -> None:
        """Bulk absorb ascending primes (all above last_prime; not checked).

        Bit-identical to pushing make_term for each prime in turn, and to
        any split of primes over several calls.  When a sink is given it
        receives (n, a_n * S_{n-1}) at every n that is a power of two.
        marks are ascending prefix lengths of primes: at_mark(i) is called
        while the state holds exactly the first marks[i] primes.
        """
        primes = np.asarray(primes, dtype=np.int64)
        marks = np.asarray(marks, dtype=np.int64)
        mi = int(np.searchsorted(marks, 0, side="right"))
        for i in range(mi):
            at_mark(i)
        for b0 in range(0, len(primes), BLOCK):
            p = primes[b0 : b0 + BLOCK]
            n0, s0, m0, e0 = self.n, self.S, self.M, self.E_incremental
            dec0 = self.weights_decreasing
            w = weights(p)
            lw = _limbs(w)
            cs = np.cumsum(lw, axis=0)
            s_prev = _round_prefixes(s0, cs - lw, s0 + _to_int(cs[-1]))
            half = w * s_prev
            cq = np.cumsum(_limbs(np.stack((w * w, half))), axis=1)
            rises = np.flatnonzero(w >= np.concatenate(([self.last_weight], w[:-1])))
            rises = rises[rises + n0 >= 2]  # the flag ignores n = 1, 2
            first_rise = int(rises[0]) if len(rises) else len(p)
            if sink is not None:
                k = 1 << n0.bit_length()  # the least power of two above n0
                while k <= n0 + len(p):
                    sink(k, float(half[k - n0 - 1]))
                    k <<= 1

            def advance(j: int) -> None:
                """Set the state to just after the first j + 1 primes of p."""
                self.n = n0 + j + 1
                self.last_prime = int(p[j])
                self.S = s0 + _to_int(cs[j])
                self.M = m0 + _to_int(cq[0, j])
                self.E_incremental = e0 + 2 * _to_int(cq[1, j])
                self.last_weight = float(w[j])
                self.last_anS = float(half[j])
                self.weights_decreasing = dec0 and j < first_rise

            mj = int(np.searchsorted(marks, b0 + len(p), side="right"))
            for i, mark in enumerate(marks[mi:mj].tolist(), start=mi):
                advance(mark - b0 - 1)
                at_mark(i)
            mi = mj
            advance(len(p) - 1)


def snapshot(state: SumState, x: float) -> Checkpoint:
    """Freeze the sums as a Checkpoint at x.

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
    s = state.S_total
    m = state.M_total
    e = s * s - m
    if x >= 3.0:
        lx = math.log(x)
        r_s = s / math.sqrt(x / lx)
        r_e_pi = e / state.n
        r_e_x = e * lx / x
        remainder = m - lx
    else:
        r_s = r_e_pi = r_e_x = remainder = math.nan
    return Checkpoint(
        x=x,
        pi=state.n,
        S=s,
        M=m,
        E=e,
        r_S=r_s,
        r_E_pi=r_e_pi,
        r_E_x=r_e_x,
        mertens_remainder=remainder,
    )


def grid_points(x_start: float, x_max: float, ratio: float) -> list[float]:
    """Geometric grid x_start * ratio^k clipped to x_max, with x_max as the
    final point whether or not it lies on the lattice."""
    if ratio <= 1.0:
        raise ConfigError(f"grid ratio must be > 1, got {ratio}")
    if x_start < 3.0:
        raise ConfigError(f"grid start must be >= 3, got {x_start}")
    if x_max < x_start:
        raise ConfigError(f"grid end {x_max} below grid start {x_start}")
    points: list[float] = []
    k = 0
    while True:
        pt = x_start * ratio**k
        if pt >= x_max:
            break
        points.append(pt)
        k += 1
        if k > _MAX_GRID_POINTS:
            raise ConfigError("grid ratio too close to 1: more than 1e7 points")
    points.append(x_max)
    return points


@dataclass
class RunResult:
    """Everything one accumulation pass produces."""

    checkpoints: list[Checkpoint]
    state: SumState
    an_sn_samples: list[tuple[int, float]]


def run_stream(
    x_max: float,
    grid: Sequence[float],
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
    state: SumState | None = None,
    samples: list[tuple[int, float]] | None = None,
) -> RunResult:
    """Sieve to x_max, fold every prime into the state, snapshot at each
    grid point, and sample a_n * S_{n-1} at power-of-two n plus the final n.

    grid must be ascending and entirely above the state's last prime; pass
    a restored state (and its previously collected samples) to continue an
    earlier run bit-identically.
    """
    state = state if state is not None else SumState()
    samples = samples if samples is not None else []
    checkpoints: list[Checkpoint] = []
    limit = int(math.floor(x_max))
    if limit < 2:
        raise ConfigError(f"x_max must be >= 2, got {x_max}")
    grid = list(grid)

    def sink(n: int, value: float) -> None:
        samples.append((n, value))

    gi = 0
    if state.last_prime < limit:
        cfg = SieveConfig(limit=limit, segment_size=segment_size)
        grid_arr = np.asarray(grid, dtype=np.float64)
        for seg in stream_segments(cfg, start=state.last_prime + 1, threads=threads):
            gj = int(np.searchsorted(grid_arr, seg.hi, side="right"))
            xs = grid[gi:gj]
            cuts = np.searchsorted(seg.primes, xs, side="right")
            state.extend_primes(
                seg.primes,
                sink,
                cuts,
                lambda k: checkpoints.append(snapshot(state, xs[k])),
            )
            gi = gj
    while gi < len(grid):
        checkpoints.append(snapshot(state, grid[gi]))
        gi += 1
    n = state.n
    if n >= 1 and (n & (n - 1)) != 0:
        samples.append((n, state.last_anS))
    return RunResult(checkpoints=checkpoints, state=state, an_sn_samples=samples)


def an_Sn_series(
    x_max: float, *, segment_size: int = DEFAULT_SEGMENT_SIZE, threads: int = 1
) -> list[tuple[int, float]]:
    """The products a_n * S_{n-1} sampled at power-of-two n (plus the final
    n) over all primes <= x_max; a_1 * S_0 = 0 by convention."""
    if x_max < 3:
        raise DomainError(f"x_max must be >= 3, got {x_max}")
    return run_stream(
        x_max, [], segment_size=segment_size, threads=threads
    ).an_sn_samples
