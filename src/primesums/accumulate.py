"""Streaming accumulation of the weighted prime sums.

For the n-th prime p_n the weight is a_n = sqrt(log(p_n)/p_n) (natural
log throughout), defined once by weights().  The stream maintains

    S = sum a_k,    M = sum a_k^2,    E = S^2 - M,

where S and M are exact.  Every weight and every squared weight a_k*a_k
(a double) of a prime <= 2**53 is a multiple of 2**-120, so the sums are
held as Python ints in units of 2**-120 and rounded to a double only when
read.  They therefore do not depend on the order of the additions, the
block or segment boundaries, or where a run was split and resumed.  E is
never accumulated directly: the checkpoint table computes it as S^2 - M,
which suffers no cancellation at scale (E grows like x/log x while M grows like
log x).  A separate exact sum of the per-step jumps 2*a_n*S_{n-1} is
carried purely as a built-in cross-check: telescoped, it must reproduce
S^2 - M.

Bulk absorption takes int64 prime arrays in blocks of BLOCK primes: numpy
computes the weights, splits each value exactly into 40-bit int64 limbs
and sums the limbs; only block totals become Python ints.

Checkpoints are one table over a geometric x-grid, one array per column,
built in one pass by checkpoint_table; sums are inclusive (p <= x), and a
grid point that lands exactly on a prime counts that prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

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

    The one definition of the weight: term_stream, extend_primes and the
    one-term references in tests/oracles.py all call it, so no two paths
    can differ by the last-bit gap between numpy's log and the C library's.
    """
    pf = np.asarray(primes, dtype=np.float64)
    return np.sqrt(np.log(pf) / pf)


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """The checkpoint table of a run: one array per CSV column, a row per
    grid point x in ascending order, pi as int64.

    Ratio columns are NaN below x = 3, where the x/log x scales are not
    meaningful; every pipeline grid starts at 3 or above.
    """

    x: np.ndarray
    pi: np.ndarray
    S: np.ndarray
    M: np.ndarray
    E: np.ndarray
    r_S: np.ndarray
    r_E_pi: np.ndarray
    r_E_x: np.ndarray
    mertens_remainder: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def select(self, rows) -> "Checkpoint":
        """The table of the rows a boolean mask, index array or slice picks."""
        return Checkpoint(*(getattr(self, f.name)[rows] for f in fields(self)))


def libm_log(x: np.ndarray) -> np.ndarray:
    """log of each value with the C library's log (math.log), which numpy's
    log can miss by the last bit: every log of an x or a prime that a check
    compares bit for bit with a per-point form is taken here."""
    return np.array([math.log(v) for v in np.asarray(x, dtype=np.float64).tolist()])


def checkpoint_table(x, pi, S, M) -> Checkpoint:
    """The checkpoint table at grid points x with prime counts pi and sums
    S, M there: E = S*S - M and the four ratios, in one pass.

    The one formula of the derived columns; snapshot is its one-row case.
    """
    x = np.asarray(x, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.int64)
    S = np.asarray(S, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    E = S * S - M
    scaled = x >= 3.0
    lx = np.full(len(x), math.nan)  # NaN below 3 carries into r_S, r_E_x, M - lx
    lx[scaled] = libm_log(x[scaled])
    return Checkpoint(
        x=x,
        pi=pi,
        S=S,
        M=M,
        E=E,
        r_S=S / np.sqrt(x / lx),
        r_E_pi=E / np.where(scaled, pi, math.nan),
        r_E_x=E * lx / x,
        mertens_remainder=M - lx,
    )


def _limbs(v: np.ndarray) -> np.ndarray:
    """Exact int64 limbs [hi, mid, lo] of values v, v = (hi*2**80 +
    mid*2**40 + lo) * 2**-120, on a new last axis.

    v must lie in (-512, 512) and be a multiple of 2**-120, as every weight,
    squared weight and half jump of a prime <= 2**53 is.  Scaling by 2**40,
    truncating and subtracting the truncation are exact for either sign (a
    floor is not: 1 - 3*2**-54 rounds), so no bit is lost, the three limbs
    share the sign of v, and sums of BLOCK limbs stay below 2**63 in
    magnitude.
    """
    out = np.empty(v.shape + (3,), dtype=np.int64)
    r = v * _LIMB_SCALE
    f = np.empty_like(r)
    for k in range(2):
        np.trunc(r, out=f)
        out[..., k] = f
        r -= f
        r *= _LIMB_SCALE
    out[..., 2] = r  # an integer by now
    return out


def _to_int(limbs: np.ndarray) -> int:
    """The integer hi*2**80 + mid*2**40 + lo of one limb triple."""
    hi, mid, lo = limbs.tolist()
    return (hi << 2 * _LIMB_BITS) + (mid << _LIMB_BITS) + lo


def _round_prefixes(base: int, prefix: np.ndarray, top: int | None = None) -> np.ndarray:
    """(base + prefix[i]) * 2**-120 rounded to the nearest double, each i.

    prefix holds limb sums [hi, mid, lo] as int64 rows, of either sign, and
    top bounds every |base + prefix|; without it the bound is taken from
    the largest limbs.  Each value's bits from 2**k up are gathered into an
    int64 h < 2**63, and whether any bit below 2**k is set goes into h's
    last bit; the carries are arithmetic shifts and masks, so they are
    exact for negative limbs and bases too.  When h has at least 55 bits
    that last bit lies below the rounding position, so one int64 -> float64
    conversion rounds as the full value would.  Any other value, negative
    or near zero, is rounded from the exact Python int instead.
    """
    if top is None:
        top = abs(base) + _to_int(np.abs(prefix).max(axis=0, initial=0))
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


def exact_sums_at(
    v: np.ndarray, cuts: np.ndarray, extra: np.ndarray | None = None
) -> np.ndarray:
    """sum(v[:c]) (+ extra[i]) for each c = cuts[i], rounded once to a double.

    Each result is the exact sum rounded to the nearest, so it equals
    math.fsum of the same terms.  v and extra hold multiples of 2**-120 in
    (-512, 512) (see _limbs); cuts ascend.  The prefixes are summed BLOCK
    values at a time, with the running total carried as a Python int, so
    memory and limb sums stay bounded whatever len(v).
    """
    cuts = np.asarray(cuts, dtype=np.int64)
    out = np.empty(len(cuts))
    el = None if extra is None else _limbs(np.asarray(extra, dtype=np.float64))
    base = i0 = 0
    for b0 in range(0, len(v) + 1, BLOCK):
        lv = _limbs(v[b0 : b0 + BLOCK])
        rows = np.zeros((len(lv) + 1, 3), dtype=np.int64)
        np.cumsum(lv, axis=0, out=rows[1:])
        i1 = int(np.searchsorted(cuts, b0 + len(lv), side="right"))
        sel = rows[cuts[i0:i1] - b0]
        if el is not None:
            sel += el[i0:i1]
        out[i0:i1] = _round_prefixes(base, sel)
        base += _to_int(rows[-1])
        i0 = i1
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

    # also the keys of the checkpoint file's state, by name
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

    @property
    def S_total(self) -> float:
        return float(self.S) * _UNIT

    @property
    def M_total(self) -> float:
        return float(self.M) * _UNIT

    @property
    def E_total(self) -> float:
        return float(self.E_incremental) * _UNIT

    def extend_primes(
        self,
        primes: Sequence[int] | np.ndarray,
        sink: Callable[[int, float], None] | None = None,
        marks: Sequence[int] = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk absorb ascending primes (all above last_prime; not checked).

        Bit-identical to the one-term push of tests/oracles.py for each
        prime in turn, and to any split of primes over several calls.  When a sink is given it
        receives (n, a_n * S_{n-1}) at every n that is a power of two.
        marks are ascending prefix lengths of primes; the result is S and M,
        correctly rounded, after the first marks[i] primes, for each i.
        """
        primes = np.asarray(primes, dtype=np.int64)
        marks = np.asarray(marks, dtype=np.int64)
        s_at, m_at = np.empty(len(marks)), np.empty(len(marks))
        mi = int(np.searchsorted(marks, 0, side="right"))
        s_at[:mi], m_at[:mi] = self.S_total, self.M_total
        for b0 in range(0, len(primes), BLOCK):
            p = primes[b0 : b0 + BLOCK]
            n0, s0, m0 = self.n, self.S, self.M
            w = weights(p)
            lw = _limbs(w)
            cs = np.cumsum(lw, axis=0)
            s_top = s0 + _to_int(cs[-1])
            s_prev = _round_prefixes(s0, cs - lw, s_top)
            half = w * s_prev
            cq = np.cumsum(_limbs(np.stack((w * w, half))), axis=1)
            m_top = m0 + _to_int(cq[0, -1])
            rises = np.flatnonzero(w >= np.concatenate(([self.last_weight], w[:-1])))
            if np.any(rises + n0 >= 2):  # the flag ignores n = 1, 2
                self.weights_decreasing = False
            if sink is not None:
                k = 1 << n0.bit_length()  # the least power of two above n0
                while k <= n0 + len(p):
                    sink(k, float(half[k - n0 - 1]))
                    k <<= 1
            mj = int(np.searchsorted(marks, b0 + len(p), side="right"))
            if mj > mi:  # the marks in this block, from its prefixes
                j = marks[mi:mj] - b0 - 1
                s_at[mi:mj] = _round_prefixes(s0, cs[j], s_top)
                m_at[mi:mj] = _round_prefixes(m0, cq[0, j], m_top)
                mi = mj
            self.n = n0 + len(p)
            self.last_prime = int(p[-1])
            self.S = s_top
            self.M = m_top
            self.E_incremental += 2 * _to_int(cq[1, -1])
            self.last_weight = float(w[-1])
            self.last_anS = float(half[-1])
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
        if k > MAX_GRID_POINTS:
            raise ConfigError("grid ratio too close to 1: more than 1e7 points")
    points.append(x_max)
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


def run_stream(
    x_max: float,
    grid: Sequence[float],
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    state: SumState | None = None,
    samples: list[tuple[int, float]] | None = None,
) -> RunResult:
    """Sieve to x_max, fold every prime into the state, read the sums at
    each grid point, and sample a_n * S_{n-1} at power-of-two n.

    grid must be ascending and entirely above the state's last prime; pass
    a restored state (and its power-of-two samples) to continue an earlier
    run bit-identically.
    """
    state = state if state is not None else SumState()
    samples = list(samples or ())
    limit = int(math.floor(x_max))
    if limit < 2:
        raise ConfigError(f"x_max must be >= 2, got {x_max}")
    grid = np.asarray(grid, dtype=np.float64)
    if len(grid) and grid[0] < state.last_prime:
        raise SequencingError(
            f"grid point x={grid[0]} behind last absorbed prime {state.last_prime}"
        )
    pi = np.empty(len(grid), dtype=np.int64)
    S, M = np.empty(len(grid)), np.empty(len(grid))

    def sink(n: int, value: float) -> None:
        samples.append((n, value))

    gi = 0
    if state.last_prime < limit:
        cfg = SieveConfig(limit=limit, segment_size=segment_size)
        for seg in stream_segments(cfg, start=state.last_prime + 1):
            gj = int(np.searchsorted(grid, seg.hi, side="right"))
            cuts = np.searchsorted(seg.primes, grid[gi:gj], side="right")
            pi[gi:gj] = state.n + cuts
            S[gi:gj], M[gi:gj] = state.extend_primes(seg.primes, sink, cuts)
            gi = gj
    # grid points past the last segment hold every prime absorbed
    pi[gi:], S[gi:], M[gi:] = state.n, state.S_total, state.M_total
    return RunResult(checkpoint_table(grid, pi, S, M), state, samples)

