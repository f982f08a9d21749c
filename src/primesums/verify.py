"""Structural-identity verification.

Two exact identities tie the sums together: the pair form

    S_n^2 - M_n = 2 * sum_{i<j} a_i a_j

and the jump form E_n - E_{n-1} = 2 a_n S_{n-1}.  Both hold to rounding
only, so the checks here record relative residuals between the two sides.

Both checks are numpy passes over the weights w and the prefix sums S_n
and M_n, n = 0..len(w), that the accumulator (SumState.extend_primes)
formed from them: they sum no S or M of their own, so a fault in the
accumulator fails them.  The pair side is the O(n^2) brute-force sum,
each row summed exactly in float64 (see _pair_row_sums) and rounded once
as fsum rounds it, so it equals the fsum loop of tests/oracles.py bit for
bit.  The jump scan takes every n of one block of primes; report's block
pass keeps the worst over the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .accumulate import BLOCK, Checkpoint, WeightedPrimeTerm, weights
from .errors import DomainError, SizeError
from .sieve import SieveConfig, stream_segments

_BRUTEFORCE_CAP = 10_000
# rows of the pair triangle per numpy pass: its (2, 16, n - 1) float64
# buffer is 1.3 MB at n = 5000
PAIR_CHUNK = 16
_SPLIT = 1.5 * 2.0**79  # (v + _SPLIT) - _SPLIT rounds v to a multiple of 2**27


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one check.

    Identity checks store both sides and the symmetric relative residual
    |lhs - rhs| / max(1, |rhs|).  Inequality checks store the observed
    value (lhs) against the bound (rhs) and a one-sided residual that is
    zero whenever the bound holds; either way pass == (residual <= tolerance).
    """

    check_id: str
    location: float
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool


def relative_residual(lhs: float, rhs: float) -> float:
    """|lhs - rhs| normalized by max(1, |rhs|), so it behaves near zero."""
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def identity_record(
    check_id: str, location: float, lhs: float, rhs: float, tolerance: float
) -> VerificationRecord:
    """The record of an identity at one point: worst_record over it alone."""
    return worst_record(check_id, *np.array([[location], [lhs], [rhs]]), tolerance)


def worst_record(
    check_id: str, location: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
    tolerance: float, residual: np.ndarray | None = None,
) -> VerificationRecord:
    """The record of a check over arrays of points at its largest
    residual, the first of equals.  The residual defaults to the relative
    residual of lhs against rhs, as relative_residual takes it."""
    if residual is None:
        residual = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    j = int(np.argmax(residual))
    worst = float(residual[j])
    return VerificationRecord(
        check_id, float(location[j]), float(lhs[j]), float(rhs[j]), worst, tolerance,
        worst <= tolerance,
    )


def term_stream(x_max: float) -> Iterator[WeightedPrimeTerm]:
    """Weighted terms for every prime <= x_max, ascending, with the weights
    computed a segment at a time."""
    limit = int(math.floor(x_max))
    if limit < 2:
        return
    index = 0
    for seg in stream_segments(SieveConfig(limit)):
        for b in range(0, len(seg.primes), BLOCK):
            chunk = seg.primes[b : b + BLOCK]
            for p, w in zip(chunk.tolist(), weights(chunk).tolist()):
                index += 1
                yield WeightedPrimeTerm(index=index, prime=p, weight=w, weight_sq=w * w)


def _log_subsample(n_max: int) -> list[int]:
    ns = []
    k = 1
    while k <= n_max:
        ns.append(k)
        k *= 2
    if not ns or ns[-1] != n_max:
        ns.append(n_max)
    return ns


def _pair_row_sums(w: np.ndarray, ns: np.ndarray) -> list[float]:
    """2 * fsum of the rows fsum(w_i * w_j for j in i+1..n-1), i < n - 1,
    for each sample n in ns (ascending, at most len(w)).

    Each PAIR_CHUNK of rows is summed exactly in float64.  Scale: 2**k puts
    low, the chunk's smallest product, in [2**52, 2**53), so every
    v = (2**k w_i) * w_j = 2**k fl(w_i w_j) is an integer.  Split:
    hi = (v + _SPLIT) - _SPLIT is v rounded to a multiple of 2**27, and
    lo = v - hi, |lo| <= 2**26, both exact.  Sum: a row's fewer than
    _BRUTEFORCE_CAP terms lie below 2**80 / _BRUTEFORCE_CAP (a span of about
    2**14 over a normal low; DomainError first for a wider one, or for a
    weight not finite and positive), so np.add.reduceat between samples and
    cumsum sum hi below 2**80 and lo below 2**40 exactly.  Round: hi + lo is
    one IEEE add, rounding the row's exact sum to nearest-even as fsum does,
    and the scaling by 2**-k is exact.
    """
    n = int(ns[-1]) if len(ns) else 0
    if not np.all((w[:n] > 0) & (w[:n] < math.inf)):
        raise DomainError("pair identity needs finite positive weights")
    if n < 2:
        return [0.0] * len(ns)
    r0s = np.arange(0, n - 1, PAIR_CHUNK)
    rows, cols = w[: n - 1], w[1:n][::-1]  # row r's columns are w[r + 1:n]
    low = np.minimum.reduceat(rows, r0s) * np.minimum.accumulate(cols)[::-1][r0s]
    ks = 53 - np.frexp(low)[1]
    top = np.ldexp(np.maximum.reduceat(rows, r0s), ks) * np.maximum.accumulate(cols)[::-1][r0s]
    if not (np.all(low >= np.finfo(np.float64).tiny) and np.all(top < 2.0**80 / _BRUTEFORCE_CAP)):
        raise DomainError("pair products span wider than an exact float64 row sum allows")
    buf = np.empty(2 * PAIR_CHUNK * (n - 1))
    below = np.tri(PAIR_CHUNK, k=-1, dtype=bool)
    out = np.zeros((n - 1, len(ns)))  # row i's sum up to each sample
    for r0, k in zip(r0s.tolist(), ks.tolist()):
        r1 = min(r0 + PAIR_CHUNK, n - 1)
        c0, m = r0 + 1, r1 - r0  # the first column of row r0, the rows
        lo, hi = planes = buf[: 2 * m * (n - c0)].reshape(2, m, n - c0)
        np.multiply(np.ldexp(w[r0:r1], k)[:, None], w[None, c0:n], out=lo)
        lo[:, :m][below[:m, :m]] = 0.0  # keeps j > i only
        np.add(lo, _SPLIT, out=hi)
        hi -= _SPLIT
        lo -= hi
        k0 = int(np.searchsorted(ns, c0, side="right"))
        starts = np.concatenate(([0], ns[k0:-1] - c0))
        sums = np.cumsum(np.add.reduceat(planes, starts, axis=2), axis=2)
        out[r0:r1, k0:] = np.ldexp(sums[1] + sums[0], -k)
    # sample n sums rows i < n - 1, each over its columns below n
    return [2.0 * math.fsum(out[: j - 1, i].tolist()) for i, j in enumerate(ns.tolist())]


def check_pair_identity(
    w: np.ndarray, S: np.ndarray, M: np.ndarray, tolerance: float
) -> list[VerificationRecord]:
    """Compare S_n^2 - M_n against the brute-force pair sum at a
    logarithmic subsample of n (1, 2, 4, ... and n = len(w) itself).

    w holds the weights a_1, ..., a_n, and S and M the accumulator's
    prefix sums of a and a * a for n = 0..len(w) or further.  The right
    side at n is 2 * fsum of the n - 1 correctly rounded row sums of w, bit
    for bit what the brute-force loop of tests/oracles.py returns; weights
    it cannot sum exactly raise DomainError (see _pair_row_sums).
    """
    if len(w) > _BRUTEFORCE_CAP:
        raise SizeError(f"pair identity capped at n={_BRUTEFORCE_CAP}, got {len(w)}")
    ns = np.array([k for k in _log_subsample(len(w)) if k >= 1], dtype=np.int64)
    lhs = (S[ns] * S[ns] - M[ns]).tolist()
    rhs = _pair_row_sums(w, ns)
    return [
        identity_record("pair_identity", float(k), a, b, tolerance)
        for k, a, b in zip(ns.tolist(), lhs, rhs)
    ]


def check_jump_identity(
    w: np.ndarray, S: np.ndarray, M: np.ndarray, tolerance: float, n0: int = 0
) -> VerificationRecord:
    """Report the worst relative residual, over the n of w's primes, of
    (S_n^2 - M_n) - (S_{n-1}^2 - M_{n-1}) against 2 a_n S_{n-1}.

    w holds the weights a_{n0+1}, ..., a_{n0+len(w)} of a block of primes,
    and S and M the accumulator's prefix sums after the first n0, ...,
    n0 + len(w) primes.  The scan is one numpy pass, and the first of equal
    worst residuals is reported; an empty block is a vacuous pass at n0.
    """
    if not len(w):
        at = np.full(1, float(n0))
        return worst_record("jump_identity", at, np.zeros(1), np.zeros(1), tolerance)
    lhs = np.diff(S * S - M)
    predicted = 2.0 * w * S[:-1]
    n = np.arange(n0 + 1, n0 + len(w) + 1)
    return worst_record("jump_identity", n, lhs, predicted, tolerance)


def check_E_monotone(checkpoints: Checkpoint) -> VerificationRecord:
    """Pass iff E is nonnegative and nondecreasing across the checkpoints.

    The residual is the largest drop, below the previous E or below zero,
    at its first point; a NaN in E counts as a drop and fails.
    """
    x, E = checkpoints.x, checkpoints.E
    # a zero drop at the last point leads, so only a real drop moves it
    drop = np.concatenate(([0.0], np.maximum(-np.diff(E, prepend=0.0), -E)))
    at = np.concatenate(([x[-1] if len(x) else 0.0], x))
    return worst_record("e_monotone", at, drop, np.zeros(len(drop)), 0.0, residual=drop)
