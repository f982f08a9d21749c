"""Structural-identity verification.

Two exact identities tie the sums together: the pair form

    S_n^2 - M_n = 2 * sum_{i<j} a_i a_j

and the jump form E_n - E_{n-1} = 2 a_n S_{n-1}.  Both hold to rounding
only, so the checks here record relative residuals between the two sides.

Both checks are numpy passes over one array of weights.  S and M are read
as the accumulator reads them: exact prefix sums, rounded once.  The pair
side is the O(n^2) brute-force sum, each row's exact sum rounded once as
fsum rounds it, so it equals pair_sum_bruteforce bit for bit.  The jump
scan takes every n up to its limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .accumulate import (
    BLOCK,
    Checkpoint,
    WeightedPrimeTerm,
    _limbs,
    _round_signed,
    exact_sums_at,
    weights,
)
from .errors import SizeError
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, stream_segments

_BRUTEFORCE_CAP = 10_000
# rows of the pair triangle per numpy pass: 16 rows of 5000 limb triples
# are about 2 MB
PAIR_CHUNK = 16


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
    residual = relative_residual(lhs, rhs)
    return VerificationRecord(
        check_id=check_id,
        location=location,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
    )


def worst_record(
    check_id: str, location: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
    tolerance: float, residual: np.ndarray | None = None,
) -> VerificationRecord:
    """The record of a check over arrays of points at its largest
    residual, the first of equals.  The residual defaults to the relative
    residual of lhs against rhs, as identity_record takes it."""
    if residual is None:
        residual = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    j = int(np.argmax(residual))
    worst = float(residual[j])
    return VerificationRecord(
        check_id, float(location[j]), float(lhs[j]), float(rhs[j]), worst, tolerance,
        worst <= tolerance,
    )


def term_stream(
    x_max: float, *, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[WeightedPrimeTerm]:
    """Weighted terms for every prime <= x_max, ascending; the same values
    make_term gives, with the weights computed a segment at a time."""
    limit = int(math.floor(x_max))
    if limit < 2:
        return
    index = 0
    for seg in stream_segments(SieveConfig(limit, segment_size)):
        for b in range(0, len(seg.primes), BLOCK):
            chunk = seg.primes[b : b + BLOCK]
            for p, w in zip(chunk.tolist(), weights(chunk).tolist()):
                index += 1
                yield WeightedPrimeTerm(index=index, prime=p, weight=w, weight_sq=w * w)


def pair_sum_bruteforce(terms: Sequence[WeightedPrimeTerm]) -> float:
    """2 * sum_{i<j} a_i a_j by direct double loop; the independent oracle
    for S_n^2 - M_n.  Row sums are exactly rounded via fsum."""
    if len(terms) > _BRUTEFORCE_CAP:
        raise SizeError(
            f"brute-force pair sum capped at n={_BRUTEFORCE_CAP}, got {len(terms)}"
        )
    weights = [t.weight for t in terms]
    rows = []
    for i in range(len(weights) - 1):
        wi = weights[i]
        rows.append(math.fsum(wi * wj for wj in weights[i + 1 :]))
    return 2.0 * math.fsum(rows)


def _log_subsample(n_max: int) -> list[int]:
    ns = []
    k = 1
    while k <= n_max:
        ns.append(k)
        k *= 2
    if not ns or ns[-1] != n_max:
        ns.append(n_max)
    return ns


def pair_prime_bound(n: int) -> int:
    """An x with at least n primes below it: p_n < n(log n + log log n) for
    n >= 6, with a generous floor for small n."""
    return 100 + int(n * (math.log(max(n, 6)) + 3.0))


def _pair_row_sums(w: np.ndarray, ns: np.ndarray) -> list[float]:
    """2 * fsum of the rows fsum(w_i * w_j for j in i+1..n-1), i < n - 1,
    for each sample n in ns (ascending, at most len(w)).

    Rows are taken PAIR_CHUNK at a time over the upper triangle.  Each
    product is split into exact limbs, np.add.reduceat sums them between
    consecutive samples, and a cumsum gives every row's exact sum up to
    each sample, which is rounded once: the same double fsum gives.
    """
    n = int(ns[-1]) if len(ns) else 0
    values, owners = [], []
    for r0 in range(0, n - 1, PAIR_CHUNK):
        r1 = min(r0 + PAIR_CHUNK, n - 1)
        c0 = r0 + 1  # the first column of row r0
        k0 = int(np.searchsorted(ns, c0, side="right"))
        prod = w[r0:r1, None] * w[None, c0:n]
        m = r1 - r0
        prod[:, :m] = np.triu(prod[:, :m])  # keeps j > i only
        starts = np.concatenate(([0], ns[k0:-1] - c0))
        sums = np.cumsum(np.add.reduceat(_limbs(prod), starts, axis=1), axis=1)
        # row i has terms below sample n only when n >= i + 2
        live = ns[None, k0:] >= np.arange(r0 + 2, r1 + 2)[:, None]
        values.append(_round_signed(0, sums[live]))
        owners.append(np.nonzero(live)[1] + k0)
    values = np.concatenate(values) if values else np.empty(0)
    owners = np.concatenate(owners) if owners else np.empty(0, dtype=np.int64)
    return [2.0 * math.fsum(values[owners == k].tolist()) for k in range(len(ns))]


def check_pair_identity(
    w: np.ndarray, wsq: np.ndarray, tolerance: float = 1e-10
) -> list[VerificationRecord]:
    """Compare S_n^2 - M_n against the brute-force pair sum at a
    logarithmic subsample of n (1, 2, 4, ... and n = len(w) itself).

    w holds the weights a_1, ..., a_n and wsq the squared weights that M
    sums, as the accumulator holds them (w * w).  The right side at n is
    2 * fsum of the n - 1 correctly rounded row sums of w, bit for bit
    what pair_sum_bruteforce returns, computed over the whole triangle in
    one numpy pass.
    """
    if len(w) > _BRUTEFORCE_CAP:
        raise SizeError(f"pair identity capped at n={_BRUTEFORCE_CAP}, got {len(w)}")
    ns = np.array([k for k in _log_subsample(len(w)) if k >= 1], dtype=np.int64)
    s = exact_sums_at(w, ns)
    lhs = (s * s - exact_sums_at(wsq, ns)).tolist()
    rhs = _pair_row_sums(w, ns)
    return [
        identity_record("pair_identity", float(k), a, b, tolerance)
        for k, a, b in zip(ns.tolist(), lhs, rhs)
    ]


def check_jump_identity(
    w: np.ndarray, wsq: np.ndarray, tolerance: float = 1e-9
) -> VerificationRecord:
    """Report the worst relative residual, over every n <= len(w), of
    (S_n^2 - M_n) - (S_{n-1}^2 - M_{n-1}) against 2 a_n S_{n-1}.

    w and wsq are the weights and squared weights, as for
    check_pair_identity.  S_{n-1}, S_n and M_n are the exact prefixes
    rounded once, as the accumulator reads them; the scan is one numpy
    pass, and the first of equal worst residuals is reported.
    """
    if not len(w):
        # empty stream: vacuous pass
        return VerificationRecord(
            "jump_identity", 0.0, 0.0, 0.0, 0.0, tolerance, 0.0 <= tolerance
        )
    s = exact_sums_at(w, np.arange(len(w) + 1))
    e = s[1:] * s[1:] - exact_sums_at(wsq, np.arange(1, len(w) + 1))
    lhs = np.diff(e, prepend=0.0)
    predicted = 2.0 * w * s[:-1]
    n = np.arange(1, len(w) + 1)
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
    i = int(np.argmax(drop))
    violation, location = float(drop[i]), float(at[i])
    return VerificationRecord(
        check_id="e_monotone",
        location=location,
        lhs=violation,
        rhs=0.0,
        residual=violation,
        tolerance=0.0,
        passed=violation <= 0.0,
    )
