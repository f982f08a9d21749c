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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
from .errors import SequencingError, SizeError
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, prime_array, stream_segments

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


def bound_record(
    check_id: str, location: float, value: float, bound: float, tolerance: float,
    *, direction: str = "ge",
) -> VerificationRecord:
    """Record for 'value >= bound' (direction='ge') or 'value <= bound'."""
    if direction == "ge":
        violation = max(0.0, bound - value)
    else:
        violation = max(0.0, value - bound)
    residual = violation / max(1.0, abs(bound))
    return VerificationRecord(
        check_id=check_id,
        location=location,
        lhs=value,
        rhs=bound,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
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


def _term_arrays(terms: Iterable[WeightedPrimeTerm]) -> tuple[np.ndarray, np.ndarray]:
    """(weights, squared weights) of a term stream, which must be in order
    the way SumState.push requires: primes strictly ascending, indices 1, 2, ..."""
    terms = list(terms)
    primes = np.array([0] + [t.prime for t in terms], dtype=np.int64)
    index = np.array([t.index for t in terms], dtype=np.int64)
    bad_prime = primes[1:] <= primes[:-1]
    bad_index = index != np.arange(1, len(terms) + 1)
    bad = np.flatnonzero(bad_prime | bad_index)
    if len(bad):
        j = int(bad[0])
        if bad_prime[j]:
            raise SequencingError(
                f"prime {terms[j].prime} not above last absorbed {int(primes[j])}"
            )
        raise SequencingError(f"term index {terms[j].index} does not follow count {j}")
    w = np.array([t.weight for t in terms], dtype=np.float64)
    wsq = np.array([t.weight_sq for t in terms], dtype=np.float64)
    return w, wsq


def _prime_weights(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = weights(primes)
    return w, w * w


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
    n_max: int,
    terms: Iterable[WeightedPrimeTerm] | None = None,
    tolerance: float = 1e-10,
    *,
    primes: np.ndarray | None = None,
) -> list[VerificationRecord]:
    """Compare S_n^2 - M_n against the brute-force pair sum at a
    logarithmic subsample of n (1, 2, 4, ... and n_max itself).

    The right side at n is 2 * fsum of the n - 1 correctly rounded row
    sums, bit for bit what pair_sum_bruteforce returns, computed over the
    whole triangle in one numpy pass.  The terms come from terms when
    given, else from primes (an ascending array of all primes from 2, of
    which the first n_max are used), else from a fresh sieve.
    """
    if n_max > _BRUTEFORCE_CAP:
        raise SizeError(f"pair identity capped at n={_BRUTEFORCE_CAP}, got {n_max}")
    if terms is not None:
        w, wsq = _term_arrays(itertools.takewhile(lambda t: t.index <= n_max, terms))
    else:
        if primes is None:
            primes = prime_array(pair_prime_bound(n_max))
        w, wsq = _prime_weights(primes[: max(n_max, 0)])
    ns = np.array([k for k in _log_subsample(n_max) if 1 <= k <= len(w)], dtype=np.int64)
    s = exact_sums_at(w, ns)
    lhs = (s * s - exact_sums_at(wsq, ns)).tolist()
    rhs = _pair_row_sums(w, ns)
    return [
        identity_record("pair_identity", float(k), a, b, tolerance)
        for k, a, b in zip(ns.tolist(), lhs, rhs)
    ]


def check_jump_identity(
    x_max: float,
    terms: Iterable[WeightedPrimeTerm] | None = None,
    tolerance: float = 1e-9,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    primes: np.ndarray | None = None,
) -> VerificationRecord:
    """Report the worst relative residual, over all primes to x_max, of
    (S_n^2 - M_n) - (S_{n-1}^2 - M_{n-1}) against 2 a_n S_{n-1}.

    S_{n-1}, S_n and M_n are the exact prefixes rounded once, as the
    accumulator reads them; the scan is one numpy pass, and the first of
    equal worst residuals is reported.  The terms come from terms when
    given, else from the primes <= x_max in primes (an ascending array of
    all primes from 2), else from a fresh sieve.
    """
    if terms is not None:
        w, wsq = _term_arrays(terms)
    else:
        if primes is None:
            primes = prime_array(int(math.floor(x_max)), segment_size=segment_size)
        w, wsq = _prime_weights(primes[: int(np.searchsorted(primes, x_max, side="right"))])
    if not len(w):
        # empty stream: vacuous pass
        return VerificationRecord(
            "jump_identity", 0.0, 0.0, 0.0, 0.0, tolerance, 0.0 <= tolerance
        )
    s = exact_sums_at(w, np.arange(len(w) + 1))
    e = s[1:] * s[1:] - exact_sums_at(wsq, np.arange(1, len(w) + 1))
    lhs = np.diff(e, prepend=0.0)
    predicted = 2.0 * w * s[:-1]
    residual = np.abs(lhs - predicted) / np.maximum(1.0, np.abs(predicted))
    j = int(np.argmax(residual))
    worst = float(residual[j])
    return VerificationRecord(
        check_id="jump_identity",
        location=float(j + 1),
        lhs=float(lhs[j]),
        rhs=float(predicted[j]),
        residual=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def check_E_monotone(checkpoints: Sequence[Checkpoint]) -> VerificationRecord:
    """Pass iff E is nonnegative and nondecreasing across the checkpoints."""
    violation = 0.0
    location = checkpoints[-1].x if checkpoints else 0.0
    prev = 0.0
    for cp in checkpoints:
        drop = max(prev - cp.E, -cp.E, 0.0)
        if drop > violation:
            violation = drop
            location = cp.x
        prev = cp.E
    return VerificationRecord(
        check_id="e_monotone",
        location=location,
        lhs=violation,
        rhs=0.0,
        residual=violation,
        tolerance=0.0,
        passed=violation <= 0.0,
    )
