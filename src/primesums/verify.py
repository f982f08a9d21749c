"""Structural-identity verification.

Two exact identities tie the sums together: the pair form

    S_n^2 - M_n = 2 * sum_{i<j} a_i a_j

and the jump form E_n - E_{n-1} = 2 a_n S_{n-1}.  Both hold to rounding
only, so the checks here compare an O(n^2) brute-force oracle (or a
streamed jump scan) against the accumulated values and record relative
residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .accumulate import BLOCK, Checkpoint, SumState, WeightedPrimeTerm, weights
from .errors import SizeError
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, stream_segments

_BRUTEFORCE_CAP = 10_000


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


def check_pair_identity(
    n_max: int,
    terms: Iterable[WeightedPrimeTerm] | None = None,
    tolerance: float = 1e-10,
) -> list[VerificationRecord]:
    """Compare S_n^2 - M_n against the brute-force pair sum at a
    logarithmic subsample of n (1, 2, 4, ... and n_max itself)."""
    if n_max > _BRUTEFORCE_CAP:
        raise SizeError(f"pair identity capped at n={_BRUTEFORCE_CAP}, got {n_max}")
    if terms is None:
        # p_n < n(log n + log log n) for n >= 6; generous floor for small n
        bound = 100 + int(n_max * (math.log(max(n_max, 6)) + 3.0))
        terms = term_stream(bound)
    sample = set(_log_subsample(n_max))
    state = SumState()
    seen: list[WeightedPrimeTerm] = []
    records = []
    for term in terms:
        if term.index > n_max:
            break
        state.push(term)
        seen.append(term)
        if term.index in sample:
            s = state.S_total
            lhs = s * s - state.M_total
            rhs = pair_sum_bruteforce(seen)
            records.append(
                identity_record("pair_identity", float(term.index), lhs, rhs, tolerance)
            )
    return records


def check_jump_identity(
    x_max: float,
    terms: Iterable[WeightedPrimeTerm] | None = None,
    tolerance: float = 1e-9,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> VerificationRecord:
    """Stream all primes to x_max and report the worst relative residual of
    (S_n^2 - M_n) - (S_{n-1}^2 - M_{n-1}) against 2 a_n S_{n-1}."""
    if terms is None:
        terms = term_stream(x_max, segment_size=segment_size)
    state = SumState()
    prev_e = 0.0
    worst = -1.0
    worst_at = 0
    worst_lhs = 0.0
    worst_rhs = 0.0
    for term in terms:
        predicted = 2.0 * term.weight * state.S_total
        state.push(term)
        s = state.S_total
        e = s * s - state.M_total
        lhs = e - prev_e
        prev_e = e
        residual = relative_residual(lhs, predicted)
        if residual > worst:
            worst = residual
            worst_at = term.index
            worst_lhs = lhs
            worst_rhs = predicted
    if worst < 0.0:
        # empty stream: vacuous pass
        worst, worst_at, worst_lhs, worst_rhs = 0.0, 0, 0.0, 0.0
    return VerificationRecord(
        check_id="jump_identity",
        location=float(worst_at),
        lhs=worst_lhs,
        rhs=worst_rhs,
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
