"""Independent reference computations used to pin expected test values.

The first part deliberately avoids the library under test: primes come
from trial division (not a sieve), sums are accumulated in mpmath working
precision (not compensated doubles), and integrals use fixed-grid Romberg
(not adaptive Simpson).  Run as a script to regenerate the frozen fixture
constants quoted in the test modules:

    python3 tests/oracles.py [limit]

The second part keeps the scalar forms of the pair, jump and Abel checks,
one term or one grid point at a time, as references that the vectorized
checks in primesums must match bit for bit.  Their signatures match the
calls the check registry in report makes, so a test can swap them in.
"""

from __future__ import annotations

import bisect
import math
import sys
from typing import Iterable

import mpmath

from primesums import (
    SumState,
    VerificationRecord,
    WeightedPrimeTerm,
    abel_decompose,
    pair_sum_bruteforce,
    prime_array,
    term_stream,
)
from primesums.verify import _log_subsample, identity_record, relative_residual

mpmath.mp.dps = 40


def trial_division_primes(limit: int) -> list[int]:
    """All primes <= limit, each certified by trial division only."""
    if limit < 2:
        return []
    primes = [2]
    for n in range(3, limit + 1, 2):
        is_prime = True
        for p in primes:
            if p * p > n:
                break
            if n % p == 0:
                is_prime = False
                break
        if is_prime:
            primes.append(n)
    return primes


def trial_division_pi(limit: int) -> int:
    return len(trial_division_primes(limit))


def reference_sums(primes: list[int]) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(S, M, E) over the given primes at 40 decimal digits."""
    s = mpmath.mpf(0)
    m = mpmath.mpf(0)
    for p in primes:
        w2 = mpmath.log(p) / p
        s += mpmath.sqrt(w2)
        m += w2
    return s, m, s * s - m


def reference_weight(p: int) -> mpmath.mpf:
    return mpmath.sqrt(mpmath.log(p) / p)


def romberg(f, a: float, b: float, levels: int = 18) -> float:
    """Fixed-grid Romberg integration in double precision.

    Independent cross-check for the adaptive Simpson quadrature; `levels`
    halvings of the step are always performed (no early exit), so the
    result is a deterministic function of (f, a, b, levels).
    """
    h = b - a
    rows = [[0.5 * h * (f(a) + f(b))]]
    for k in range(1, levels + 1):
        h *= 0.5
        n_new = 2 ** (k - 1)
        interior = math.fsum(f(a + (2 * i - 1) * h) for i in range(1, n_new + 1))
        row = [0.5 * rows[-1][0] + h * interior]
        for j in range(1, k + 1):
            factor = 4.0**j
            row.append((factor * row[j - 1] - rows[-1][j - 1]) / (factor - 1.0))
        rows.append(row)
    return rows[-1][-1]


def pair_records_scalar(
    n_max: int,
    terms: Iterable[WeightedPrimeTerm] | None = None,
    tolerance: float = 1e-10,
    **_: object,
) -> list[VerificationRecord]:
    """check_pair_identity one pushed term at a time, with the brute-force
    pair sum over the terms seen so far at each sampled n."""
    if terms is None:
        terms = term_stream(100 + int(n_max * (math.log(max(n_max, 6)) + 3.0)))
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


def jump_record_scalar(
    x_max: float,
    terms: Iterable[WeightedPrimeTerm] | None = None,
    tolerance: float = 1e-9,
    **_: object,
) -> VerificationRecord:
    """check_jump_identity as a scan that pushes one term at a time and
    keeps the first strictly worst residual."""
    if terms is None:
        terms = term_stream(x_max)
    state = SumState()
    prev_e = 0.0
    worst, worst_at, worst_lhs, worst_rhs = -1.0, 0, 0.0, 0.0
    for term in terms:
        predicted = 2.0 * term.weight * state.S_total
        state.push(term)
        s = state.S_total
        e = s * s - state.M_total
        lhs = e - prev_e
        prev_e = e
        residual = relative_residual(lhs, predicted)
        if residual > worst:
            worst, worst_at, worst_lhs, worst_rhs = residual, term.index, lhs, predicted
    if worst < 0.0:
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


def abel_records_scalar(cfg, xs: list[float], _primes=None) -> tuple[list, list]:
    """report._abel_records with abel_decompose run afresh at every x."""
    if not xs:
        return [], []
    primes = prime_array(int(math.floor(xs[-1]))).tolist()
    tol = cfg.tolerance("abel_identity")
    decomps = []
    worst = None
    for x in xs:
        dec = abel_decompose(x, primes[: bisect.bisect_right(primes, x)])
        decomps.append(dec)
        rec = identity_record(
            "abel_identity", x, dec.direct_S, dec.boundary_term - dec.integral_term, tol
        )
        if worst is None or rec.residual > worst.residual:
            worst = rec
    return [worst], decomps


def _fmt(x: mpmath.mpf) -> str:
    return f"{float(x):.17g}"


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 10**6
    small = [2, 3, 5, 7]

    print("# single weights sqrt(log p / p)")
    for p in (2, 3, 5, 7, 11):
        print(f"w({p}) = {_fmt(reference_weight(p))}")
    a1 = reference_weight(2)
    a2 = reference_weight(3)
    print(f"2*w(2)*w(3) = {_fmt(2 * a1 * a2)}")
    print(f"w(3)*S_1    = {_fmt(a2 * a1)}")

    s4, m4, e4 = reference_sums(small)
    print("\n# sums over primes {2,3,5,7}")
    print(f"S = {_fmt(s4)}\nM = {_fmt(m4)}\nE = {_fmt(e4)}")
    x = mpmath.mpf(10)
    print(f"r_S(10)    = {_fmt(s4 / mpmath.sqrt(x / mpmath.log(x)))}")
    print(f"r_E_pi(10) = {_fmt(e4 / 4)}")

    print("\n# quadrature oracle")
    val = romberg(lambda t: 1.0 / math.sqrt(t * math.log(t)), 2.0, 10.0)
    print(f"int_2^10 dt/sqrt(t log t) = {val:.17g}")

    print(f"\n# trial-division run to {limit}")
    primes = trial_division_primes(limit)
    print(f"pi({limit}) = {len(primes)}")
    s, m, e = reference_sums(primes)
    print(f"S({limit}) = {_fmt(s)}")
    print(f"M({limit}) = {_fmt(m)}")
    print(f"E({limit}) = {_fmt(e)}")


if __name__ == "__main__":
    main()
