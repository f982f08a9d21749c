"""The weights w and h = 1/w, and the two integral identities on them.

The two weights are

    w(t) = sqrt(log(t)/t)         decreasing for t > e
    h(t) = sqrt(t/log(t)) = 1/w   increasing for t > e

with derivatives

    w'(t) = (1 - log t) / (2 t^{3/2} sqrt(log t))
    h'(t) = (log t - 1) / (2 sqrt(t) (log t)^{3/2})

both vanishing exactly at t = e through their numerators.

Because M(t) = sum_{p<=t} log(p)/p is a step function, the partial
summation identity

    S(x) = h(x) M(x) - integral_2^x M(t) h'(t) dt

telescopes exactly over the prime partition (integral of h' between jumps
is just a difference of h values); abel_decompose evaluates its right
side at the grid points of one block of primes in one pass, as columns,
with w the accumulator's own (accumulate.weights) and its exact M after
each prime, to be checked against the S and M the run stored; an exact
carry takes the integral from one block to the next.  The two integrals of
the main-term identity are smooth; they go through adaptive Simpson
quadrature in u = sqrt(log t), where their integrands grow only like
exp(u^2/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .accumulate import _limbs, _prefix_limbs, _round_prefixes, _to_int, weights
from .errors import DomainError, QuadratureError
from .verify import VerificationRecord, identity_record

_MAX_DEPTH = 50
QUADRATURE_TOL_FLOOR = 1e-12  # of main_term_identity


def _check_domain(t: float) -> None:
    if not t > 1.0:
        raise DomainError(f"weight functions need t > 1, got {t}")


def eval_h(t: float) -> float:
    """h(t) = sqrt(t/log(t)), the reciprocal of w."""
    _check_domain(t)
    return math.sqrt(t / math.log(t))


def quadrature(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> float:
    """Adaptive Simpson integral of f over [a, b].

    The error target is tol * max(1, |first estimate|) (absolute plus
    relative), split across subdivisions; panels terminate on the usual
    15x Richardson criterion and the extrapolated value is returned.
    Deterministic for fixed inputs.
    """
    if a > b:
        raise DomainError(f"integration bounds out of order: [{a}, {b}]")
    if not tol > 0.0:
        raise DomainError(f"quadrature tolerance must be positive, got {tol}")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = tol * max(1.0, abs(whole))
    return _simpson_rec(f, a, b, fa, fm, fb, whole, budget, _MAX_DEPTH)


def _simpson_rec(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    budget: float,
    depth: int,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # 9 instead of the classical 15: wide panels at loose tolerances
    # under-estimate their error, and the margin keeps delivered error
    # beneath the requested budget
    if abs(delta) <= 9.0 * budget:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson exhausted depth on [{a}, {b}] "
            f"(last correction {delta:.3e}, budget {budget:.3e})"
        )
    half = 0.5 * budget
    return _simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


@dataclass(frozen=True)
class AbelDecomposition:
    """The three members of S(x) = h(x) M(x) - integral at a grid of x, one
    array each, with the integral telescoped exactly over the prime
    partition: direct_S is the S the caller stored at x, and the residual
    is the relative gap between it and boundary_term - integral_term,
    both formed from the M stored at x and the exact M of each prime."""

    x: np.ndarray
    direct_S: np.ndarray
    boundary_term: np.ndarray
    integral_term: np.ndarray
    residual: np.ndarray


def abel_decompose(
    xs: Sequence[float], S: Sequence[float], M: Sequence[float],
    primes: np.ndarray, w: np.ndarray, M_primes: np.ndarray,
    carry: tuple[int, float, float] = (0, 0.0, 0.0),
) -> tuple[AbelDecomposition, tuple[int, float, float]]:
    """The partial-summation split at every x of xs in one pass over one
    block of primes, as columns in the order of xs, against the sums S and M
    (S[i], M[i] at xs[i]) the caller read; and the carry after the block.

    primes is an ascending int64 block of consecutive primes, w their
    weights(primes), as the caller already formed them, and M_primes[k]
    the accumulator's M after primes[k].  carry is the integral from 2 to
    the prime before the block, as an int in units of 2**-120, with the M
    and h at that prime; the start carry (0, 0.0, 0.0) stands for no prime
    before, and an x below every prime is refused.  Each x must lie below
    the next block's first prime.  The integral of M(t) h'(t) is exact for
    the step function M: the sum over the cells [t_k, t_{k+1}) of
    M(t_k) * (h(t_{k+1}) - h(t_k)), where the t_k are the primes <= x
    followed by x itself.  Per prime h = 1/w; at x, h is 1/weights(x),
    and M(x) is M[i], in the boundary h(x) M(x) and in x's own last cell.  The block's cells, from the prime before it on, are formed
    once, and at each x the integral is the carry plus an exact prefix sum,
    rounded once (_prefix_limbs, _round_prefixes): a point costs O(1) after
    an O(len(primes)) set-up, and any split of the primes into blocks gives
    the same bits.
    """
    xs = np.asarray(xs, dtype=np.float64)
    S, M = np.asarray(S, dtype=np.float64), np.asarray(M, dtype=np.float64)
    units, M_prev, h_prev = carry
    h = np.concatenate(([h_prev], 1.0 / w))
    cells = _limbs(np.concatenate(([M_prev], M_primes[:-1])) * np.diff(h))
    if len(primes):
        carry = (units + _to_int(cells.sum(axis=1)), float(M_primes[-1]), float(h[-1]))
    if not len(xs):
        return AbelDecomposition(xs, S, xs, xs, xs), carry
    if xs.min() < 2.0:
        raise DomainError(f"abel decomposition needs x >= 2, got {xs.min()}")
    cuts = np.searchsorted(primes, xs, side="right")  # h[cut] is the last prime's
    if not h_prev and cuts.min() == 0:
        raise DomainError(f"no primes supplied at or below x={xs[cuts.argmin()]}")
    h_x = 1.0 / weights(xs)
    boundary = h_x * M
    # the cells below x's last prime, then x's own cell [p_last, x]; the
    # prefix sums are read at ascending cuts, so in sorted order
    order = np.argsort(cuts, kind="stable")
    integral = np.empty(len(xs))
    integral[order] = _round_prefixes(
        units, _prefix_limbs(cells, cuts[order]) + _limbs((M * (h_x - h[cuts]))[order]))
    abel = AbelDecomposition(xs, S, boundary, integral, np.abs(S - (boundary - integral)) / S)
    return abel, carry


def _u_integral(g: Callable[[float], float], x: float, tol: float) -> float:
    """integral_2^x of a main-term integrand, as the integral of
    g(u) exp(u^2/2) over u = sqrt(log t): dt = 2 u exp(u^2) du and
    sqrt(t) = exp(u^2/2), so adaptive subdivision stays shallow at every x.
    """
    ua = math.sqrt(math.log(2.0))
    ub = math.sqrt(math.log(x))
    return quadrature(lambda u: g(u) * math.exp(0.5 * u * u), ua, ub, tol)


def main_term_identity(x: float, tol: float) -> VerificationRecord:
    """Check the integration-by-parts identity

        h(x) log x - integral_2^x log(t) h'(t) dt
            = h(2) log 2 + integral_2^x dt / sqrt(t log t)

    with both integrals quadratured in u = sqrt(log t) at tolerance tol;
    passes when the relative difference is below 10*tol."""
    if x < 2.0:
        raise DomainError(f"main-term identity needs x >= 2, got {x}")
    if tol < QUADRATURE_TOL_FLOOR:
        raise DomainError(f"quadrature tolerance floor is 1e-12, got {tol}")
    # integral_2^x log(t) h'(t) dt and integral_2^x dt / sqrt(t log t)
    lhs = eval_h(x) * math.log(x) - _u_integral(lambda u: u * u - 1.0, x, tol)
    rhs = eval_h(2.0) * math.log(2.0) + _u_integral(lambda u: 2.0, x, tol)
    return identity_record("main_term", x, lhs, rhs, 10.0 * tol)

