"""Weight functions, their derivatives, and the integral identities.

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
is just a difference of h values); abel_decompose turns that into a
machine-checkable identity with no quadrature error at all, and
abel_decompose_grid evaluates it at a whole grid of x in one pass, as
columns, bit for bit as abel_decompose would at each point.  The remaining
integrals here are smooth and go through adaptive Simpson quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .accumulate import exact_sums_at, libm_log
from .errors import DomainError, QuadratureError
from .verify import VerificationRecord, identity_record

_SUBSTITUTION_THRESHOLD = 1e8  # above this, integrate in u = sqrt(log t)
_MAX_DEPTH = 50
QUADRATURE_TOL_FLOOR = 1e-12  # of main_term_identity


def _check_domain(t: float) -> None:
    if not t > 1.0:
        raise DomainError(f"weight functions need t > 1, got {t}")


def eval_w(t: float) -> float:
    """w(t) = sqrt(log(t)/t)."""
    _check_domain(t)
    return math.sqrt(math.log(t) / t)


def eval_w_prime(t: float) -> float:
    """w'(t) = (1 - log t) / (2 t^{3/2} sqrt(log t))."""
    _check_domain(t)
    lt = math.log(t)
    return (1.0 - lt) / (2.0 * t * math.sqrt(t) * math.sqrt(lt))


def eval_h(t: float) -> float:
    """h(t) = sqrt(t/log(t)), the reciprocal of w."""
    _check_domain(t)
    return math.sqrt(t / math.log(t))


def eval_h_prime(t: float) -> float:
    """h'(t) = (log t - 1) / (2 sqrt(t) (log t)^{3/2})."""
    _check_domain(t)
    lt = math.log(t)
    return (lt - 1.0) / (2.0 * math.sqrt(t) * lt * math.sqrt(lt))


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
    """The three members of S(x) = h(x) M(x) - integral, telescoped exactly
    over the prime partition, plus the relative residual between them.

    abel_decompose gives them at one x; abel_decompose_grid gives the same
    fields as columns, an array each with one entry per grid point.
    """

    x: float
    direct_S: float
    boundary_term: float
    integral_term: float
    residual: float


def abel_decompose(x: float, primes: Iterable[int]) -> AbelDecomposition:
    """Evaluate the partial-summation split of S(x) over the given primes.

    The integral of M(t) h'(t) is computed exactly for the step function:
    sum over partition cells [p_k, t_{k+1}) of M(p_k) * (h(t_{k+1}) - h(p_k)),
    where the t_k are the primes <= x followed by x itself.
    """
    if x < 2.0:
        raise DomainError(f"abel decomposition needs x >= 2, got {x}")
    ps = []
    for p in primes:
        if p > x:
            break
        ps.append(p)
    if not ps:
        raise DomainError(f"no primes supplied at or below x={x}")

    weights = []
    cell_terms = []
    m_run = 0.0
    h_here = eval_h(float(ps[0]))
    for i, p in enumerate(ps):
        wsq = math.log(p) / p
        weights.append(math.sqrt(wsq))
        m_run += wsq
        t_next = float(ps[i + 1]) if i + 1 < len(ps) else x
        h_next = eval_h(t_next)
        cell_terms.append(m_run * (h_next - h_here))
        h_here = h_next

    direct = math.fsum(weights)
    integral = math.fsum(cell_terms)
    boundary = eval_h(x) * m_run
    residual = abs(direct - (boundary - integral)) / direct
    return AbelDecomposition(
        x=x,
        direct_S=direct,
        boundary_term=boundary,
        integral_term=integral,
        residual=residual,
    )


def abel_decompose_grid(xs: Sequence[float], primes: np.ndarray) -> AbelDecomposition:
    """abel_decompose(x, primes) at every x of xs, bit for bit, in one pass,
    as columns in the order of xs.

    primes is an ascending int64 array holding every prime up to max(xs).
    The logs are the C library's, taken once per prime as abel_decompose
    takes them; M runs as the same sequential sum (np.cumsum), and the
    cell terms are formed once.  At each x the direct sum and the integral
    (the cells below x plus x's own last cell) are exact prefix sums
    rounded once, which is what fsum returns, so a point costs O(1) after
    an O(pi(max xs)) set-up.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if not len(xs):
        return AbelDecomposition(xs, xs, xs, xs, xs)
    if xs.min() < 2.0:
        raise DomainError(f"abel decomposition needs x >= 2, got {xs.min()}")
    cuts = np.searchsorted(primes, xs, side="right")
    if cuts.min() == 0:
        raise DomainError(f"no primes supplied at or below x={xs[cuts.argmin()]}")
    ps = primes[: cuts.max()]
    pf = ps.astype(np.float64)
    log_p = libm_log(pf)
    wsq = log_p / pf
    m_run = np.cumsum(wsq)
    h = np.sqrt(pf / log_p)
    # the prefix sums are read at ascending cuts, so work in sorted order
    order = np.argsort(cuts, kind="stable")
    x_up = xs[order]
    last = cuts[order] - 1
    h_x = np.sqrt(x_up / libm_log(x_up))
    m_x = m_run[last]
    direct = exact_sums_at(np.sqrt(wsq), last + 1)
    # the cells [p_k, p_{k+1}) below x, then x's own cell [p_last, x]
    integral = exact_sums_at(
        m_run[:-1] * (h[1:] - h[:-1]), last, extra=m_x * (h_x - h[last])
    )
    boundary = h_x * m_x
    cols = np.empty((4, len(xs)))
    cols[:, order] = (
        direct,
        boundary,
        integral,
        np.abs(direct - (boundary - integral)) / direct,
    )
    return AbelDecomposition(xs, *cols)


def _integral_inverse_sqrt(x: float, tol: float) -> float:
    """integral_2^x dt / sqrt(t log t)."""
    if x > _SUBSTITUTION_THRESHOLD:
        # u = sqrt(log t) maps the integrand to 2 exp(u^2/2), taming the
        # exponential growth and keeping adaptive subdivision shallow
        ua = math.sqrt(math.log(2.0))
        ub = math.sqrt(math.log(x))
        return quadrature(lambda u: 2.0 * math.exp(0.5 * u * u), ua, ub, tol)
    return quadrature(lambda t: 1.0 / math.sqrt(t * math.log(t)), 2.0, x, tol)


def _integral_log_h_prime(x: float, tol: float) -> float:
    """integral_2^x log(t) h'(t) dt."""
    if x > _SUBSTITUTION_THRESHOLD:
        ua = math.sqrt(math.log(2.0))
        ub = math.sqrt(math.log(x))
        return quadrature(
            lambda u: (u * u - 1.0) * math.exp(0.5 * u * u), ua, ub, tol
        )
    return quadrature(lambda t: math.log(t) * eval_h_prime(t), 2.0, x, tol)


def main_term_identity(x: float, tol: float) -> VerificationRecord:
    """Check the integration-by-parts identity

        h(x) log x - integral_2^x log(t) h'(t) dt
            = h(2) log 2 + integral_2^x dt / sqrt(t log t)

    with both sides quadratured at tolerance tol; passes when the relative
    difference is below 10*tol."""
    if x < 2.0:
        raise DomainError(f"main-term identity needs x >= 2, got {x}")
    if tol < QUADRATURE_TOL_FLOOR:
        raise DomainError(f"quadrature tolerance floor is 1e-12, got {tol}")
    anchor = eval_h(2.0) * math.log(2.0)
    if x == 2.0:
        return identity_record("main_term", x, anchor, anchor, 10.0 * tol)
    lhs = eval_h(x) * math.log(x) - _integral_log_h_prime(x, tol)
    rhs = anchor + _integral_inverse_sqrt(x, tol)
    return identity_record("main_term", x, lhs, rhs, 10.0 * tol)


def main_term_growth(x: float, tol: float = 1e-10) -> float:
    """(integral_2^x dt/sqrt(t log t)) / sqrt(x/log x), the normalized size
    of the main-term integral; tends to 0 as x -> 2+ and is reported
    alongside r_S at scale."""
    if not x > 2.0:
        raise DomainError(f"growth ratio needs x > 2, got {x}")
    return _integral_inverse_sqrt(x, tol) / eval_h(x)
