import bisect
import math
import random
import time
from dataclasses import fields

import numpy as np
import pytest

from oracles import eval_w_prime, main_term_growth, romberg
from primesums.calculus import (
    AbelDecomposition,
    abel_decompose,
    abel_decompose_grid,
    eval_h,
    eval_h_prime,
    eval_w,
    main_term_identity,
    quadrature,
)
from primesums.errors import DomainError, QuadratureError
from primesums.report import ABEL_GRID_CAP, RunConfig, _abel_records
from primesums.sieve import base_primes

ROMBERG_2_10 = 2.8630264312956002  # int_2^10 dt/sqrt(t log t), frozen oracle


class TestWeightFunctions:
    def test_w_at_e(self):
        assert eval_w(math.e) == pytest.approx(math.sqrt(1 / math.e), rel=1e-15)

    def test_derivatives_vanish_exactly_at_e(self):
        assert eval_w_prime(math.e) == 0.0
        assert eval_h_prime(math.e) == 0.0

    def test_reciprocal_identity_within_ulps(self):
        for t in (3.0, 10.0, 1e6):
            assert eval_w(t) * eval_h(t) == pytest.approx(1.0, rel=1e-15)

    def test_reciprocal_identity_log_grid(self):
        for k in range(200):
            t = 1.0001 * 1.12**k
            assert eval_w(t) * eval_h(t) == pytest.approx(1.0, rel=1e-14)

    def test_domain_guard(self):
        for fn in (eval_w, eval_w_prime, eval_h, eval_h_prime):
            with pytest.raises(DomainError):
                fn(1.0)
            with pytest.raises(DomainError):
                fn(0.5)

    def test_sign_structure_on_log_grid(self):
        # 100 points per side of e
        for k in range(100):
            t = math.e * (1.00001 * 1.2**k)
            assert eval_w_prime(t) < 0.0
            assert eval_h_prime(t) > 0.0
        for k in range(100):
            t = 1.0 + (math.e - 1.0) * (0.99 ** (k + 1))
            if t >= math.e:
                continue
            assert eval_h_prime(t) < 0.0

    @pytest.mark.parametrize("t", [3.0, 10.0, 1e3, 1e6])
    def test_derivatives_match_central_differences(self, t):
        delta = t * 1e-5
        fd_w = (eval_w(t + delta) - eval_w(t - delta)) / (2 * delta)
        fd_h = (eval_h(t + delta) - eval_h(t - delta)) / (2 * delta)
        assert eval_w_prime(t) == pytest.approx(fd_w, rel=1e-6)
        assert eval_h_prime(t) == pytest.approx(fd_h, rel=1e-6)


class TestQuadrature:
    def test_linear(self):
        assert quadrature(lambda t: t, 0.0, 1.0, 1e-10) == pytest.approx(0.5, rel=1e-12)

    def test_log_integral(self):
        assert quadrature(lambda t: 1 / t, 1.0, math.e, 1e-10) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_against_romberg_oracle(self):
        val = quadrature(lambda t: 1 / math.sqrt(t * math.log(t)), 2.0, 10.0, 1e-10)
        assert val == pytest.approx(ROMBERG_2_10, rel=1e-11)
        # and the oracle itself reproduces its frozen value
        assert romberg(lambda t: 1 / math.sqrt(t * math.log(t)), 2.0, 10.0) == (
            ROMBERG_2_10
        )

    def test_degenerate_interval(self):
        assert quadrature(lambda t: t, 2.0, 2.0, 1e-9) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            quadrature(lambda t: t, 1.0, 0.0, 1e-9)

    def test_depth_exhaustion_raises(self):
        # a discontinuity at an irrational point can never be resolved
        step = lambda t: 0.0 if t < 1 / math.pi else 1.0
        with pytest.raises(QuadratureError):
            quadrature(step, 0.0, 1.0, 1e-14)

    def test_deterministic(self):
        f = lambda t: math.exp(-t) * math.sin(3 * t)
        a = quadrature(f, 0.0, 5.0, 1e-9)
        b = quadrature(f, 0.0, 5.0, 1e-9)
        assert a == b


@pytest.fixture(scope="module")
def primes_1e6():
    return base_primes(10**6)


def primes_to(primes, x):
    return primes[: bisect.bisect_right(primes, x)]


class TestAbelDecomposition:
    def test_single_prime(self, primes_1e6):
        dec = abel_decompose(2.0, primes_to(primes_1e6, 2))
        assert dec.integral_term == 0.0
        assert dec.residual <= 1e-12
        assert dec.direct_S == pytest.approx(0.58870501125773733, rel=1e-15)

    def test_four_primes(self, primes_1e6):
        dec = abel_decompose(10.0, primes_to(primes_1e6, 10))
        assert dec.residual <= 1e-10
        assert dec.boundary_term - dec.integral_term == pytest.approx(
            dec.direct_S, rel=1e-10
        )

    @pytest.mark.parametrize("x", [100.0, 1e4, 1e6])
    def test_residual_at_scale(self, x, primes_1e6):
        dec = abel_decompose(x, primes_to(primes_1e6, x))
        assert dec.residual <= 1e-8

    def test_x_between_primes(self, primes_1e6):
        dec = abel_decompose(9.5, primes_to(primes_1e6, 9.5))
        assert dec.residual <= 1e-10

    def test_rejects_small_x(self):
        with pytest.raises(DomainError):
            abel_decompose(1.5, [2])


class TestAbelGrid:
    """The one-pass grid form against abel_decompose at each point."""

    @staticmethod
    def row(abel, i):
        """Row i of the grid's columns, as the per-point record."""
        return AbelDecomposition(*(getattr(abel, f.name)[i].item() for f in fields(abel)))

    def test_edge_points_unsorted(self, primes_1e6):
        xs = [10.0, 2.0, 5.0, 2.5, 4.99, 3.0, 9.5, 1e6, 7.0, 100.0]
        abel = abel_decompose_grid(xs, np.array(primes_1e6))
        assert abel.x.tolist() == xs
        for i, x in enumerate(xs):
            assert repr(self.row(abel, i)) == repr(abel_decompose(x, primes_to(primes_1e6, x)))

    def test_rejects_small_x_and_missing_primes(self):
        with pytest.raises(DomainError):
            abel_decompose_grid([3.0, 1.5], np.array([2, 3]))
        with pytest.raises(DomainError):
            abel_decompose_grid([3.0], np.array([5, 7]))
        empty = abel_decompose_grid([], np.array([2, 3]))
        assert all(len(getattr(empty, f.name)) == 0 for f in fields(empty))

    def test_dense_grid_to_1e6(self, primes_1e6):
        # ~9.2e4 points below 1e6: one abel_decompose per point would take
        # on the order of a quarter of an hour
        cfg = RunConfig(x_max=10**6, grid_ratio=1.0001)
        xs = np.array([x for x in cfg.grid() if x <= ABEL_GRID_CAP])
        assert len(xs) > 90_000
        t0 = time.perf_counter()
        (worst,), abel = _abel_records(cfg, xs, np.array(primes_1e6))
        assert time.perf_counter() - t0 < 30.0
        assert worst.passed
        assert abel.x.tolist() == xs.tolist()
        at = int(np.argmax(abel.residual))
        sample = [0, 1, len(xs) - 1, at] + random.Random(0).sample(range(len(xs)), 8)
        for i in sample:
            x = float(xs[i])
            assert repr(self.row(abel, i)) == repr(abel_decompose(x, primes_to(primes_1e6, x)))


class TestMainTermIdentity:
    def test_boundary_x2(self):
        # both integrals run over the empty [sqrt(log 2), sqrt(log 2)]
        rec = main_term_identity(2.0, 1e-9)
        assert rec.passed and rec.residual == 0.0
        assert rec.lhs == rec.rhs == eval_h(2.0) * math.log(2.0)

    @pytest.mark.parametrize("x", [1e3, 1e6])
    def test_identity_at_scale(self, x):
        rec = main_term_identity(x, 1e-9)
        assert rec.passed
        assert rec.residual <= 1e-8

    @pytest.mark.parametrize(
        "x, bound", [(1e3, 1e-11), (1e6, 1e-11), (1e9, 1e-9), (1e10, 1e-9)]
    )
    def test_substitution_residual(self, x, bound):
        # 2.3e-13 at 1e3, 2.1e-12 at 1e6, 3.3e-11 at 1e9 and 1.7e-10 at 1e10
        assert main_term_identity(x, 1e-9).residual <= bound

    def test_substitution_path_above_1e8(self):
        rec = main_term_identity(1e9, 1e-9)
        assert rec.passed

    def test_residual_shrinks_with_tolerance(self):
        res = [main_term_identity(1e6, tol).residual for tol in (1e-6, 1e-8, 1e-10)]
        assert res[2] < res[0]
        assert res[1] <= res[0] * 10  # roughly linear scaling, generous slack
        for tol, r in zip((1e-6, 1e-8, 1e-10), res):
            assert r <= 10 * tol

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            main_term_identity(1e3, 1e-13)


class TestMainTermGrowth:
    def test_vanishes_toward_2(self):
        assert main_term_growth(2.0 + 1e-9) < 1e-4

    def test_monotone_context_values(self):
        # regression-pinned at calibration (values from this build's first run)
        assert main_term_growth(1e3) == pytest.approx(2.316329497256581, rel=1e-9)
        assert main_term_growth(1e6) == pytest.approx(2.193303268581896, rel=1e-9)

    def test_1e6_within_quarter_of_1e9(self):
        g6 = main_term_growth(1e6)
        g9 = main_term_growth(1e9)
        assert abs(g6 / g9 - 1.0) < 0.25

    def test_domain(self):
        with pytest.raises(DomainError):
            main_term_growth(2.0)
