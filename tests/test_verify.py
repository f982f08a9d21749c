import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    jump_record_scalar,
    make_term,
    pair_prime_bound,
    pair_records_scalar,
    pair_sum_bruteforce,
    push,
    weight_arrays,
)
from primesums.accumulate import BLOCK, Checkpoint, SumState, grid_points, run_stream
from primesums.errors import SizeError
from primesums.report import CHECKS, RunConfig, RunContext
from primesums.sieve import base_primes, prime_array
from primesums.verify import (
    check_E_monotone,
    check_jump_identity,
    check_pair_identity,
    relative_residual,
)

TWO_A1_A2 = 0.71250731477826901

W_1E5, WSQ_1E5 = weight_arrays(prime_array(10**5))  # 9592 primes: the scan crosses a BLOCK


def terms_upto(bound):
    return [make_term(i, p) for i, p in enumerate(base_primes(bound), start=1)]


def first_n(n):
    """(w, w * w) of the first n primes."""
    return weight_arrays(prime_array(pair_prime_bound(n))[:n])


def perturbed(w, k):
    """A copy of w with a_{k+1} off by a relative 1e-6; the squared
    weights are left as they were, so M no longer matches S."""
    w = w.copy()
    w[k] *= 1 + 1e-6
    return w


class TestPairSumBruteforce:
    def test_empty(self):
        assert pair_sum_bruteforce([]) == 0.0

    def test_single_term(self):
        assert pair_sum_bruteforce(terms_upto(2)) == 0.0

    def test_two_terms(self):
        assert pair_sum_bruteforce(terms_upto(3)) == pytest.approx(
            TWO_A1_A2, rel=1e-15
        )

    def test_size_cap(self):
        fake = terms_upto(2) * 10_001
        with pytest.raises(SizeError):
            pair_sum_bruteforce(fake)


class TestPairIdentity:
    def test_small_sample(self):
        records = check_pair_identity(*first_n(16))
        assert [int(r.location) for r in records] == [1, 2, 4, 8, 16]
        assert all(r.passed for r in records)
        first = records[0]
        assert first.lhs == 0.0 and first.rhs == 0.0

    def test_n_four_matches_hand_value(self):
        rec = [r for r in check_pair_identity(*first_n(4)) if r.location == 4][0]
        assert rec.rhs == pytest.approx(3.9243475915771899, rel=1e-13)

    def test_residuals_tight_to_500(self):
        for rec in check_pair_identity(*first_n(500)):
            assert rec.residual <= 1e-12

    def test_perturbed_weight_detected_from_that_index_on(self):
        # corrupt a_5 (p=11) in the accumulated stream only; the brute-force
        # oracle recomputes weights from the primes and must disagree at
        # every sampled n >= 5
        terms = terms_upto(200)  # 46 primes
        bad = replace(terms[4], weight=terms[4].weight * (1 + 1e-6))
        corrupted = terms[:4] + [bad] + terms[5:]
        state = SumState()
        clean_seen = []
        for clean, dirty in zip(terms, corrupted):
            push(state, dirty)
            clean_seen.append(clean)
            if state.n in (4, 8, 16, 32):
                s = state.S_total
                lhs = s * s - state.M_total
                residual = relative_residual(lhs, pair_sum_bruteforce(clean_seen))
                if state.n >= 5:
                    assert residual > 1e-10
                else:
                    assert residual <= 1e-10


class TestPairVectorized:
    """The numpy pair pass against the scalar push + brute-force loop."""

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_records_equal_bruteforce(self, n):
        w, wsq = first_n(n)
        assert repr(check_pair_identity(w, wsq)) == repr(pair_records_scalar(w, wsq))

    @given(st.integers(1, 200), st.integers(0, 199))
    @settings(max_examples=20, deadline=None)
    def test_perturbed_terms_equal_bruteforce(self, n, k):
        w, wsq = perturbed(W_1E5[:n], k % n), WSQ_1E5[:n]
        assert repr(check_pair_identity(w, wsq)) == repr(pair_records_scalar(w, wsq))


class TestJumpVectorized:
    """The numpy jump pass against the scalar scan that pushes each term."""

    def test_equals_push_scan_at_1e5(self):
        assert repr(check_jump_identity(W_1E5, WSQ_1E5)) == repr(
            jump_record_scalar(W_1E5, WSQ_1E5)
        )

    @given(
        st.one_of(
            st.sampled_from([0, 1, 2, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1]),
            st.integers(0, len(W_1E5) - 1),
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_perturbed_equals_push_scan(self, k):
        w = perturbed(W_1E5, k)
        rec = check_jump_identity(w, WSQ_1E5)
        assert repr(rec) == repr(jump_record_scalar(w, WSQ_1E5))


class TestJumpIdentity:
    def test_tiny_range_pure_rounding(self):
        rec = check_jump_identity(*weight_arrays(prime_array(10)))
        assert rec.passed
        assert rec.residual <= 1e-14

    def test_single_term(self):
        rec = check_jump_identity(*weight_arrays([2]))
        assert rec.residual == 0.0  # E_1 - E_0 = 0 and 2 a_1 S_0 = 0

    def test_to_1e5(self):
        rec = check_jump_identity(W_1E5, WSQ_1E5)
        assert rec.passed and rec.residual <= 1e-9

    def test_perturbation_detected_at_index(self):
        k = 25  # p_26 = 101
        rec = check_jump_identity(perturbed(W_1E5, k), WSQ_1E5)
        assert not rec.passed
        assert rec.location == k + 1


class TestCheckContext:
    """RunContext sieves to x_jump and the last Abel point only; the pair
    check's primes lie at or below x_jump at every x_max."""

    @pytest.mark.parametrize("x_max", [150, 1000, 48611, 48612, 10**6])
    def test_pair_and_jump_records_equal_a_wider_sieve(self, x_max, tmp_path):
        cfg = RunConfig(x_max=x_max, out_dir=tmp_path)
        ctx = RunContext(cfg, run_stream(float(x_max), cfg.grid()))
        n_jump = ctx.result.state.n  # every prime <= x_max, as x_max <= 1e6
        assert ctx.n_pair == min(5000, n_jump) and len(ctx.primes) >= n_jump
        run = {c.check_id: c.run for c in CHECKS}
        pair = run["pair_identity"](ctx, 1e-10)
        assert repr(pair) == repr(check_pair_identity(*first_n(ctx.n_pair), tolerance=1e-10))
        assert repr(run["jump_identity"](ctx, 1e-9)) == repr(
            [check_jump_identity(*first_n(n_jump), tolerance=1e-9)]
        )


def cps_at(es):
    """A table with E = es at x = 10, 20, ..., every other column constant."""
    n = len(es)
    ones = np.ones(n)
    return Checkpoint(
        x=10.0 * np.arange(1, n + 1), pi=np.arange(1, n + 1), S=ones, M=ones,
        E=np.array(es, dtype=np.float64), r_S=ones, r_E_pi=ones, r_E_x=ones,
        mertens_remainder=np.zeros(n),
    )


class TestEMonotone:
    def test_single_checkpoint(self):
        assert check_E_monotone(cps_at([1.0])).passed

    def test_computed_checkpoints(self):
        res = run_stream(1e3, grid_points(10, 1e3, 2.0))
        rec = check_E_monotone(res.checkpoints)
        assert rec.passed and rec.residual == 0.0

    def test_permuted_fails(self):
        rec = check_E_monotone(cps_at([1.0, 3.0, 2.0]))
        assert not rec.passed
        assert rec.location == 30.0

    def test_negative_E_fails(self):
        assert not check_E_monotone(cps_at([-0.5, 1.0])).passed

    def test_first_of_equal_drops_and_nan(self):
        rec = check_E_monotone(cps_at([3.0, 2.0, 4.0, 3.0]))
        assert (rec.location, rec.residual) == (20.0, 1.0)
        rec = check_E_monotone(cps_at([1.0, math.nan, 2.0]))
        assert not rec.passed and rec.location == 20.0
        rec = check_E_monotone(cps_at([]))
        assert rec.passed and rec.location == 0.0


def test_relative_residual_normalization():
    assert relative_residual(1.0, 1.0) == 0.0
    assert relative_residual(0.5, 0.0) == 0.5  # max(1, |rhs|) keeps zero rhs sane
    assert relative_residual(200.0, 100.0) == 1.0
