import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import primesums.report as report
from oracles import (
    Recorder,
    checkpoint_table_eager,
    checks_whole,
    exact_sums_at,
    jump_record_scalar,
    make_term,
    pair_prime_bound,
    pair_records_scalar,
    pair_row_sums_limbs,
    pair_sum_bruteforce,
    registry_tolerance,
    table_with,
    weight_arrays,
)
from primesums.accumulate import (
    BLOCK,
    SumState,
    grid_points,
    run_stream,
)
from primesums.calculus import AbelDecomposition
from primesums.errors import DomainError, SizeError
from primesums.report import RunConfig, RunContext, run_checks
from primesums.sieve import base_primes, prime_array
from primesums.verify import (
    _BRUTEFORCE_CAP,
    PAIR_CHUNK,
    _log_subsample,
    _pair_row_sums,
    check_E_monotone,
    check_jump_identity,
    check_pair_identity,
    relative_residual,
    worst_record,
)

TWO_A1_A2 = 0.71250731477826901
PAIR_TOL = registry_tolerance("pair_identity")
JUMP_TOL = registry_tolerance("jump_identity")

# 9592 primes: the scan crosses a BLOCK
W_1E5, S_1E5, M_1E5 = weight_arrays(prime_array(10**5))


def terms_upto(bound):
    return [make_term(i, p) for i, p in enumerate(base_primes(bound), start=1)]


def first_n(n):
    """(w, S, M) of the first n primes."""
    return weight_arrays(prime_array(pair_prime_bound(n))[:n])


def perturbed(w, k):
    """A copy of w with a_{k+1} off by a relative 1e-6; the prefix sums
    are left as the accumulator formed them, so w no longer matches S."""
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
        records = check_pair_identity(*first_n(16), PAIR_TOL)
        assert [int(r.location) for r in records] == [1, 2, 4, 8, 16]
        assert all(r.passed for r in records)
        first = records[0]
        assert first.lhs == 0.0 and first.rhs == 0.0

    def test_n_four_matches_hand_value(self):
        rec = [r for r in check_pair_identity(*first_n(4), PAIR_TOL) if r.location == 4][0]
        assert rec.rhs == pytest.approx(3.9243475915771899, rel=1e-13)

    def test_residuals_tight_to_500(self):
        for rec in check_pair_identity(*first_n(500), PAIR_TOL):
            assert rec.residual <= 1e-12

    def test_perturbed_weight_detected_from_that_index_on(self):
        # corrupt a_5 (p=11) in the weights only; the accumulator's S and M
        # of the 46 primes below 200 must disagree with the pair sum of the
        # weights at every sampled n >= 5
        w, S, M = first_n(46)
        records = check_pair_identity(perturbed(w, 4), S, M, PAIR_TOL)
        assert [int(r.location) for r in records] == [1, 2, 4, 8, 16, 32, 46]
        for rec in records:
            assert rec.passed == (rec.location < 5)
            if rec.location >= 5:
                assert rec.residual > 1e-10


class TestPairVectorized:
    """The numpy pair pass against the scalar push + brute-force loop."""

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_records_equal_bruteforce(self, n):
        args = (*first_n(n), PAIR_TOL)
        assert repr(check_pair_identity(*args)) == repr(pair_records_scalar(*args))

    @given(st.integers(1, 200), st.integers(0, 199))
    @settings(max_examples=20, deadline=None)
    def test_perturbed_terms_equal_bruteforce(self, n, k):
        args = (perturbed(W_1E5[:n], k % n), S_1E5[: n + 1], M_1E5[: n + 1], PAIR_TOL)
        assert repr(check_pair_identity(*args)) == repr(pair_records_scalar(*args))


def samples(n):
    return np.array([k for k in _log_subsample(n) if k >= 1], dtype=np.int64)


# 0-based columns either side of a PAIR_CHUNK boundary or a sample 2**j
EDGES = sorted({
    e + d for e in [PAIR_CHUNK * q for q in range(1, 9)] + [2**j for j in range(12)]
    for d in (-1, 0, 1) if e + d >= 0
})


class TestPairRowSums:
    """The float64 triangle against the int-limb one of tests/oracles.py."""

    W_CAP = first_n(_BRUTEFORCE_CAP)[0]

    @pytest.mark.parametrize("n", [5000, _BRUTEFORCE_CAP])
    def test_equals_limb_triangle(self, n):
        w, ns = self.W_CAP[:n], samples(n)
        assert _pair_row_sums(w, ns) == pair_row_sums_limbs(w, ns)

    @given(
        st.one_of(st.sampled_from([e for e in EDGES if e >= 2]), st.integers(2, 3000)),
        st.one_of(st.sampled_from(EDGES), st.integers(0, 2999)),
        st.one_of(st.just(1 + 1e-6), st.floats(0.5, 2.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_perturbed_equals_limb_triangle(self, n, k, factor):
        w = self.W_CAP[:n].copy()
        w[k % n] *= factor
        assert _pair_row_sums(w, samples(n)) == pair_row_sums_limbs(w, samples(n))


class TestPairRefusals:
    """check_pair_identity refuses weights its exact row sums do not cover."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
    def test_weight_not_finite_and_positive(self, bad):
        w, S, M = first_n(40)
        w[20] = bad
        with pytest.raises(DomainError, match="finite positive"):
            check_pair_identity(w, S, M, PAIR_TOL)

    @pytest.mark.parametrize(
        "w, accepted",
        [
            ([1.0, 1.0, 2.0**-14], True),  # scaled largest product 2**66
            ([1.0, 1.0, 2.0**-15], False),  # 2**67, past 2**80 / _BRUTEFORCE_CAP
            ([1e-160] * 3, False),  # the smallest product is not a normal double
            pytest.param(  # low is 1.0, but 2**52 * 1e300 overflows
                [1e300, 1e-300], False,
                marks=pytest.mark.filterwarnings("ignore:overflow encountered in ldexp"),
            ),
        ],
    )
    def test_span_past_the_split_bound(self, w, accepted):
        w = np.array(w)
        zeros = np.zeros(len(w) + 1)
        if accepted:
            assert _pair_row_sums(w, samples(3)) == pair_row_sums_limbs(w, samples(3))
            check_pair_identity(w, zeros, zeros, PAIR_TOL)
        else:
            with pytest.raises(DomainError, match="span"):
                check_pair_identity(w, zeros, zeros, PAIR_TOL)


class TestJumpVectorized:
    """The numpy jump pass against the scalar scan over one n at a time."""

    def test_equals_push_scan_at_1e5(self):
        args = (W_1E5, S_1E5, M_1E5, JUMP_TOL)
        assert repr(check_jump_identity(*args)) == repr(jump_record_scalar(*args))

    @given(
        st.one_of(
            st.sampled_from([0, 1, 2, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1]),
            st.integers(0, len(W_1E5) - 1),
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_perturbed_equals_push_scan(self, k):
        args = (perturbed(W_1E5, k), S_1E5, M_1E5, JUMP_TOL)
        assert repr(check_jump_identity(*args)) == repr(jump_record_scalar(*args))


class TestJumpIdentity:
    def test_tiny_range_pure_rounding(self):
        rec = check_jump_identity(*weight_arrays(prime_array(10)), JUMP_TOL)
        assert rec.passed
        assert rec.residual <= 1e-14

    def test_single_term(self):
        rec = check_jump_identity(*weight_arrays([2]), JUMP_TOL)
        assert rec.residual == 0.0  # E_1 - E_0 = 0 and 2 a_1 S_0 = 0

    def test_to_1e5(self):
        rec = check_jump_identity(W_1E5, S_1E5, M_1E5, JUMP_TOL)
        assert rec.passed and rec.residual <= 1e-9

    def test_perturbation_detected_at_index(self):
        k = 25  # p_26 = 101
        rec = check_jump_identity(perturbed(W_1E5, k), S_1E5, M_1E5, JUMP_TOL)
        assert not rec.passed
        assert rec.location == k + 1


def checks_of(ctx, command="verify"):
    """The records of command's checks on ctx, by check id."""
    out = {}
    for record in run_checks(ctx, command):
        out.setdefault(record.check_id, []).append(record)
    return out


class TestCheckContext:
    """The block pass sieves to x_cap only; the pair check's primes lie at
    or below x_cap at every x_max."""

    @pytest.mark.parametrize("x_max", [150, 1000, 48611, 48612, 10**6])
    def test_pair_and_jump_records_equal_a_wider_sieve(self, x_max, tmp_path):
        cfg = RunConfig(x_max=x_max, out_dir=tmp_path)
        ctx = RunContext(cfg, run_stream(float(x_max), cfg.grid()))
        n_jump = ctx.result.state.n  # every prime <= x_max, as x_max <= 1e6
        seen = Recorder()
        ctx.scan([seen])
        assert ctx.n_pair == min(5000, n_jump) and seen.n == n_jump
        records = checks_of(ctx)
        pair = check_pair_identity(*first_n(ctx.n_pair), PAIR_TOL)
        assert repr(records["pair_identity"]) == repr(pair)
        assert repr(records["jump_identity"]) == repr(
            [check_jump_identity(*first_n(n_jump), JUMP_TOL)]
        )

    def test_prefix_sums_equal_exact_sums_at(self, tmp_path):
        # the accumulator's S_n and M_n of every prime to 1e6, n = 0..pi(1e6),
        # as the block pass hands them to the folds, are the exact prefix
        # sums of w and w * w, rounded once
        cfg = RunConfig(x_max=10**6, out_dir=tmp_path)
        ctx = RunContext(cfg, run_stream(1e6, cfg.grid()))
        seen = Recorder()
        ctx.scan([seen])
        w, S, M = seen.arrays()
        n = np.arange(len(w) + 1)
        assert len(w) == 78498 and seen.blocks == -(-78498 // BLOCK) + 1
        assert S.tolist() == exact_sums_at(w, n).tolist()
        assert M.tolist() == exact_sums_at(w * w, n).tolist()

    def test_nudged_accumulator_M_fails_jump_identity(self, tmp_path, monkeypatch):
        # the jump check reads M from SumState.extend_primes: one M_n off by
        # a relative 1e-6 there, in the one block that forms it, fails it at
        # n or n + 1, in the first block and past the first block boundary
        cfg = RunConfig(x_max=10**5, out_dir=tmp_path)
        result = run_stream(1e5, cfg.grid())
        assert checks_of(RunContext(cfg, result))["jump_identity"][0].passed
        extend = SumState.extend_primes
        for k in (26, BLOCK + 26):

            def nudged(self, primes, samples=None, marks=()):
                n0 = self.n
                S, M = extend(self, primes, samples, marks)
                if n0 < k <= n0 + len(primes):
                    M[k - n0] *= 1 + 1e-6
                return S, M

            monkeypatch.setattr(SumState, "extend_primes", nudged)
            (rec,) = checks_of(RunContext(cfg, result))["jump_identity"]
            assert not rec.passed and rec.location in (k, k + 1)


# the largest x_max drawn for a block size: a block of 1 prime costs a
# Python step per prime
BLOCK_CAPS = {1: 3000, 7: 30_000, 4096: 10**6, BLOCK: 10**6}


class TestBlockPass:
    """The block pass against the whole-array path it replaced
    (oracles.checks_whole): at any block size the pair, jump and Abel
    records and the Abel columns are the same bits."""

    # x_max from 100, the smallest run a config accepts
    @given(
        st.sampled_from(sorted(BLOCK_CAPS)).flatmap(
            lambda b: st.tuples(st.just(b), st.integers(100, BLOCK_CAPS[b]))),
        st.sampled_from([2**0.25, 1.0001]),
    )
    # the smallest run, a block a prime: the jumps at n = 1 and 2 both have
    # residual 0, and the worst, at n = 23, comes after them
    @example((1, 100), 2**0.25)
    # the rows at 475.68 and 951.37 lie in cells from the last prime of a
    # block of 7 (467, 947) to the first of the next (479, 953)
    @example((7, 1000), 2**0.25)
    # the worst jump residual to 1e6 is at n = 70205, the first n of the
    # second block, read against the first block's last S
    @example((70204, 10**6), 2**0.25)
    @example((BLOCK, 10**6), 1.0001)
    @settings(max_examples=25, deadline=None)
    def test_any_block_size_gives_the_whole_array_bits(self, size, ratio):
        block, x_max = size
        cfg = RunConfig(x_max=x_max, grid_ratio=ratio)
        result = run_stream(float(x_max), cfg.grid())
        pair, jump, abel_records, abel = checks_whole(cfg, result)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(report, "BLOCK", block)
            ctx = RunContext(cfg, result)
            records = checks_of(ctx)
        assert repr(records["pair_identity"]) == repr(pair)
        assert repr(records["jump_identity"]) == repr([jump])
        assert repr(records["abel_identity"]) == repr(abel_records)
        folded = ctx.folds["abel_identity"].abel
        for f in fields(AbelDecomposition):
            assert getattr(folded, f.name).tobytes() == getattr(abel, f.name).tobytes(), f.name

    def test_first_of_equal_jump_records_stays(self):
        """The jumps at n = 1 and 2 both have residual 0, the worst of the
        run to 4, which no config accepts: fed a block each, the jump fold
        keeps the first of the equals, as the whole-array scan does."""
        p = prime_array(4)
        w, S, M = weight_arrays(p)
        fold = report._JumpFold(JUMP_TOL)
        for n0 in range(len(p)):
            fold.step(n0, p[n0 : n0 + 1], w[n0 : n0 + 1], S[n0 : n0 + 2], M[n0 : n0 + 2])
        whole = worst_record("jump_identity", np.arange(1, 3), np.diff(S * S - M),
                             2.0 * w * S[:-1], JUMP_TOL)
        assert (whole.location, whole.residual) == (1.0, 0.0)
        assert repr(fold.records()) == repr([whole])


def cps_at(es):
    """A table with E = es at x = 10, 20, ..., every other column constant."""
    n = len(es)
    ones = np.ones(n)
    return table_with(
        checkpoint_table_eager(10.0 * np.arange(1, n + 1), np.arange(1, n + 1), ones, ones),
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
