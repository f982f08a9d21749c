import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesums import (
    ConfigError,
    DomainError,
    SequencingError,
    SumState,
    an_Sn_series,
    base_primes,
    grid_points,
    make_term,
    run_stream,
    snapshot,
)
from primesums.accumulate import BLOCK, weights

# frozen oracle values (mpmath, 40 digits; see tests/oracles.py)
W2 = 0.58870501125773733
W3 = 0.60514799530586172
TWO_A1_A2 = 0.71250731477826901
S_2357 = 2.2884492619932488
M_2357 = 1.3126524331402549
E_2357 = 3.9243475915771899


def state_over(primes):
    state = SumState()
    state.extend_primes(list(primes))
    return state


def fields(state):
    return tuple(getattr(state, name) for name in SumState.__slots__)


PRIME_TABLE = base_primes(300_000)  # 25997 primes: runs can cross a block

# ascending runs the accumulator takes: arbitrary integers anywhere in the
# sieve's range (extend_primes does not test primality), or runs of
# consecutive primes long enough to span a BLOCK boundary
ascending_runs = st.one_of(
    st.lists(st.integers(2, 2**53), min_size=1, max_size=200, unique=True).map(
        sorted
    ),
    st.tuples(
        st.integers(0, len(PRIME_TABLE) - 1), st.integers(1, BLOCK + 2000)
    ).map(lambda t: PRIME_TABLE[t[0] : t[0] + t[1]]),
)


class TestMakeTerm:
    def test_weight_of_2(self):
        assert make_term(1, 2).weight == pytest.approx(W2, rel=1e-15)

    def test_weight_of_3(self):
        assert make_term(2, 3).weight == pytest.approx(W3, rel=1e-15)

    def test_weight_sq_consistent_within_ulps(self):
        for k, p in enumerate(base_primes(1000), start=1):
            term = make_term(k, p)
            assert term.weight_sq == pytest.approx(term.weight**2, rel=4e-16)
            # and stays within a few ulps of the defining value log(p)/p
            assert term.weight_sq == pytest.approx(math.log(p) / p, rel=1e-15)

    def test_rejects_non_primes_below_2(self):
        with pytest.raises(DomainError):
            make_term(1, 1)
        with pytest.raises(DomainError):
            make_term(0, 2)


class TestPush:
    def test_first_push(self):
        state = SumState().push(make_term(1, 2))
        assert state.n == 1
        assert state.S_total == pytest.approx(0.5887050, abs=1e-7)
        assert state.M_total == pytest.approx(0.3465736, abs=1e-7)
        assert state.E_incremental == 0.0

    def test_second_push_jump(self):
        state = SumState().push(make_term(1, 2)).push(make_term(2, 3))
        assert state.E_total == pytest.approx(TWO_A1_A2, rel=1e-15)

    def test_out_of_order_prime_rejected(self):
        state = SumState().push(make_term(1, 5))
        with pytest.raises(SequencingError):
            state.push(make_term(2, 3))
        with pytest.raises(SequencingError):
            state.push(make_term(2, 5))

    def test_wrong_index_rejected(self):
        state = SumState().push(make_term(1, 2))
        with pytest.raises(SequencingError):
            state.push(make_term(3, 5))

    @given(ascending_runs)
    @settings(max_examples=40, deadline=None)
    def test_push_equals_extend_bitwise(self, primes):
        pushed = SumState()
        for i, p in enumerate(primes, start=1):
            pushed.push(make_term(i, p))
        assert fields(pushed) == fields(state_over(primes))

    def test_sums_strictly_increase(self):
        state = SumState()
        prev = (0.0, 0.0, 0.0)
        for i, p in enumerate(base_primes(5000), start=1):
            state.push(make_term(i, p))
            now = (state.S_total, state.M_total, state.E_total)
            if i >= 2:
                assert now[0] > prev[0] and now[1] > prev[1] and now[2] > prev[2]
            prev = now

    def test_weights_strictly_decreasing_from_3(self):
        state = state_over(base_primes(100_000))
        assert state.weights_decreasing


class TestSnapshot:
    def test_four_primes_at_10(self):
        cp = snapshot(state_over([2, 3, 5, 7]), 10.0)
        assert cp.S == pytest.approx(S_2357, rel=1e-14)
        assert cp.M == pytest.approx(M_2357, rel=1e-14)
        assert cp.E == pytest.approx(E_2357, rel=1e-13)
        assert cp.pi == 4

    def test_single_prime_E_is_exactly_zero(self):
        cp = snapshot(state_over([2]), 2.0)
        assert cp.E == 0.0
        assert math.isnan(cp.r_S)  # ratio fields undefined below x=3

    def test_snapshot_behind_state_rejected(self):
        state = state_over([2, 3, 5, 7])
        with pytest.raises(SequencingError):
            snapshot(state, 6.9)

    def test_snapshot_before_any_prime_rejected(self):
        with pytest.raises(SequencingError):
            snapshot(SumState(), 10.0)

    def test_constant_between_consecutive_primes(self):
        # E (and S, M) must be identical anywhere in [p_n, p_{n+1})
        state = state_over([2, 3, 5, 7])
        at_7 = snapshot(state, 7.0)
        for x in (7.0, 7.5, 9.2, 10.999):
            cp = snapshot(state, x)
            assert (cp.S, cp.M, cp.E) == (at_7.S, at_7.M, at_7.E)

    def test_E_nonnegative_along_stream(self):
        state = SumState()
        for i, p in enumerate(base_primes(2000), start=1):
            state.push(make_term(i, p))
            assert snapshot(state, float(p)).E >= 0.0


class TestGridPoints:
    def test_powers_of_two(self):
        assert grid_points(100, 800, 2) == [100, 200, 400, 800]

    def test_degenerate(self):
        assert grid_points(100, 100, 2) == [100]

    def test_quarter_octave_to_1e6(self):
        pts = grid_points(100, 10**6, 2 ** 0.25)
        # ceil(log(1e4)/log(2^{1/4})) + 1 lattice-plus-endpoint points
        expected = math.ceil(math.log(1e4) / math.log(2 ** 0.25)) + 1
        assert len(pts) == expected == 55
        assert pts[-1] == 10**6

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            grid_points(100, 1000, 1.0)
        with pytest.raises(ConfigError):
            grid_points(100, 1000, 0.5)

    @given(
        st.floats(min_value=3, max_value=1e3),
        st.floats(min_value=1.01, max_value=4),
        st.floats(min_value=1, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_grid_properties(self, start, ratio, span):
        pts = grid_points(start, start * span, ratio)
        assert pts[0] >= start * 0.999999
        assert pts[-1] == start * span
        assert all(a < b for a, b in zip(pts, pts[1:]))


class TestCompensation:
    def test_matches_fsum_at_1e5(self):
        primes = base_primes(100_000)
        state = state_over(primes)
        ws = [make_term(i, p).weight for i, p in enumerate(primes, 1)]
        squares = [make_term(i, p).weight_sq for i, p in enumerate(primes, 1)]
        assert state.S_total == math.fsum(ws)
        assert state.M_total == math.fsum(squares)

    def test_jump_cross_check_residual(self):
        state = state_over(base_primes(100_000))
        s = state.S_total
        direct = s * s - state.M_total
        assert abs(direct - state.E_total) <= 1e-9 * max(1.0, state.E_total)

    @given(ascending_runs)
    @settings(max_examples=100, deadline=None)
    def test_sums_equal_fsum_exactly(self, primes):
        # the sums are exact, so reading them rounds exactly as fsum does
        state = state_over(primes)
        ws = weights(np.array(primes, dtype=np.int64))
        assert state.S_total == math.fsum(ws.tolist())
        assert state.M_total == math.fsum((ws * ws).tolist())

    @given(ascending_runs, st.data())
    @settings(max_examples=100, deadline=None)
    def test_split_at_any_index_is_identical(self, primes, data):
        cut = data.draw(st.integers(0, len(primes)))
        whole = state_over(primes)
        split = state_over(primes[:cut])
        split.extend_primes(primes[cut:])
        assert fields(split) == fields(whole)
        # a mark at the cut sees the state of the first part alone
        seen = []
        marked = SumState()
        marked.extend_primes(primes, None, [cut], lambda i: seen.append(fields(marked)))
        assert seen == [fields(state_over(primes[:cut]))]
        assert fields(marked) == fields(whole)


class TestRunStream:
    def test_checkpoints_on_grid(self):
        grid = grid_points(100, 10**4, 2 ** 0.25)
        res = run_stream(1e4, grid)
        assert [cp.x for cp in res.checkpoints] == grid
        assert res.checkpoints[-1].pi == 1229

    def test_monotone_checkpoint_fields(self):
        res = run_stream(1e5, grid_points(3, 1e5, 2 ** 0.25))
        cps = res.checkpoints
        for field in ("pi", "S", "M", "E"):
            vals = [getattr(cp, field) for cp in cps]
            assert vals == sorted(vals)

    def test_ratios_finite_and_positive_from_3(self):
        res = run_stream(1e4, grid_points(3, 1e4, 2 ** 0.25))
        for cp in res.checkpoints:
            for value in (cp.r_S, cp.r_E_pi, cp.r_E_x):
                assert math.isfinite(value) and value > 0.0
            assert math.isfinite(cp.mertens_remainder)

    def test_an_sn_samples(self):
        samples = an_Sn_series(10**4)
        assert samples[0] == (1, 0.0)
        n2 = dict(samples)[2]
        assert n2 == pytest.approx(0.3562536573891345, rel=1e-15)
        assert samples[-1][0] == 1229  # final n always sampled
        ns = [n for n, _ in samples[:-1]]
        assert all(n & (n - 1) == 0 for n in ns)

    def test_x_max_on_prime_includes_it(self):
        res = run_stream(13.0, [13.0])
        assert res.checkpoints[0].pi == 6  # 2,3,5,7,11,13
