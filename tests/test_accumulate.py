import itertools
import math
from dataclasses import fields as dataclass_fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    an_Sn_series,
    an_sn_band_scalar,
    assert_same_table,
    check_E_monotone_scalar,
    checkpoints_scalar,
    empirical_constants_scalar,
    make_term,
    mertens_width_scalar,
    push,
    ratio_positivity_scalar,
)
from primesums.accumulate import (
    BLOCK,
    Checkpoint,
    SumState,
    _limbs,
    _round_prefixes,
    exact_sums_at,
    grid_points,
    run_stream,
    snapshot,
    weights,
)
from primesums.asymptotics import (
    an_sn_band,
    empirical_constants,
    mertens_width,
    ratio_positivity_record,
)
from primesums.errors import ConfigError, DomainError, SequencingError
from primesums.sieve import SieveConfig, base_primes, stream_segments
from primesums.verify import check_E_monotone

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
        state = push(SumState(), make_term(1, 2))
        assert state.n == 1
        assert state.S_total == pytest.approx(0.5887050, abs=1e-7)
        assert state.M_total == pytest.approx(0.3465736, abs=1e-7)
        assert state.E_incremental == 0.0

    def test_second_push_jump(self):
        state = push(push(SumState(), make_term(1, 2)), make_term(2, 3))
        assert state.E_total == pytest.approx(TWO_A1_A2, rel=1e-15)

    def test_out_of_order_prime_rejected(self):
        state = push(SumState(), make_term(1, 5))
        with pytest.raises(SequencingError):
            push(state, make_term(2, 3))
        with pytest.raises(SequencingError):
            push(state, make_term(2, 5))

    def test_wrong_index_rejected(self):
        state = push(SumState(), make_term(1, 2))
        with pytest.raises(SequencingError):
            push(state, make_term(3, 5))

    @given(ascending_runs)
    @settings(max_examples=40, deadline=None)
    def test_push_equals_extend_bitwise(self, primes):
        pushed = SumState()
        for i, p in enumerate(primes, start=1):
            push(pushed, make_term(i, p))
        assert fields(pushed) == fields(state_over(primes))

    def test_sums_strictly_increase(self):
        state = SumState()
        prev = (0.0, 0.0, 0.0)
        for i, p in enumerate(base_primes(5000), start=1):
            push(state, make_term(i, p))
            now = (state.S_total, state.M_total, state.E_total)
            if i >= 2:
                assert now[0] > prev[0] and now[1] > prev[1] and now[2] > prev[2]
            prev = now

    def test_weights_strictly_decreasing_from_3(self):
        state = state_over(base_primes(100_000))
        assert state.weights_decreasing


class TestSnapshot:
    """snapshot is the one-row checkpoint table."""

    def test_four_primes_at_10(self):
        cp = snapshot(state_over([2, 3, 5, 7]), 10.0)
        assert len(cp) == 1 and cp.pi.dtype == np.int64
        assert cp.S[0] == pytest.approx(S_2357, rel=1e-14)
        assert cp.M[0] == pytest.approx(M_2357, rel=1e-14)
        assert cp.E[0] == pytest.approx(E_2357, rel=1e-13)
        assert cp.pi[0] == 4

    def test_single_prime_E_is_exactly_zero(self):
        cp = snapshot(state_over([2]), 2.0)
        assert cp.E[0] == 0.0
        assert math.isnan(cp.r_S[0])  # ratio fields undefined below x=3

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
            assert (cp.S[0], cp.M[0], cp.E[0]) == (at_7.S[0], at_7.M[0], at_7.E[0])

    def test_E_nonnegative_along_stream(self):
        state = SumState()
        for i, p in enumerate(base_primes(2000), start=1):
            push(state, make_term(i, p))
            assert snapshot(state, float(p)).E[0] >= 0.0


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
        first = state_over(primes[:cut])
        split = state_over(primes[:cut])
        # a mark at 0 reads the state the call starts from
        s_at, m_at = split.extend_primes(primes[cut:], None, [0])
        assert (s_at.tolist(), m_at.tolist()) == ([first.S_total], [first.M_total])
        assert fields(split) == fields(whole)
        # marks return the sums after the first part alone, and after all
        marked = SumState()
        s_at, m_at = marked.extend_primes(primes, None, [0, cut, cut, len(primes)])
        assert s_at.tolist() == [0.0, first.S_total, first.S_total, whole.S_total]
        assert m_at.tolist() == [0.0, first.M_total, first.M_total, whole.M_total]
        assert fields(marked) == fields(whole)


# doubles of either sign that are multiples of 2**-120 and below 512: any
# double of magnitude at least 2**-68 is, as is zero
exact_doubles = st.one_of(
    st.just(0.0),
    st.floats(2.0**-68, 511.0).flatmap(lambda v: st.sampled_from([v, -v])),
)


# every double that is a multiple of 2**-120 in (-512, 512)
fixed_point = st.builds(
    math.ldexp, st.integers(-(2**53 - 1), 2**53 - 1), st.integers(-120, -44)
)


class TestLimbs:
    @given(st.lists(fixed_point, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_limbs_reconstruct_exactly(self, values):
        limbs = _limbs(np.array(values))
        assert np.all(np.abs(limbs[:, 1:]) < 2**40)
        assert np.all(limbs * np.sign(values)[:, None] >= 0)  # the sign of v
        for v, (hi, mid, lo) in zip(values, limbs.tolist()):
            assert Fraction((hi << 80) + (mid << 40) + lo, 2**120) == Fraction(v)

    @given(
        st.lists(fixed_point, min_size=1, max_size=64),
        st.integers(BLOCK - 4, BLOCK + 4),
        st.one_of(st.integers(-(2**135), 2**135), st.integers(-(2**70), 2**70)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_prefixes_rounds_correctly(self, values, n, offset, data):
        # prefixes of n values, repeated past a BLOCK, from a base of either
        # sign, at times one that cancels a prefix to (near) zero
        v = np.resize(np.array(values), n)
        units = list(itertools.accumulate(int(Fraction(x) * 2**120) for x in v.tolist()))
        base = offset - data.draw(st.sampled_from([0, *units]))
        rows = np.cumsum(_limbs(v), axis=0)
        expect = [float(Fraction(base + u, 2**120)) for u in units]
        assert _round_prefixes(base, rows).tolist() == expect


class TestExactSumsAt:
    @given(
        st.lists(exact_doubles, max_size=BLOCK + 300),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_fsum_of_each_prefix(self, values, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), min_size=1)))
        extra = data.draw(st.lists(exact_doubles, min_size=len(cuts), max_size=len(cuts)))
        v = np.array(values)
        assert exact_sums_at(v, cuts).tolist() == [math.fsum(values[:c]) for c in cuts]
        assert exact_sums_at(v, cuts, np.array(extra)).tolist() == [
            math.fsum(values[:c] + [e]) for c, e in zip(cuts, extra)
        ]

    def test_every_prefix_across_blocks(self):
        ws = weights(np.array(PRIME_TABLE[: 2 * BLOCK + 5], dtype=np.int64))
        got = exact_sums_at(ws, np.arange(len(ws) + 1))
        # exact running sums in units of 2**-120, each rounded by float()
        units = itertools.accumulate((int(math.ldexp(w, 120)) for w in ws.tolist()), initial=0)
        assert got.tolist() == [math.ldexp(float(u), -120) for u in units]


class TestRunStream:
    def test_checkpoints_on_grid(self):
        grid = grid_points(100, 10**4, 2 ** 0.25)
        res = run_stream(1e4, grid)
        assert res.checkpoints.x.tolist() == grid
        assert res.checkpoints.pi[-1] == 1229

    def test_monotone_checkpoint_fields(self):
        res = run_stream(1e5, grid_points(3, 1e5, 2 ** 0.25))
        for field in ("pi", "S", "M", "E"):
            assert np.all(np.diff(getattr(res.checkpoints, field)) >= 0)

    def test_ratios_finite_and_positive_from_3(self):
        cps = run_stream(1e4, grid_points(3, 1e4, 2 ** 0.25)).checkpoints
        for values in (cps.r_S, cps.r_E_pi, cps.r_E_x):
            assert np.all(np.isfinite(values) & (values > 0.0))
        assert np.all(np.isfinite(cps.mertens_remainder))

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
        assert res.checkpoints.pi.tolist() == [6]  # 2,3,5,7,11,13

    def test_grid_behind_state_rejected(self):
        state = state_over([2, 3, 5, 7])
        with pytest.raises(SequencingError):
            run_stream(20.0, [6.9, 20.0], state=state)


class TestTableAgainstPerPoint:
    """The checkpoint table and the checks that read it, against push plus
    a one-row snapshot at each grid point and the row loops, by repr."""

    X_MAX = 1_000_000.5  # past the last prime below 1e6 and past the sieve limit
    SEGMENT = 1024  # about 490 segments to 1e6

    @pytest.fixture(scope="class")
    def grid(self):
        dense = grid_points(100, 1e6, 1.0001)
        segments = list(stream_segments(SieveConfig(10**6, self.SEGMENT)))
        # before the first prime of a later segment, that segment's cut is 0
        cut_zero = [seg.lo + 0.5 for seg in segments[100:103]]
        assert all(x < seg.primes[0] for x, seg in zip(cut_zero, segments[100:103]))
        on_primes = [7919.0, 999983.0]
        past = [999990.0, 1_000_000.25, self.X_MAX]
        return sorted(set(dense[:-1] + cut_zero + on_primes + past))

    @pytest.fixture(scope="class")
    def reference(self, grid):
        return checkpoints_scalar(self.X_MAX, grid)

    @pytest.fixture(scope="class")
    def run(self, grid):
        return run_stream(self.X_MAX, grid, segment_size=self.SEGMENT)

    def test_table_equals_per_point(self, grid, run, reference):
        assert len(grid) > 90_000
        assert_same_table(run.checkpoints, reference)

    def test_resumed_split_equals_per_point(self, grid, run, reference):
        k = len(grid) // 2
        first = run_stream(grid[k - 1], grid[:k], segment_size=self.SEGMENT)
        rest = run_stream(self.X_MAX, grid[k:], segment_size=self.SEGMENT,
                          state=first.state, samples=first.power_samples)
        joined = Checkpoint(*(np.concatenate((getattr(first.checkpoints, f.name),
                                              getattr(rest.checkpoints, f.name)))
                              for f in dataclass_fields(Checkpoint)))
        assert_same_table(joined, reference)
        assert rest.an_sn_samples == run.an_sn_samples

    def test_checks_equal_row_loops(self, run, reference):
        cps, samples = run.checkpoints, run.an_sn_samples
        pairs = [
            (check_E_monotone(cps), check_E_monotone_scalar(cps)),
            (ratio_positivity_record(cps, samples),
             ratio_positivity_scalar(cps, samples)),
            (empirical_constants(cps, 1e3), empirical_constants_scalar(cps, 1e3)),
            (empirical_constants(cps, 1e2, 1e4), empirical_constants_scalar(cps, 1e2, 1e4)),
            (an_sn_band(samples), an_sn_band_scalar(samples)),
            (an_sn_band(samples, 100), an_sn_band_scalar(samples, 100)),
            (mertens_width(cps, 1e2, 1e4), mertens_width_scalar(cps, 1e2, 1e4)),
            (mertens_width(cps, 1e5, 1e6), mertens_width_scalar(cps, 1e5, 1e6)),
        ]
        for mine, ref in pairs:
            assert repr(mine) == repr(ref)

    @pytest.mark.parametrize("break_at", [0, 5000, -1])
    def test_checks_equal_row_loops_on_faults(self, reference, break_at):
        """A drop in E, and a nonpositive ratio, at the first, a middle and
        the last row: the same worst point as the row loops."""
        E, r_S = reference.E.copy(), reference.r_S.copy()
        E[break_at] = -1.0
        r_S[break_at] = 0.0
        bad = replace(reference, E=E, r_S=r_S)
        assert repr(check_E_monotone(bad)) == repr(check_E_monotone_scalar(bad))
        assert not check_E_monotone(bad).passed
        assert repr(ratio_positivity_record(bad, [(2, -1.0)], 1e3)) == repr(
            ratio_positivity_scalar(bad, [(2, -1.0)], 1e3))
        assert repr(ratio_positivity_record(bad)) == repr(ratio_positivity_scalar(bad))
