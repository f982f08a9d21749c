import math

import numpy as np
import pytest

from oracles import (
    an_Sn_series,
    block_records_scalar,
    eval_w,
    registry_tolerance,
    rows,
    table_with,
)
from primesums.accumulate import SumState, grid_points, run_stream, snapshot
from primesums.asymptotics import (
    an_sn_band,
    block_sandwich,
    empirical_constants,
    lower_bound_check,
    mertens_contraction_record,
    mertens_width,
    ratio_positivity_record,
    sandwich_records,
    scale_identity_record,
    series_band,
)
from primesums.errors import ConfigError, DomainError
from primesums.sieve import base_primes

R_S_10 = 1.0981183082402295
R_E_PI_10 = 0.98108689789429748
LOWER_TOL = registry_tolerance("lower_bound")
SANDWICH_TOL = registry_tolerance("block_sandwich")
SCALE_TOL = registry_tolerance("scale_identity")


@pytest.fixture(scope="module")
def run_1e5():
    return run_stream(1e5, grid_points(3, 1e5, 2**0.25))


@pytest.fixture(scope="module")
def cps_1e5(run_1e5):
    return run_1e5.checkpoints


def checkpoints(x_max, grid):
    return run_stream(x_max, grid).checkpoints


def state_over(primes):
    state = SumState()
    state.extend_primes(list(primes))
    return state


class TestComputeRatios:
    """The four ratio fields, as snapshot computes them."""

    def test_values_at_10(self):
        cp = snapshot(state_over([2, 3, 5, 7]), 10.0)
        assert cp.r_S[0] == pytest.approx(R_S_10, rel=1e-14)
        assert cp.r_E_pi[0] == pytest.approx(R_E_PI_10, rel=1e-13)

    def test_agrees_with_snapshot_population(self, run_1e5):
        (row,) = rows(run_1e5.checkpoints.select([10]))
        (again,) = rows(snapshot(state_over(base_primes(int(row.x))), row.x))
        assert repr(again) == repr(row)

    def test_domain_floor(self):
        (below,) = rows(snapshot(state_over([2]), math.e))
        assert all(math.isnan(v) for v in below[5:])
        (at,) = rows(snapshot(state_over([2, 3]), 3.0))
        assert all(math.isfinite(v) for v in at[5:])


class TestAnSnSeries:
    def test_first_two_samples(self):
        samples = dict(an_Sn_series(100.0))
        assert samples[1] == 0.0
        assert samples[2] == pytest.approx(0.3562536573891345, rel=1e-15)

    def test_band_excludes_n1(self):
        band = an_sn_band(an_Sn_series(10**4))
        assert band.inf_value > 0.0
        assert band.name == "anS"

    def test_rejects_tiny_range(self):
        with pytest.raises(DomainError):
            an_Sn_series(2.5)


class TestLowerBound:
    def test_block_10_80(self):
        (rec,) = lower_bound_check(checkpoints(80.0, [10.0, 80.0]), 8.0, LOWER_TOL)
        assert rec.location == 80.0
        assert rec.passed and rec.residual == 0.0
        # S(80) really does dominate the block bound with slack
        assert rec.lhs > rec.rhs > 0.0

    def test_every_grid_point(self, cps_1e5):
        (rec,) = lower_bound_check(cps_1e5, 8.0, LOWER_TOL)  # the worst grid point
        assert rec.passed
        assert len(block_sandwich(cps_1e5, [8.0]).x) > 30

    def test_rejects_shallow_block(self):
        # 20/8 < 3 and 10/8 < 3: no block is deep enough to check
        assert lower_bound_check(checkpoints(20.0, [10.0, 20.0]), 8.0, LOWER_TOL) == []

    def test_empty_block_trivially_passes(self):
        # consecutive checkpoints with no prime between them: bound is 0
        cols = checkpoints(126.9, [113.5, 126.9])
        (rec,) = lower_bound_check(cols, 1.1, LOWER_TOL)
        assert rec.location == 126.9
        assert rec.passed
        assert rec.rhs == 0.0


class TestBlockSandwich:
    def test_block_10_20(self):
        blocks = block_sandwich(checkpoints(20.0, [10.0, 20.0]), [2.0])
        (stat,) = rows(blocks)
        assert stat.x == 20.0
        assert stat.delta_pi == 4  # 11, 13, 17, 19
        assert stat.x_lower == 10.0
        assert stat.lower <= stat.delta_S <= stat.upper
        assert all(r.passed for r in sandwich_records(blocks, SANDWICH_TOL))

    def test_bounds_use_snapped_edge(self):
        # 40/3 = 13.3 snaps to 10
        (stat,) = rows(block_sandwich(checkpoints(40.0, [10.0, 40.0]), [3.0]))
        assert stat.x_lower == 10.0
        assert stat.upper == stat.delta_pi * eval_w(10.0)

    def test_every_grid_point_all_lambdas(self, cps_1e5):
        lambdas = (2.0, 4.0, 8.0)
        blocks = block_sandwich(cps_1e5, lambdas)
        records = sandwich_records(blocks, SANDWICH_TOL)
        assert [r.check_id for r in records] == [
            "block_sandwich_lower", "block_sandwich_upper"]
        assert all(r.passed for r in records)
        # the grid starts at 3, so every x/lam >= 3 has a grid point below it
        assert len(blocks.x) == sum(
            x / lam >= 3.0 for x in cps_1e5.x.tolist() for lam in lambdas)
        assert blocks.delta_pi.dtype == np.int64

    def test_empty_block(self):
        stats = rows(block_sandwich(checkpoints(127.0, [113.5, 126.9, 127.0]), [1.1]))
        assert [s.x for s in stats] == [126.9, 127.0]
        stat = stats[0]
        assert stat.delta_pi == 0
        assert stat.delta_S == 0.0 == stat.lower == stat.upper

    def test_no_blocks_no_records(self):
        blocks = block_sandwich(checkpoints(10.0, [3.0, 10.0]), [4.0])
        assert len(blocks.x) == 0 and sandwich_records(blocks, SANDWICH_TOL) == []

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, 1.0, 0.5])
    def test_rejects_ratio_not_finite_above_1(self, cps_1e5, ratio):
        # a NaN or infinite ratio leaves no block, so both checks would
        # pass with nothing checked
        with pytest.raises(ConfigError, match="finite and > 1"):
            block_sandwich(cps_1e5, [2.0, ratio])
        with pytest.raises(ConfigError, match="finite and > 1"):
            lower_bound_check(cps_1e5, ratio, LOWER_TOL)


class TestBlockArrays:
    """The array pass against the per-point reference, by repr."""

    @pytest.mark.parametrize("x_max, grid, lambdas, A", [
        # x/lambda < 3 at the first points
        (40.0, [3.5, 5.0, 10.0, 20.0, 40.0], [2.0, 4.0], 2.5),
        # an empty block, with x/lambda below the first grid point
        (127.0, [113.5, 126.9, 127.0], [1.1], 1.1),
        # x/lambda landing exactly on a grid point
        (640.0, [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0], [2.0, 4.0], 8.0),
        # lambda below the grid ratio: every edge snaps down a whole step
        (1e4, grid_points(3, 1e4, 2.0), [1.01, 1.5], 1.9),
    ])
    def test_edge_grids(self, x_max, grid, lambdas, A):
        cps = run_stream(x_max, grid).checkpoints
        self.assert_equal(cps, lambdas, A)

    def test_dense_grid_to_1e6(self):
        cps = run_stream(1e6, grid_points(100, 1e6, 1.0001)).checkpoints
        self.assert_equal(cps, (2.0, 4.0, 8.0), 8.0)

    @staticmethod
    def assert_equal(cps, lambdas, A):
        blocks = block_sandwich(cps, lambdas)
        got = (rows(blocks), sandwich_records(blocks, SANDWICH_TOL),
               lower_bound_check(cps, A, LOWER_TOL))
        for mine, ref in zip(got, block_records_scalar(cps, lambdas, A, SANDWICH_TOL)):
            assert mine and len(mine) == len(ref)
            # the first pair that differs, not a diff of the whole run
            assert next(((a, b) for a, b in zip(mine, ref) if repr(a) != repr(b)), None) is None


class TestEmpiricalConstants:
    def test_single_checkpoint(self, run_1e5):
        cp = run_1e5.checkpoints.select([-1])
        bands = empirical_constants(cp, x_min=3.0)
        for band in bands:
            assert band.inf_value == band.sup_value
            assert band.inf_at == cp.x[0]

    def test_band_window_selection(self, run_1e5):
        bands = empirical_constants(run_1e5.checkpoints, 1e2, 1e4)
        for band in bands:
            assert 1e2 <= band.inf_at <= 1e4
            assert 1e2 <= band.sup_at <= 1e4
            assert band.inf_value <= band.sup_value

    def test_empty_selection_rejected(self, run_1e5):
        with pytest.raises(ConfigError):
            empirical_constants(run_1e5.checkpoints, 1e9)

    def test_series_band_locations(self):
        band = series_band("demo", np.array([1.0, 2.0, 3.0, 4.0]), np.array([5.0, 3.0, 4.0, 3.0]))
        assert band.inf_value == 3.0 and band.inf_at == 2.0  # the first of equals
        assert band.sup_value == 5.0 and band.sup_at == 1.0
        with pytest.raises(ConfigError):
            series_band("demo", np.empty(0), np.empty(0))


class TestMertensRemainder:
    def test_width_shrinks(self, run_1e5):
        wide = mertens_width(run_1e5.checkpoints, 1e2, 1e3)
        narrow = mertens_width(run_1e5.checkpoints, 1e4, 1e5)
        assert narrow < wide

    def test_contraction_record_windows(self, run_1e5):
        rec = mertens_contraction_record(
            run_1e5.checkpoints, early_window=(1e2, 1e3), late_window=(1e4, 1e5)
        )
        assert rec.passed


class TestConsistencyRecords:
    def test_scale_identity(self, run_1e5):
        rec = scale_identity_record(run_1e5.checkpoints, SCALE_TOL)
        assert rec.passed
        assert rec.residual <= 1e-12

    def test_ratio_positivity(self, run_1e5):
        rec = ratio_positivity_record(run_1e5.checkpoints, run_1e5.an_sn_samples)
        assert rec.passed

    def test_ratio_positivity_catches_corruption(self, run_1e5):
        last = run_1e5.checkpoints.select([-1])
        rec = ratio_positivity_record(table_with(last, r_S=np.array([-1.0])), [])
        assert not rec.passed
        assert rec.location == last.x[0] and rec.lhs == -1.0
        # a NaN in any ratio column fails, as a NaN sample does
        for field in ("r_S", "r_E_pi", "r_E_x"):
            rec = ratio_positivity_record(table_with(last, **{field: np.array([math.nan])}))
            assert not rec.passed and rec.lhs == -math.inf
        assert not ratio_positivity_record(last, [(2, math.nan)]).passed
