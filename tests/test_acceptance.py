"""Acceptance suite: one test per exit criterion, at its stated tolerance
and runtime budget, printing one PASS/FAIL line per criterion.

Reference values marked 'oracle' were produced before the main build by
tests/oracles.py (trial-division primes, 40-digit mpmath accumulation);
regression bands come from tests/data/band_fixtures.json, pinned by the
first calibrated run (tests/calibrate.py).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import eval_w_prime, pair_prime_bound, rows
from primesums.accumulate import grid_points, run_stream
from primesums.asymptotics import (
    an_sn_band,
    block_sandwich,
    empirical_constants,
    lower_bound_check,
    mertens_width,
    sandwich_records,
)
from primesums.calculus import abel_decompose, eval_h, eval_h_prime, eval_w, main_term_identity
from primesums.report import RunConfig, cmd_compute, read_checkpoint_file
from primesums.sieve import base_primes, prime_array, prime_count
from primesums.verify import check_jump_identity, check_pair_identity

# --- frozen oracle values (tests/oracles.py, run before the main build) ---
ORACLE_PI_1E6 = 78498
ORACLE_S_1E6 = 586.82519310647922
ORACLE_M_1E6 = 12.483585396239194
ORACLE_E_1E6 = 344351.32367906038

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "band_fixtures.json").read_text()
)

X_BIG = 10**8
GRID_START = 3.0
GRID_RATIO = 2.0**0.25


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def big_run():
    """One shared stream to 1e8 (criteria 6, 7, 9, 10, 11)."""
    t0 = time.monotonic()
    result = run_stream(float(X_BIG), grid_points(GRID_START, float(X_BIG), GRID_RATIO))
    result.elapsed = time.monotonic() - t0
    return result


def test_criterion_01_oracle_equivalence_at_1e6():
    # live oracle rerun: trial-division primes + 40-digit accumulation must
    # reproduce the frozen constants within its five-minute budget
    from oracles import reference_sums, trial_division_primes

    t0 = time.monotonic()
    oracle_primes = trial_division_primes(10**6)
    s_ref, m_ref, e_ref = reference_sums(oracle_primes)
    oracle_elapsed = time.monotonic() - t0
    assert len(oracle_primes) == ORACLE_PI_1E6
    assert float(s_ref) == ORACLE_S_1E6
    assert float(m_ref) == ORACLE_M_1E6
    assert float(e_ref) == ORACLE_E_1E6
    assert oracle_elapsed <= 300.0

    t0 = time.monotonic()
    result = run_stream(1e6, [1e6])
    elapsed = time.monotonic() - t0
    (cp,) = rows(result.checkpoints)
    ok_pi = cp.pi == ORACLE_PI_1E6
    rel = lambda a, b: abs(a - b) / abs(b)
    ok_reals = (
        rel(cp.S, ORACLE_S_1E6) <= 1e-10
        and rel(cp.M, ORACLE_M_1E6) <= 1e-10
        and rel(cp.E, ORACLE_E_1E6) <= 1e-10
    )
    ok_time = elapsed <= 1.0
    report(
        1,
        "oracle equivalence at 1e6",
        ok_pi and ok_reals and ok_time,
        f"pi={cp.pi}, dS={rel(cp.S, ORACLE_S_1E6):.1e}, "
        f"dM={rel(cp.M, ORACLE_M_1E6):.1e}, dE={rel(cp.E, ORACLE_E_1E6):.1e}, "
        f"oracle {oracle_elapsed:.1f}s, main {elapsed:.2f}s",
    )
    assert ok_pi and ok_reals
    assert ok_time, f"main build took {elapsed:.2f}s (> 1s budget)"


def test_criterion_02_pair_identity():
    from oracles import weight_arrays

    t0 = time.monotonic()
    w, wsq = weight_arrays(prime_array(pair_prime_bound(5000))[:5000])
    records = check_pair_identity(w, wsq, tolerance=1e-10)
    elapsed = time.monotonic() - t0
    ns = [int(r.location) for r in records]
    assert ns == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 5000]
    worst = max(r.residual for r in records)
    ok = all(r.passed for r in records) and elapsed <= 10.0
    report(2, "pair identity to n=5000", ok, f"worst={worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_jump_identity_and_sensitivity():
    from oracles import weight_arrays

    t0 = time.monotonic()
    w, wsq = weight_arrays(prime_array(10**6))
    rec = check_jump_identity(w, wsq, tolerance=1e-9)
    ok_clean = rec.passed

    bad_w = w.copy()
    bad_w[25] *= 1 + 1e-6  # a_26, of p_26 = 101; the squares stay as they were
    bad = check_jump_identity(bad_w, wsq, tolerance=1e-9)
    elapsed = time.monotonic() - t0
    ok_detected = (not bad.passed) and bad.location == 26
    ok = ok_clean and ok_detected and elapsed <= 5.0
    report(
        3,
        "jump identity to 1e6 + sensitivity",
        ok,
        f"max residual={rec.residual:.2e}, perturbed residual={bad.residual:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_04_abel_decomposition_grid_to_1e6():
    t0 = time.monotonic()
    primes = base_primes(10**6)
    import bisect

    worst = 0.0
    grid = grid_points(GRID_START, 1e6, GRID_RATIO)
    for x in grid:
        dec = abel_decompose(x, primes[: bisect.bisect_right(primes, x)])
        worst = max(worst, dec.residual)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed <= 5.0
    report(
        4,
        f"abel identity at {len(grid)} checkpoints to 1e6",
        ok,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_main_term_identity():
    t0 = time.monotonic()
    residuals = {x: main_term_identity(x, 1e-9).residual for x in (1e3, 1e6)}
    ok_scale = all(r <= 1e-8 for r in residuals.values())
    loose = main_term_identity(1e6, 1e-6).residual
    tight = main_term_identity(1e6, 1e-10).residual
    ok_shrink = tight < loose
    elapsed = time.monotonic() - t0
    ok = ok_scale and ok_shrink and elapsed <= 5.0
    report(
        5,
        "main-term calculus identity",
        ok,
        f"res(1e3)={residuals[1e3]:.2e}, res(1e6)={residuals[1e6]:.2e}, "
        f"tol 1e-6->1e-10 residual {loose:.1e}->{tight:.1e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_06_lower_bound_to_1e8(big_run):
    t0 = time.monotonic()
    records = lower_bound_check(big_run.checkpoints, 8.0, tolerance=1e-12)
    # the one record is the worst grid point's; the points checked are the
    # blocks of ratio 8
    checked = len(block_sandwich(big_run.checkpoints, [8.0]).x)
    all_pass = all(rec.passed for rec in records)
    elapsed = time.monotonic() - t0 + big_run.elapsed
    # ~90 grid points qualify; the exact count wobbles by one or two where
    # 3*ratio^k lands a float ulp below the x/A >= 3 boundary
    ok = len(records) == 1 and all_pass and checked >= 85 and elapsed <= 120.0
    report(
        6,
        f"lower-bound inequality (A=8) at {checked} grid points to 1e8",
        ok,
        f"all hold: {all_pass}, {elapsed:.1f}s incl. shared stream",
    )
    assert ok


def test_criterion_07_block_sandwich_to_1e8(big_run):
    blocks = block_sandwich(big_run.checkpoints, (2.0, 4.0, 8.0))
    checked = len(blocks.x)
    records = sandwich_records(blocks, tolerance=1e-12)
    all_pass = len(records) == 2 and all(rec.passed for rec in records)
    ok = all_pass and checked >= 265
    report(
        7,
        f"block sandwich at {checked} (x, lambda) pairs to 1e8",
        ok,
        f"all hold: {all_pass}",
    )
    assert ok


def test_criterion_08_derivative_checks():
    t0 = time.monotonic()
    ok_fd = True
    for t in (3.0, 10.0, 1e3, 1e6):
        d = t * 1e-5
        fd_w = (eval_w(t + d) - eval_w(t - d)) / (2 * d)
        fd_h = (eval_h(t + d) - eval_h(t - d)) / (2 * d)
        ok_fd = ok_fd and abs(eval_w_prime(t) - fd_w) <= 1e-6 * abs(fd_w)
        ok_fd = ok_fd and abs(eval_h_prime(t) - fd_h) <= 1e-6 * abs(fd_h)
    ok_zero = eval_w_prime(math.e) == 0.0 and eval_h_prime(math.e) == 0.0
    ok_sign = True
    for k in range(100):
        t_hi = math.e * 1.00001 * (1.2**k)
        ok_sign = ok_sign and eval_w_prime(t_hi) < 0 and eval_h_prime(t_hi) > 0
        t_lo = 1.0 + (math.e - 1.0) * (0.985 ** (k + 1))
        if t_lo < math.e:
            ok_sign = ok_sign and eval_h_prime(t_lo) < 0
    elapsed = time.monotonic() - t0
    ok = ok_fd and ok_zero and ok_sign and elapsed <= 1.0
    report(8, "derivative finite-difference/sign checks", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_09_monotonicity_positivity(big_run):
    cps = big_run.checkpoints
    ok_nonneg = bool(np.all(cps.E >= 0.0))
    ok_mono = all(bool(np.all(np.diff(getattr(cps, f)) >= 0)) for f in ("pi", "S", "M", "E"))
    ok_weights = big_run.state.weights_decreasing
    ok = ok_nonneg and ok_mono and ok_weights
    report(
        9,
        "monotonicity and positivity to 1e8",
        ok,
        f"E>=0 {ok_nonneg}, nondecreasing {ok_mono}, weights decreasing {ok_weights}",
    )
    assert ok


def test_criterion_10_mertens_contraction(big_run):
    early = mertens_width(big_run.checkpoints, 1e2, 1e4)
    late = mertens_width(big_run.checkpoints, 1e6, 1e8)
    ok = late < early
    report(
        10,
        "mertens remainder contraction",
        ok,
        f"width[1e2,1e4]={early:.4f} -> width[1e6,1e8]={late:.6f}",
    )
    assert ok


def test_criterion_11_regression_fixtures(big_run):
    lo, hi = FIXTURES["config"]["band_window"]
    bands = {
        b.name: b
        for b in empirical_constants(big_run.checkpoints, lo, hi)
    }
    n_min = prime_count(int(lo) - 1) + 1
    bands["anS"] = an_sn_band(big_run.an_sn_samples, n_min=n_min)

    rel = lambda a, b: abs(a - b) / max(1.0, abs(b))
    ok = True
    details = []
    for name in ("r_S", "r_E_pi", "r_E_x", "anS"):
        pinned = FIXTURES["bands"][name]
        got = bands[name]
        ok_band = (
            rel(got.inf_value, pinned["inf_value"]) <= 1e-9
            and rel(got.sup_value, pinned["sup_value"]) <= 1e-9
            and got.inf_at == pinned["inf_at"]
            and got.sup_at == pinned["sup_at"]
        )
        ok = ok and ok_band
        details.append(f"{name}=[{got.inf_value:.6f},{got.sup_value:.6f}]")

    final = FIXTURES["final_checkpoint"]
    (last,) = rows(big_run.checkpoints.select([-1]))
    ok = (
        ok
        and last.pi == final["pi"]
        and rel(last.S, final["S"]) <= 1e-9
        and rel(last.M, final["M"]) <= 1e-9
        and rel(last.E, final["E"]) <= 1e-9
    )
    report(11, "regression fixtures over [1e3, 1e8]", ok, ", ".join(details))
    assert ok


def test_criterion_12_determinism_and_resume(tmp_path):
    unsplit = RunConfig(x_max=10**6, out_dir=tmp_path / "unsplit")
    cmd_compute(unsplit)
    twin = RunConfig(x_max=10**6, out_dir=tmp_path / "twin")
    cmd_compute(twin)
    ok_deterministic = (
        unsplit.csv_path().read_bytes() == twin.csv_path().read_bytes()
    )

    stage1 = RunConfig(x_max=10**4, out_dir=tmp_path / "split")
    cmd_compute(stage1)
    stage2 = RunConfig(
        x_max=10**6, out_dir=tmp_path / "split",
        resume_from=stage1.checkpoint_path(),
    )
    cmd_compute(stage2)
    ok_csv = unsplit.csv_path().read_bytes() == stage2.csv_path().read_bytes()
    a = read_checkpoint_file(unsplit.checkpoint_path()).state
    b = read_checkpoint_file(stage2.checkpoint_path()).state
    ok_state = all(
        getattr(a, f) == getattr(b, f)
        for f in ("n", "last_prime", "S", "M", "E_incremental", "last_weight",
                  "last_anS", "weights_decreasing")
    )
    ok = ok_deterministic and ok_csv and ok_state
    report(
        12,
        "determinism and resume (1e4 -> 1e6)",
        ok,
        f"identical-config CSV {ok_deterministic}, split CSV {ok_csv}, "
        f"split state {ok_state}",
    )
    assert ok
