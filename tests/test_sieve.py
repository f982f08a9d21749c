import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primesums.errors import ConfigError
from primesums.sieve import (
    DEFAULT_SEGMENT_SIZE,
    PrimeSegment,
    SieveConfig,
    _sieving_primes,
    _window_mask,
    base_primes,
    prime_count,
    stream_segments,
)

from oracles import trial_division_primes, window_mask_loop

# every window the kernel tests draw ends below this
KERNEL_TOP = 10**12 + 2**22
ODD_BASE = base_primes(math.isqrt(KERNEL_TOP))[1:]
SIEVING = _sieving_primes(KERNEL_TOP)


def test_base_primes_small():
    assert base_primes(10) == [2, 3, 5, 7]
    assert base_primes(2) == [2]
    assert base_primes(1) == []
    assert base_primes(-5) == []


def test_base_primes_matches_trial_division_to_1e5():
    assert base_primes(100_000) == trial_division_primes(100_000)


@given(st.integers(min_value=2, max_value=5000))
def test_base_primes_matches_trial_division(limit):
    assert base_primes(limit) == trial_division_primes(limit)


@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=1024, max_value=4096))
@settings(max_examples=50)
def test_stream_matches_trial_division(limit, segment_size):
    cfg = SieveConfig(limit=limit, segment_size=segment_size)
    streamed = [p for seg in stream_segments(cfg) for p in seg.primes]
    assert streamed == trial_division_primes(limit)


def test_stream_limit_30():
    cfg = SieveConfig(limit=30, segment_size=1024)
    segs = list(stream_segments(cfg))
    assert [p for s in segs for p in s.primes] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_stream_limit_2_single_segment():
    segs = list(stream_segments(SieveConfig(limit=2)))
    assert len(segs) == 1
    assert segs[0].primes.tolist() == [2]


def test_stream_1e6_count():
    cfg = SieveConfig(limit=10**6)
    assert sum(len(s.primes) for s in stream_segments(cfg)) == 78498


def test_stream_matches_trial_division_at_1e5():
    cfg = SieveConfig(limit=100_000, segment_size=8192)
    streamed = [p for seg in stream_segments(cfg) for p in seg.primes]
    assert streamed == trial_division_primes(100_000)


def test_segments_tile_without_gap_or_overlap():
    cfg = SieveConfig(limit=50_000, segment_size=1024)
    segs = list(stream_segments(cfg))
    assert segs[0].lo == 1
    assert segs[-1].hi == 50_000
    for a, b in zip(segs, segs[1:]):
        assert a.hi == b.lo
    for seg in segs:
        assert all(seg.lo < p <= seg.hi for p in seg.primes)
        assert list(seg.primes) == sorted(set(seg.primes))


def test_segment_primes_are_prime_by_trial_division():
    cfg = SieveConfig(limit=20_000, segment_size=1024)
    reference = set(trial_division_primes(20_000))
    for seg in stream_segments(cfg):
        for p in seg.primes:
            assert p in reference


def test_prime_count_examples():
    assert prime_count(100) == 25
    assert prime_count(1) == 0
    assert prime_count(0) == 0
    assert prime_count(10**6) == 78498


def test_prime_count_nondecreasing():
    counts = [prime_count(n) for n in range(0, 300)]
    assert counts == sorted(counts)
    assert counts[2] == 1


def test_deterministic_streams():
    cfg = SieveConfig(limit=200_000, segment_size=2048)
    a = list(stream_segments(cfg))
    b = list(stream_segments(cfg))
    assert a == b


@given(st.integers(2, 100_000), st.integers(1024, 4096), st.integers(1, 100_001))
@example(limit=10_000, segment_size=1024, start=101)
@settings(max_examples=60, deadline=None)
def test_stream_with_start_trims_absorbed_primes(limit, segment_size, start):
    start = min(start, limit + 1)
    cfg = SieveConfig(limit=limit, segment_size=segment_size)
    full = np.concatenate([s.primes for s in stream_segments(cfg)])
    segs = list(stream_segments(cfg, start=start))
    tail = np.concatenate([s.primes for s in segs]) if segs else full[:0]
    assert tail.tolist() == full[full >= start].tolist()
    if segs:
        assert segs[0].lo == max(1, start - 1) and segs[-1].hi == limit
        # the first window is sieved from start: no memory under its
        # array for the primes below start
        primes = segs[0].primes
        assert primes.base is None or primes.base.nbytes <= primes.nbytes


def _assert_kernel_matches_loop(wlo: int, slots: int) -> None:
    hi = wlo + 2 * slots
    first, want = window_mask_loop(wlo, hi, ODD_BASE)
    got = _window_mask(first, hi, SIEVING)
    assert got.tobytes() == want.tobytes()


# odd window starts in every decade to 1e12, windows that hold 3 to 13, and
# windows that start at a p*p (the presieve's 9 to 169 among them); window
# lengths in every octave to 2**21 slots, below and above the 15015 slots
# of the presieve pattern
ODD_WLO = st.one_of(
    st.floats(0, 12).map(lambda e: int(10**e) // 2),
    st.integers(0, 10),
    st.sampled_from(ODD_BASE).map(lambda p: (p * p - 3) // 2),
).map(lambda k: 2 * k + 1)
SLOTS = st.floats(0, 21).map(lambda e: int(2**e))


@given(ODD_WLO, SLOTS)
@settings(max_examples=100, deadline=None)
def test_window_kernel_matches_per_prime_loop(wlo, slots):
    _assert_kernel_matches_loop(wlo, slots)


@pytest.mark.parametrize("x", [10**10, 10**11, 10**12])
def test_window_kernel_at_half_x(x):
    span = 2 * DEFAULT_SEGMENT_SIZE
    _assert_kernel_matches_loop(1 + (x // 2 - 2) // span * span, DEFAULT_SEGMENT_SIZE)


@given(st.integers(0, 300_000), st.integers(1024, 8192))
@settings(max_examples=40, deadline=None)
def test_prime_count_equals_stream_count(limit, segment_size):
    want = len(base_primes(limit))
    assert prime_count(limit, segment_size=segment_size) == want
    if limit >= 2:
        cfg = SieveConfig(limit, segment_size)
        assert sum(len(s.primes) for s in stream_segments(cfg)) == want


def test_prime_count_1e9():
    assert prime_count(10**9) == 50_847_534  # OEIS A006880


def test_config_validation():
    with pytest.raises(ConfigError):
        SieveConfig(limit=1)
    with pytest.raises(ConfigError):
        SieveConfig(limit=100, segment_size=512)
    with pytest.raises(ConfigError):
        SieveConfig(limit=2**53 + 1)  # float64(p) would no longer be exact
    with pytest.raises(ConfigError):
        SieveConfig(limit=100, segment_size=2**24 + 1)
    SieveConfig(limit=2**53, segment_size=2**24)  # the caps themselves are allowed


def test_base_setup_at_the_cap_holds_only_flags_and_array():
    """At the largest x_max a run accepts, the base set-up peaks, under
    tracemalloc, at its dense flags (a byte for each integer to
    isqrt(limit)) and the int64 array of every base prime, plus 64 KB of
    slack for numpy's own small allocations.  A Python list of the 227,647
    base primes would take about 8 MB more."""
    from primesums.report import MAX_X_MAX

    tracemalloc.start()
    try:
        base = _sieving_primes(MAX_X_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    flags = math.isqrt(MAX_X_MAX) + 1
    array = 8 * (len(base) + 6)  # and 2, 3, 5, 7, 11 and 13, which the presieve takes
    assert len(base) + 6 == 227_647  # pi(isqrt(1e13))
    assert peak <= flags + array + 64 * 1024, (peak, flags, array)


def test_segment_is_immutable():
    seg = PrimeSegment(lo=1, hi=10, primes=(2, 3, 5, 7))
    with pytest.raises(AttributeError):
        seg.hi = 20
