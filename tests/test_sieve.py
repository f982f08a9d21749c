import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primesums.errors import ConfigError
from primesums.sieve import PrimeSegment, SieveConfig, base_primes, prime_count, stream_segments

from oracles import trial_division_primes


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


def test_stream_with_start_trims_absorbed_primes():
    cfg = SieveConfig(limit=10_000, segment_size=1024)
    full = [p for s in stream_segments(cfg) for p in s.primes]
    tail = [p for s in stream_segments(cfg, start=101) for p in s.primes]
    assert tail == [p for p in full if p >= 101]


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


def test_segment_is_immutable():
    seg = PrimeSegment(lo=1, hi=10, primes=(2, 3, 5, 7))
    with pytest.raises(AttributeError):
        seg.hi = 20
