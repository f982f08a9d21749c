"""The row codec's fast path, byte for byte against the % operator.

Each test that names the fast path calls csvcodec._fast_rows itself, which
returns None rather than fall back, so a pass shows that the kernel, not
percent_rows, wrote the bytes.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import primesums.csvcodec as csvcodec
import primesums.report as report
from oracles import table_lines_scalar, table_with
from primesums.accumulate import grid_points, run_stream


def fast_rows(template: bytes, columns) -> bytes:
    """The fast path's rows of columns by template; fails if it declines."""
    fields = template.rstrip(b"\n").split(b",")
    got = csvcodec._fast_rows(fields, [np.asarray(c) for c in columns])
    assert got is not None, "the fast path declined"
    return got


def assert_reals(values) -> None:
    v = np.array(values, dtype=np.float64)
    text = fast_rows(b"%.17g\n", [v])
    lines, oracle = text.split(b"\n")[:-1], [b"%.17g" % x for x in v.tolist()]
    # the first value that differs, not a diff of the whole text
    i = next((i for i, (a, b) in enumerate(zip(lines, oracle)) if a != b), None)
    assert i is None and len(lines) == len(oracle), (i, v[i], lines[i], oracle[i])


def fixed(v: float) -> bool:
    """Whether %.17g prints v in fixed notation."""
    return b"e" not in b"%.17g" % v


# every decade of the domain: 10**k and its neighbours, where fixed
POWERS = [v for k in range(-4, 17) for p in [float(f"1e{k}")]
          for v in (p, math.nextafter(p, math.inf), math.nextafter(p, -math.inf)) if fixed(v)]


def floor_traps() -> list[float]:
    """Doubles below 10**k whose float log10 is k: 1e-07's trap, in range."""
    traps = []
    for k in range(-4, 17):
        v = float(f"1e{k}")
        for _ in range(3):
            v = math.nextafter(v, -math.inf)
            if fixed(v) and Decimal(v) < Decimal(10) ** k and math.floor(np.log10(v)) == k:
                traps.append(v)
    return traps


def tie(s: int, m: int) -> float:
    """The double (2m + 1) / 2**s, whose decimal expansion ends in 5."""
    return math.ldexp(2 * m + 1, -s)


def tie_range(s: int) -> tuple[int, int]:
    """The m for which tie(s, m) has 18 significant digits and a 53-bit
    mantissa: an exact half-way case at the 17th digit."""
    c = 5**s
    lo = -(-(10**17) // c) // 2
    hi = (min((10**18 - 1) // c, 2**53 - 1) - 1) // 2
    return lo, hi


TIE_SHIFTS = [s for s in range(2, 22) if tie_range(s)[0] <= tie_range(s)[1]]
TIES = [tie(s, m) for s in TIE_SHIFTS for m in tie_range(s)]


def nines_carries() -> dict[int, list[float]]:
    """By j = 1..15: doubles whose 17-digit floor ends in j nines and rounds
    up, carrying through every one of them."""
    found: dict[int, list[float]] = {}
    for k in range(-4, 16):
        for j in range(1, 16):
            for lead in range(1, 10):
                floor = lead * 10**16 + 10**j - 1 if lead < 9 else 10**17 - 10**j - 1
                v = float((Decimal(floor) + Decimal("0.75")) * Decimal(10) ** (k - 16))
                scaled = Decimal(v) * Decimal(10) ** (16 - k)
                if int(scaled) == floor and scaled - floor > Decimal("0.5") and fixed(v):
                    found.setdefault(j, []).append(v)
    return found


signed = st.tuples(st.floats(min_value=1e-4, max_value=2.0**53), st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0])
ties = st.sampled_from(TIE_SHIFTS).flatmap(
    lambda s: st.integers(*tie_range(s)).map(lambda m: tie(s, m)))


class TestFastPath:
    def test_the_examples_are_what_they_claim(self):
        assert len(POWERS) == 3 * 21 - 1  # but 1e-4's lower neighbour
        assert len(floor_traps()) >= 10
        for v in TIES:
            digits = format(Decimal(v), "f").replace(".", "").strip("0")
            assert len(digits) == 18 and digits[-1] == "5", v
        assert sorted(nines_carries()) == list(range(1, 16))

    @pytest.mark.parametrize("name", ["powers", "floor_traps", "ties", "nines_carries"])
    def test_examples_both_signs(self, name):
        values = {"powers": POWERS, "floor_traps": floor_traps(), "ties": TIES,
                  "nines_carries": sum(nines_carries().values(), [])}[name]
        assert_reals(values + [-v for v in values])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(signed, min_size=1, max_size=60))
    @example([1e-4, -1e-4, 2.0**53, -(2.0**53), 1e15, 0.1, 1 / 3])
    @example([0.0, -0.0, 1.0, -1.0, 0.0])
    def test_domain(self, values):
        assert_reals(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(ties, ties.map(lambda v: -v)), min_size=1, max_size=40))
    def test_ties(self, values):
        assert_reals(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**53), min_size=1, max_size=60))
    @example([0, 1, 9, 10, 99, 100, 10**15 - 1, 10**15, 2**53 - 1, 2**53])
    def test_ints(self, values):
        n = np.array(values, dtype=np.int64)
        assert fast_rows(b"%d\n", [n]) == b"".join(b"%d\n" % i for i in values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(signed, st.integers(0, 2**53), signed), min_size=1, max_size=30))
    def test_rows(self, rows):
        cols = [np.array(c, dtype=np.int64 if j == 1 else np.float64)
                for j, c in enumerate(zip(*rows))]
        template = b"%.17g,%d,%.17g\n"
        assert fast_rows(template, cols) == template * len(rows) % tuple(
            v for row in rows for v in row)

    def test_signed_zeros_in_every_column(self):
        """+0 and -0 print "0" and "-0" in any field of the checkpoint row,
        beside values of other decades and signs, and 0 in the %d field."""
        fields = report._CSV_ROW.rstrip(b"\n").split(b",")
        base = [1.5, 7, 0.25, 3.0, -2.5, 1e16, 1e-4, 123.456, -0.1]
        rows = [base[:j] + [zero] + base[j + 1 :]
                for j, f in enumerate(fields)
                for zero in ((0.0, -0.0) if f == b"%.17g" else (0,))]
        rows.append([0.0, 0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0])
        cols = [np.array(c, dtype=np.int64 if f == b"%d" else np.float64)
                for f, c in zip(fields, zip(*rows))]
        assert fast_rows(report._CSV_ROW, cols) == report._CSV_ROW * len(rows) % tuple(
            v for row in rows for v in row)


@pytest.fixture(scope="module")
def dense():
    return run_stream(1e6, grid_points(100.0, 1e6, 1.001)).checkpoints


def table_text(table) -> bytes:
    return "".join(line + "\n" for line in table_lines_scalar(table, report.CSV_COLUMNS, ",")
                   ).encode()


@pytest.mark.parametrize("column, value", [
    ("S", math.nan), ("M", 1e-6), ("E", 5e-324), ("r_S", 1e300), ("x", math.inf),
    ("pi", -1), ("pi", 10**16),
])
def test_one_value_off_the_path(dense, column, value):
    """A chunk with one value off the fast path gives the per-value bytes:
    the whole chunk is formatted by the template."""
    table = dense.select(slice(0, csvcodec._SUB + 100))
    col = getattr(table, column).copy()
    col[csvcodec._SUB + 7] = value  # in the chunk's second block
    table = table_with(table, **{column: col})
    cols = [getattr(table, name) for name in report.CSV_COLUMNS]
    fields = report._CSV_ROW.rstrip(b"\n").split(b",")
    assert csvcodec._fast_rows(fields, [c[csvcodec._SUB:] for c in cols]) is None
    assert csvcodec.encode_rows(report._CSV_ROW, cols) == table_text(table)


@pytest.mark.parametrize("ratio", [2.0**0.25, 1.0001])
def test_runs_take_no_fallback(monkeypatch, ratio):
    """Every value of a 1e6 run, on the default grid and on the dense one,
    is on the fast path: no chunk falls back to the % template."""
    table = run_stream(1e6, grid_points(100.0, 1e6, ratio)).checkpoints

    def refused(template, columns):
        raise AssertionError(f"fell back on {len(columns[0])} rows")

    monkeypatch.setattr(csvcodec, "percent_rows", refused)
    assert b"".join(report._table_chunks(table)) == table_text(table)


def test_report_takes_no_fallback(monkeypatch, tmp_path):
    """report's files take the fast path: series_anS.csv, whose first
    sample is (1, 0.0), no longer goes through percent_rows."""
    cfg = report.RunConfig(x_max=10**5, out_dir=tmp_path)
    report.cmd_compute(cfg)
    calls = []
    percent_rows = csvcodec.percent_rows

    def spy(template, columns):
        calls.append((template, len(columns[0])))
        return percent_rows(template, columns)

    monkeypatch.setattr(csvcodec, "percent_rows", spy)
    stored = report.read_checkpoint_file(cfg.checkpoint_path())
    report.cmd_report(report.RunConfig(x_max=None, out_dir=tmp_path / "report",
                                       resume_from=cfg.checkpoint_path()))
    assert calls == []
    samples = stored.an_sn_samples
    assert samples[0] == (1, 0.0)
    assert (tmp_path / "report" / "series_anS.csv").read_bytes() == b"n,value\n" + b"".join(
        b"%d,%.17g\n" % sample for sample in samples)
