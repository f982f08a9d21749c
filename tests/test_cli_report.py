import base64
import bisect
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import validate

import primesums.cli as cli
import primesums.report as report
from oracles import (
    EagerCheckpoint,
    JumpState,
    AbelFoldScalar,
    abel_decompose_scalar,
    an_sn_band_scalar,
    assert_same_table,
    block_sandwich_scalar,
    check_E_monotone_scalar,
    checkpoint_table_eager,
    empirical_constants_scalar,
    eval_w,
    jump_record_scalar,
    lower_bound_scalar,
    make_term,
    pair_records_scalar,
    push,
    ratio_positivity_scalar,
    running_fsum,
    sandwich_records_scalar,
    scale_identity_scalar,
    table_lines_scalar,
    table_with,
)
from primesums.accumulate import (
    SumState,
    checkpoint_table,
    grid_points,
    run_stream,
    weights,
)
from primesums.cli import main as cli_main
from primesums.errors import CheckpointFormatError, ConfigError
from primesums.report import (
    RunConfig,
    cmd_compute,
    cmd_report,
    cmd_verify,
    read_checkpoint_file,
    resume,
    write_checkpoint_file,
)
from primesums.sieve import prime_array

# independent statement of the documented bundle schema (see README); the
# checkpoint table is checkpoints.csv, not a bundle key
BUNDLE_SCHEMA = {
    "type": "object",
    "required": [
        "format_version",
        "config",
        "metadata",
        "verification_records",
        "ratio_bands",
        "block_stats",
        "abel_decompositions",
    ],
    "not": {"required": ["checkpoints"]},
    "properties": {
        "format_version": {"const": 2},
        "config": {
            "type": "object",
            "required": ["x_max", "grid_start", "grid_ratio"],
            "not": {"required": ["config_hash"]},
        },
        "metadata": {
            "type": "object",
            "required": ["library_version", "prime_count", "last_prime"],
        },
        "verification_records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check_id", "location", "lhs", "rhs", "residual",
                             "tolerance", "pass"],
            },
        },
        "ratio_bands": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "x_min", "x_max", "inf_value", "inf_at",
                             "sup_value", "sup_at"],
            },
        },
        "block_stats": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["x", "lambda", "x_lower", "delta_S", "delta_pi",
                             "lower", "upper"],
            },
        },
        "abel_decompositions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["x", "direct_S", "boundary_term", "integral_term",
                             "residual"],
            },
        },
    },
}


STATE_FIELDS = ("n", "last_prime", "S", "M", "last_anS")


def cfg_for(tmp_path, x_max, **kw):
    return RunConfig(x_max=x_max, out_dir=tmp_path / "out", **kw)


def report_on(cfg, path):
    """cmd_report on the stored run at path: cfg with path as its resume_from."""
    return cmd_report(replace(cfg, resume_from=path))


# the documented record of the checkpoint table (formats 4 to 6), stated
# independently of report._ROW
RECORD = np.dtype([("x", "<f8"), ("pi", "<i8"), ("S", "<f8"), ("M", "<f8")])
HEADER_KEYS = ["anS", "created", "csv", "grid_ratio", "grid_start", "rows", "state", "x_max"]


def read_v6(path):
    """A format-6 checkpoint file as (its header, by json.loads, its
    records): the lines between the header and the end marker decoded."""
    lines = path.read_bytes().splitlines()
    records = [np.frombuffer(base64.b64decode(line), dtype=RECORD) for line in lines[2:-1]]
    return json.loads(lines[1]), np.concatenate(records)


def write_v6(path, header, records, after=()):
    """Write a format-6 file: the magic, header as one json line, records
    as base64 lines of at most 4096, `end <crc32>` with the correct
    checksum, then the lines of after."""
    records = np.asarray(records, dtype=RECORD)
    rows = [base64.b64encode(records[i : i + 4096].tobytes()).decode()
            for i in range(0, len(records), 4096)]
    body = "".join(line + "\n" for line in
                   ["primesums-checkpoints v6", json.dumps(header, sort_keys=True), *rows])
    end = f"end {zlib.crc32(body.encode()):08x}\n"
    path.write_text(body + end + "".join(line + "\n" for line in after))


def stored_facts(path):
    """What a checkpoint file states but its creation time: the header
    without created, and the bytes of its records."""
    header, records = read_v6(path)
    del header["created"]
    return header, records.tobytes()


# the state the writers of formats 2 to 6 stored: the slots of today, the
# exact sum of the jumps 2*a_n*S_{n-1}, the last weight and whether w
# decreases from p = 3, which the accumulator no longer keeps
OLD_STATE_FIELDS = ("n", "last_prime", "S", "M", "E_incremental", "last_weight",
                    "last_anS", "weights_decreasing")
# the config_hash key those writers stored for the default grid, from 100 at
# ratio 2**0.25: 16 hex digits of a sha256 of the grid fields
OLD_CONFIG_HASH = "38f2f4f48cb5920d"


def old_state(header):
    """A format-6 header's state as the earlier writers stored it: with
    E_incremental, the exact jump sum over the primes it counts, from the
    one-prime-at-a-time oracle, the last prime's weight, and the flag
    weights_decreasing, true for every run."""
    state = JumpState()
    for i, p in enumerate(prime_array(header["state"]["last_prime"]).tolist(), start=1):
        term = make_term(i, p)
        push(state, term)
    assert state.S == header["state"]["S"]
    return {**header["state"], "E_incremental": state.E_incremental,
            "last_weight": term.weight, "weights_decreasing": True}


def older_head(cfg, version):
    """The text lines up to the table of cfg's checkpoint file as formats 2
    to 5 wrote them: the header lines, the state row (OLD_STATE_FIELDS in
    order, sums and counts as integers, the flag as 0/1, reals with 17
    digits) and the anS lines.  Only format 5 has the csv line."""
    header = read_v6(cfg.checkpoint_path())[0]
    state = (old_state(header)[name] for name in OLD_STATE_FIELDS)
    return [
        f"primesums-checkpoints v{version}",
        f"config_hash {OLD_CONFIG_HASH}",
        f"created {header['created']}",
        f"x_max {header['x_max']}",
        f"grid_start {header['grid_start']:.17g}",
        f"grid_ratio {header['grid_ratio']:.17g}",
        "segment_size 1048576",  # the default size, which these writers stored
        *(["csv {} {:08x}".format(*header["csv"])] if version == 5 else []),
        "state " + " ".join(f"{v:.17g}" if isinstance(v, float) else str(int(v)) for v in state),
        *(f"anS {n} {value:.17g}" for n, value in header["anS"]),
    ]


def write_v5(path, head, records):
    """Write a format-4 or -5 file: head, records as `rows <k> <base64>`
    lines of at most 4096, and `end <row count> <crc32>` with the correct
    checksum."""
    rows = [f"rows {len(c)} {base64.b64encode(c.tobytes()).decode()}"
            for c in (records[i : i + 4096] for i in range(0, len(records), 4096))]
    body = "".join(line + "\n" for line in [*head, *rows])
    path.write_text(body + f"end {len(records)} {zlib.crc32(body.encode()):08x}\n")


def as_format_v2(cfg, path):
    """Write to path the checkpoint file that format 2 held for cfg's
    computed run: the CSV's nine columns in each checkpoint row, and the
    final-n sample repeated as the last anS line."""
    head = older_head(cfg, 2)
    state = read_checkpoint_file(cfg.checkpoint_path()).state
    if state.n & (state.n - 1):
        head.append(f"anS {state.n} {state.last_anS:.17g}")
    rows = cfg.csv_path().read_text().splitlines()[1:]
    path.write_text("\n".join([*head, *("checkpoint " + row.replace(",", " ") for row in rows),
                               f"end {len(rows)}"]) + "\n")


def as_format_v3(cfg, path):
    """Write to path the checkpoint file that format 3 held for cfg's
    computed run: x, pi, S and M as 17-digit text in each checkpoint row,
    and `end <row count>` with no checksum."""
    head = older_head(cfg, 3)
    rows = [row.split(",")[:4] for row in cfg.csv_path().read_text().splitlines()[1:]]
    path.write_text("\n".join([*head, *("checkpoint " + " ".join(row) for row in rows),
                               f"end {len(rows)}"]) + "\n")


def as_format_v4(cfg, path):
    """Write to path the checkpoint file that format 4 held for cfg's
    computed run: binary records in `rows` lines, no csv line."""
    write_v5(path, older_head(cfg, 4), read_v6(cfg.checkpoint_path())[1])


def as_format_v5(cfg, path):
    """Write to path the checkpoint file that format 5 held for cfg's
    computed run: format 4 with the csv line."""
    write_v5(path, older_head(cfg, 5), read_v6(cfg.checkpoint_path())[1])


class TestRunConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            cfg_for(tmp_path, 50)  # below GRID_START
        with pytest.raises(ConfigError):
            cfg_for(tmp_path, 1000, grid_ratio=0.9)
        # NaN passes every comparison with a bound, and inf is no usable ratio
        for ratio in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                cfg_for(tmp_path, 1000, grid_ratio=ratio)
        # more than 1e7 grid points, counted before any is built
        with pytest.raises(ConfigError, match="1e7 points"):
            cfg_for(tmp_path, 1000, grid_ratio=1.0000001)
        cfg_for(tmp_path, 1000, grid_ratio=1.000001)  # 2.3e6 points

    def test_x_max_is_an_int(self, tmp_path):
        """x_max is stored as the int the checkpoint file's header types it:
        an integer of any kind (numpy's too) is taken as an int, and any
        other value refused, so every x_max accepted is one verify and
        report can read back."""
        for value in (1e5, 1e5 + 0.5, "100000", math.nan):
            with pytest.raises(ConfigError, match="x_max must be an integer"):
                cfg_for(tmp_path, value)
        cfg = cfg_for(tmp_path, np.int64(10**4))
        assert type(cfg.x_max) is int and cfg.x_max == 10**4
        cmd_compute(cfg)
        assert read_v6(cfg.checkpoint_path())[0]["x_max"] == 10**4
        again = RunConfig(x_max=None, out_dir=tmp_path / "again",
                          resume_from=cfg.checkpoint_path())
        assert cmd_verify(again)[1] == 0
        assert type(again.x_max) is int and again.x_max == 10**4

    def test_grid_refused_as_grid_points_refuses_it(self, tmp_path):
        """RunConfig and grid_points from GRID_START make one grid check,
        with one message."""
        assert report.GRID_START == 100.0
        for x_max, ratio in ((1000, math.nan), (1000, math.inf), (1000, 1.0), (99, 2.0)):
            with pytest.raises(ConfigError) as by_config:
                cfg_for(tmp_path, x_max, grid_ratio=ratio)
            with pytest.raises(ConfigError) as by_grid:
                grid_points(report.GRID_START, x_max, ratio)
            assert str(by_config.value) == str(by_grid.value)

    def test_limits_refused_before_any_work(self, tmp_path):
        """x_max is capped at a run that can finish, 1e13: past it, and at
        the sieve's own 2**53, RunConfig refuses with the projected time of
        the run before any other check, so also an x_max too large for a
        float."""
        from primesums.sieve import MAX_LIMIT

        assert report.MAX_X_MAX == 10**13 < MAX_LIMIT
        cfg_for(tmp_path, report.MAX_X_MAX)  # the cap itself is accepted
        for x_max, hours in ((report.MAX_X_MAX + 1, "19"), (10**14, "179"),
                             (MAX_LIMIT, "13,899"), (10**400, None)):
            with pytest.raises(ConfigError, match="x_max must be <= 10,000,000,000,000") as exc:
                RunConfig(x_max=x_max, out_dir=tmp_path / "never")
            if hours is not None:
                assert f"projects to about {hours} h at 200 ns a prime" in str(exc.value)
        # a stored run's x_max is held to the same cap
        with pytest.raises(ConfigError, match="projects to about 179 h"):
            RunConfig(x_max=10**14, out_dir=tmp_path / "never",
                      resume_from=tmp_path / "none.txt")
        assert not (tmp_path / "never").exists()

    def test_grid_compared_not_x_max(self, tmp_path):
        """A stored run's grid is compared with the config's directly, its
        x_max only where it is no resume's target: a resume to another x_max
        on the file's grid reads it, given its ratio or left to it, and
        another ratio is refused.  The header no longer holds a hash."""
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        path = cfg.checkpoint_path()
        assert "config_hash" not in read_v6(path)[0]
        for ratio in (2**0.25, None):
            wider = RunConfig(x_max=10**6, grid_ratio=ratio, resume_from=path)
            read_checkpoint_file(path, wider, extend=True)
            assert wider.grid_ratio == 2**0.25
        regrid = RunConfig(x_max=10**6, grid_ratio=1.5, resume_from=path)
        with pytest.raises(CheckpointFormatError,
                           match="from 100.0 at ratio 1.189207115002721, not from 100.0 at 1.5"):
            read_checkpoint_file(path, regrid, extend=True)
        with pytest.raises(ConfigError, match="x_max=10000, not 1000000"):
            read_checkpoint_file(path, RunConfig(x_max=10**6, resume_from=path))


class TestCompute:
    def test_row_count_at_1e4(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        lines = cfg.csv_path().read_text().splitlines()
        expected = math.ceil(math.log(100) / math.log(2**0.25)) + 1
        assert len(lines) == expected + 1 == 29  # header + 28 rows
        assert lines[0] == "x,pi,S,M,E,r_S,r_E_pi,r_E_x,mertens_remainder"

    def test_single_row_at_100(self, tmp_path):
        cfg = cfg_for(tmp_path, 100)
        result = cmd_compute(cfg)
        assert (result.rows, result.state.n) == (1, 25)
        table = read_checkpoint_file(cfg.checkpoint_path()).checkpoints
        assert table.x.tolist() == [100.0]
        assert table.pi.tolist() == [25]

    def test_final_row_matches_oracle_at_1e6(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**6)
        cmd_compute(cfg)
        last = read_checkpoint_file(cfg.checkpoint_path()).checkpoints
        assert last.pi[-1] == 78498
        assert last.S[-1] == pytest.approx(586.82519310647922, rel=1e-10)
        assert last.M[-1] == pytest.approx(12.483585396239194, rel=1e-10)

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg1 = RunConfig(x_max=10**4, out_dir=tmp_path / "a")
        cfg2 = RunConfig(x_max=10**4, out_dir=tmp_path / "b")
        cmd_compute(cfg1)
        cmd_compute(cfg2)
        assert cfg1.csv_path().read_bytes() == cfg2.csv_path().read_bytes()

    def test_idempotent(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        first = cfg.csv_path().read_bytes()
        cmd_compute(cfg)
        assert cfg.csv_path().read_bytes() == first

    def test_threads_do_not_change_output(self, tmp_path):
        # --threads is still accepted, and has no effect
        for threads in ("1", "4"):
            out = str(tmp_path / threads)
            assert cli_main(["compute", "--x-max", "100000", "--threads", threads,
                             "--out", out]) == 0
        assert ((tmp_path / "1" / "checkpoints.csv").read_bytes()
                == (tmp_path / "4" / "checkpoints.csv").read_bytes())


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        """Format 6 is the magic, one json header line, the records in
        base64 lines and `end <crc32>`, the checksum of every byte before
        it.  The header holds the exact sums as json integers, the
        power-of-two samples only and the byte length and CRC-32 of the CSV
        beside the file; the records hold x, pi, S and M, bit for bit, those
        of run_stream's table in process.  The reader derives the rest, equal
        by repr to that table, and the final-n sample from the state.
        compute returns the run as written, without its table."""
        cfg = cfg_for(tmp_path, 10**4)
        result = cmd_compute(cfg)
        assert result.checkpoints is None and result.rows == 28
        assert (result.path, result.csv_digest) == (cfg.checkpoint_path(),
                                                    read_checkpoint_file(result.path).csv_digest)
        text = cfg.checkpoint_path().read_bytes()
        lines = text.decode().splitlines()
        assert lines[0] == "primesums-checkpoints v6"
        assert len(lines) == 4  # magic, header, one chunk of records, end
        body = text[: text.rindex(b"end ")]
        assert lines[-1] == f"end {zlib.crc32(body):08x}"
        header, records = read_v6(cfg.checkpoint_path())
        assert list(header) == HEADER_KEYS
        csv = cfg.csv_path().read_bytes()
        assert header["csv"] == [len(csv), zlib.crc32(csv)]
        assert (header["x_max"], header["grid_start"], header["grid_ratio"],
                header["rows"]) == (10**4, 100.0, 2**0.25, 28)
        assert sorted(header["state"]) == sorted(STATE_FIELDS)
        for field in STATE_FIELDS:
            value = header["state"][field]
            assert value == getattr(result.state, field)
            assert type(value) is type(getattr(result.state, field)), field
        for field in ("n", "S", "M"):
            assert type(header["state"][field]) is int, field
        assert header["state"]["S"] > 2**53  # held exactly, in units of 2**-120
        table = run_stream(1e4, cfg.grid()).checkpoints
        for name in RECORD.names:
            assert np.array_equal(records[name].view(np.int64),
                                  getattr(table, name).view(np.int64)), name
        assert [n for n, _ in header["anS"]] == [1 << k for k in range(11)]
        stored = read_checkpoint_file(cfg.checkpoint_path())
        for field in STATE_FIELDS:
            assert getattr(stored.state, field) == getattr(result.state, field)
            assert type(getattr(stored.state, field)) is type(getattr(result.state, field))
        assert_same_table(stored.checkpoints, table)
        assert stored.csv_digest == (len(csv), zlib.crc32(csv))
        assert stored.path == cfg.checkpoint_path()
        assert stored.an_sn_samples == result.an_sn_samples
        assert stored.an_sn_samples[-1] == (1229, result.state.last_anS)
        assert len(stored.an_sn_samples) == 12

    @pytest.mark.parametrize("older, width, end", [(as_format_v2, 10, 2), (as_format_v3, 5, 2),
                                                   (as_format_v4, 3, 3), (as_format_v5, 3, 3)],
                             ids=["v2", "v3", "v4", "v5"])
    def test_refuses_format_v2(self, tmp_path, capsys, older, width, end):
        """A format-2 file, as that writer made it (nine columns a row, the
        final sample twice), a format-3 one (x pi S M as text, no checksum),
        a format-4 one (records in `rows` lines, no csv line) and a
        format-5 one (positional header, state and anS lines) are refused
        by every command that reads one, before any output is made."""
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        old = tmp_path / "old.txt"
        older(cfg, old)
        lines = old.read_text().splitlines()
        last_anS = next(line for line in lines if line.startswith("state ")).split()[7]
        # only format 2 repeats the final sample
        assert (f"anS 1229 {last_anS}" in lines) == (width == 10)
        assert any(line.startswith("csv ") for line in lines) == (older is as_format_v5)
        assert len(lines[-2].split()) == width
        assert lines[-1].split()[:2] == ["end", "28"] and len(lines[-1].split()) == end
        with pytest.raises(CheckpointFormatError, match="not a checkpoint file"):
            read_checkpoint_file(old)
        common = ["--x-max", str(10**5), "--out", str(tmp_path / "cli")]
        for argv in (["compute", *common, "--resume", str(old)],
                     ["verify", *common, "--resume", str(old)],
                     ["report", *common, str(old)]):
            capsys.readouterr()
            assert cli_main(argv) == 1, argv
            assert "not a checkpoint file" in capsys.readouterr().err
        assert not (tmp_path / "cli").exists()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint file\n")
        with pytest.raises(CheckpointFormatError):
            read_checkpoint_file(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(CheckpointFormatError):
            read_checkpoint_file(path)

    def test_rejects_truncation(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        text = cfg.checkpoint_path().read_text().splitlines()
        clipped = tmp_path / "clipped.txt"
        clipped.write_text("\n".join(text[:-3]) + "\n")
        with pytest.raises(CheckpointFormatError):
            read_checkpoint_file(clipped)

    def test_rejects_rows_out_of_order(self, tmp_path, capsys):
        cfg = cfg_for(tmp_path, 10**5)
        cmd_compute(cfg)
        header, records = read_v6(cfg.checkpoint_path())
        records = records.copy()
        records[[5, 6]] = records[[6, 5]]
        swapped = tmp_path / "swapped.txt"
        write_v6(swapped, header, records)
        with pytest.raises(CheckpointFormatError, match="ascending"):
            read_checkpoint_file(swapped)
        common = ["--x-max", str(10**5), "--out", str(tmp_path / "cli")]
        for argv in (["compute", *common, "--resume", str(swapped)],
                     ["verify", *common, "--resume", str(swapped)],
                     ["report", *common, str(swapped)]):
            assert cli_main(argv) == 1, argv
        assert not (tmp_path / "cli" / "checkpoints.csv").exists()

    def test_rejects_lines_after_end_and_empty_tables(self, tmp_path, capsys):
        """end <crc32> is the last line, the records are the header's rows
        of 32 bytes each, and rows >= 1."""
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        header, records = read_v6(cfg.checkpoint_path())
        assert header["rows"] == 28
        row = records[-1:].copy()
        row["pi"] = 5000
        trailing = tmp_path / "trailing.txt"
        write_v6(trailing, header, records, after=[base64.b64encode(row.tobytes()).decode()])
        empty = tmp_path / "empty_table.txt"
        write_v6(empty, {**header, "rows": 0}, records[:0])
        miscounted = tmp_path / "miscounted.txt"
        write_v6(miscounted, {**header, "rows": 27}, records)
        for path, message in ((trailing, "after the end marker"), (empty, "no checkpoint rows"),
                              (miscounted, "row count mismatch")):
            with pytest.raises(CheckpointFormatError, match=message):
                read_checkpoint_file(path)
            common = ["--x-max", str(10**4), "--out", str(tmp_path / "cli")]
            for argv in (["verify", *common, "--resume", str(path)],
                         ["report", *common, str(path)],
                         ["compute", *common, "--resume", str(path)]):
                capsys.readouterr()
                assert cli_main(argv) == 1, argv
                assert message in capsys.readouterr().err

    def test_rejects_mistyped_header(self, tmp_path, capsys):
        """With a correct checksum, a header that is not json, lacks a key,
        or gives a value the reader uses another type than the writer's is
        refused as malformed: json.loads types every value, and no value is
        cast."""
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        header, records = read_v6(cfg.checkpoint_path())
        state = header["state"]
        # the same value in another type, so that only the type is wrong
        cases = {
            "no_state": {k: v for k, v in header.items() if k != "state"},
            "no_rows": {k: v for k, v in header.items() if k != "rows"},
            "n_float": {**header, "state": {**state, "n": 1.5}},
            "S_float": {**header, "state": {**state, "S": float(state["S"])}},
            "prime_float": {**header, "state": {**state, "last_prime": float(state["last_prime"])}},
            "no_slot": {**header, "state": {k: v for k, v in state.items() if k != "M"}},
            "rows_float": {**header, "rows": 28.0},
            "anS_str": {**header, "anS": [[1, "0.0"], *header["anS"][1:]]},
            "anS_triple": {**header, "anS": [[1, 0.0, 0.0], *header["anS"][1:]]},
            "csv_short": {**header, "csv": header["csv"][:1]},
        }
        paths = {}
        for name, mistyped in cases.items():
            paths[name] = tmp_path / f"{name}.txt"
            write_v6(paths[name], mistyped, records)
        paths["not_json"] = tmp_path / "not_json.txt"
        write_v6(paths["not_json"], header, records)
        lines = paths["not_json"].read_text().splitlines()
        body = "\n".join([lines[0], lines[1][:-1], *lines[2:-1]]) + "\n"  # no closing brace
        paths["not_json"].write_text(body + f"end {zlib.crc32(body.encode()):08x}\n")
        for name, path in paths.items():
            with pytest.raises(CheckpointFormatError, match="malformed checkpoint file"):
                read_checkpoint_file(path)
        out = tmp_path / "cli"
        for argv in (["verify", "--resume", str(paths["S_float"]), "--out", str(out)],
                     ["report", "--out", str(out), str(paths["prime_float"])],
                     ["compute", "--x-max", "20000", "--resume", str(paths["n_float"]),
                      "--out", str(out)]):
            capsys.readouterr()
            assert cli_main(argv) == 1, argv
            assert "malformed" in capsys.readouterr().err
        # x_max and the grid are read where the header answers the config
        for key, value in (("x_max", 10000.0), ("grid_start", 100), ("grid_ratio", "1.2")):
            path = tmp_path / f"{key}.txt"
            write_v6(path, {**header, key: value}, records)
            capsys.readouterr()
            assert cli_main(["report", "--out", str(out), str(path)]) == 1, key
            assert f"malformed checkpoint file: {key}=" in capsys.readouterr().err
        assert not out.exists()
        # the unaltered header, written by the same helper, is read
        write_v6(tmp_path / "same.txt", header, records)
        assert read_checkpoint_file(tmp_path / "same.txt").state.S == state["S"]
        # an int grid ratio given to RunConfig is written as the float it stands for
        ints = RunConfig(x_max=10**4, grid_ratio=2, out_dir=tmp_path / "ints")
        cmd_compute(ints)
        assert read_v6(ints.checkpoint_path())[0]["grid_ratio"] == 2.0
        assert cli_main(["report", "--out", str(ints.out_dir), str(ints.checkpoint_path())]) == 0

    def test_refuses_altered_bytes(self, tmp_path, capsys):
        """One base64 character of a record changed to another valid one, or
        one digit of the exact S in the header, still parses; the end
        marker's checksum refuses both, in every command that reads the file."""
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        lines = cfg.checkpoint_path().read_text().splitlines()
        S = str(read_v6(cfg.checkpoint_path())[0]["state"]["S"])
        k = len(S) // 2
        S_altered = S[:k] + ("8" if S[k] == "9" else "9") + S[k + 1 :]
        k = len(lines[2]) // 2
        altered = {
            "rows": (2, lines[2][:k] + ("B" if lines[2][k] == "A" else "A") + lines[2][k + 1 :]),
            "state": (1, lines[1].replace(f'"S": {S},', f'"S": {S_altered},')),
        }
        for tag, (i, line) in altered.items():
            assert line != lines[i]
            path = altered[tag] = tmp_path / f"{tag}.txt"
            path.write_text("\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n")
        # both still decode: only the checksum tells
        assert len(read_v6(altered["rows"])[1]) == 28
        assert str(read_v6(altered["state"])[0]["state"]["S"]) == S_altered
        for tag, path in altered.items():
            with pytest.raises(CheckpointFormatError, match="checksum mismatch"):
                read_checkpoint_file(path)
            out = tmp_path / f"cli_{tag}"
            common = ["--x-max", str(10**5), "--out", str(out)]
            for argv in (["verify", *common, "--resume", str(path)],
                         ["report", *common, str(path)],
                         ["compute", *common, "--resume", str(path)]):
                capsys.readouterr()
                assert cli_main(argv) == 1, argv
                assert "checksum" in capsys.readouterr().err
            assert not (out / "checkpoints.csv").exists()

    def test_write_cut_short_keeps_old_file(self, tmp_path, monkeypatch):
        """A resume in place rewrites the only copy of the state: a write
        that raises midway, once a chunk of rows has gone to the
        temporary file, must leave that copy whole."""
        cfg = cfg_for(tmp_path, 10**6, grid_ratio=1.001)
        cmd_compute(cfg)
        path = cfg.checkpoint_path()
        result = read_checkpoint_file(path)
        assert len(result.checkpoints) > report._CHUNK
        before = path.read_bytes()
        tmp = path.with_name(path.name + ".tmp")
        row_records = report._row_records
        cut_at = []  # the temporary file's size when the write is cut

        def killed(*args):
            yield next(row_records(*args))
            # resumed once the first chunk has been written
            cut_at.append(tmp.stat().st_size)
            raise KeyboardInterrupt

        monkeypatch.setattr(report, "_row_records", killed)
        with pytest.raises(KeyboardInterrupt):
            # the cut file is discarded, so its digest is never read
            write_checkpoint_file(path, cfg, result, (0, 0))
        assert cut_at[0] > 0
        assert path.read_bytes() == before
        stored = read_checkpoint_file(path)
        assert_same_table(stored.checkpoints, result.checkpoints)
        assert sorted(p.name for p in cfg.out_dir.iterdir()) == [
            "checkpoints.csv", "checkpoints.txt"]

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointFormatError):
            read_checkpoint_file(tmp_path / "nope.txt")

    def test_refuses_format_v1(self, tmp_path, capsys):
        # a v1 file as the Neumaier accumulator wrote it: float sums with
        # their compensation terms, 11 state fields
        v1_rows = [
            "config_hash 5d1c7a0e9f1b2c3d",
            "created 2026-01-01T00:00:00+00:00",
            "x_max 100",
            "grid_start 100",
            "grid_ratio 1.1892071150027210",
            "segment_size 1048576",
            "state 25 97 9.0916537512498508 -4.4408920985006262e-16 "
            "3.3792506318468512 1.1102230246251565e-16 79.27302474040741 "
            "3.5527136788005009e-15 0.21802366497710513 1.9821638473473393 1",
            "anS 1 0",
            "checkpoint 100 25 9.0916537512498508 3.3792506318468512 "
            "79.273024740407425 0.9756 3.17 0.365 -1.226",
            "end 1",
        ]
        v1 = tmp_path / "v1.txt"
        v1.write_text("\n".join(["primesums-checkpoints v1", *v1_rows]) + "\n")
        # the same rows under the current header: the state row is refused
        relabelled = tmp_path / "relabelled.txt"
        relabelled.write_text("\n".join([report._MAGIC, *v1_rows]) + "\n")
        cfg = cfg_for(tmp_path, 1000, resume_from=v1)
        for path in (v1, relabelled):
            with pytest.raises(CheckpointFormatError):
                read_checkpoint_file(path)
            with pytest.raises(CheckpointFormatError):
                resume(path, cfg)
        out = str(tmp_path / "out")
        assert cli_main(["verify", "--x-max", "100", "--resume", str(v1),
                         "--out", out]) == 1
        assert "not a checkpoint file" in capsys.readouterr().err


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
               1.7976931348623157e308, -1.7976931348623157e308,
               math.nan, -math.nan, math.inf, -math.inf, 0.1, -1.0 / 3]


def assert_codec_matches(table) -> None:
    """In chunks of _CSV_CHUNK rows (the last one shorter), each line ended
    by a newline, report._table_chunks gives the CSV bytes of the per-value
    codec, and report._row_records gives lines of the base64 of _CHUNK
    records (the last line fewer), which hold the x, pi, S and M columns
    bit for bit."""
    def sizes(chunk):
        return [min(chunk, len(table) - i) for i in range(0, len(table), chunk)]

    chunks = list(report._table_chunks(table))
    assert [c.count(b"\n") for c in chunks] == sizes(report._CSV_CHUNK)
    assert all(c.endswith(b"\n") for c in chunks)
    lines = b"".join(chunks).decode("ascii").split("\n")[:-1]
    scalar = list(table_lines_scalar(table, report.CSV_COLUMNS, ","))
    assert len(lines) == len(scalar)
    # the first row that differs, not a diff of the whole text
    i = next((i for i, (a, b) in enumerate(zip(lines, scalar)) if a != b), None)
    assert i is None, (i, lines[i], scalar[i])
    rows = list(report._row_records(table))
    assert all(line.endswith(b"\n") for line in rows)
    # decoded as documented
    chunks = [np.frombuffer(base64.b64decode(line[:-1], validate=True), dtype=RECORD)
              for line in rows]
    assert [len(c) for c in chunks] == sizes(report._CHUNK)
    records = np.concatenate(chunks)
    for name in RECORD.names:
        bits, written = records[name].view(np.int64), getattr(table, name).view(np.int64)
        # the first row whose bits differ
        i = next(iter(np.flatnonzero(bits != written)), None)
        assert i is None, (name, i, bits[i], written[i])


real = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
table_rows = st.lists(
    st.tuples(real, st.integers(0, 2**53 - 1), *[real] * 7), min_size=1, max_size=40)


class TestTableCodec:
    @pytest.fixture(scope="class")
    def dense(self):
        table = run_stream(1e6, grid_points(100.0, 1e6, 1.001)).checkpoints
        assert len(table) > report._CHUNK + 1
        return table

    @pytest.mark.parametrize("rows", [1, report._CHUNK - 1, report._CHUNK, report._CHUNK + 1])
    def test_chunk_edges(self, dense, rows):
        assert_codec_matches(dense.select(slice(0, rows)))

    def test_codec_pinned_to_format_version(self):
        """A resume copies stored CSV rows on the strength of a digest of
        their bytes, not of the codec that wrote them.  So a change to the
        columns or the row template comes with a new FORMAT_VERSION, and
        the old codec's files are refused rather than copied beside rows of
        the new one."""
        assert (report.FORMAT_VERSION, report.CSV_COLUMNS, report._CSV_ROW) == (
            6,
            ("x", "pi", "S", "M", "E", "r_S", "r_E_pi", "r_E_x", "mertens_remainder"),
            b"%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
        )

    @settings(max_examples=200, deadline=None)
    @given(table_rows)
    @example([(math.nan, 2**53 - 1, *EDGE_FLOATS[:7])])
    @example([(-0.0, 0, *EDGE_FLOATS[7:])])
    def test_any_doubles(self, row_list):
        cols = list(zip(*row_list))
        table = table_with(EagerCheckpoint(*(
            np.array(c, dtype=np.int64 if f == "pi" else np.float64)
            for f, c in zip(report.CSV_COLUMNS, cols))))
        assert_codec_matches(table)


def random_columns(seed: int, n: int):
    """The stored columns x, pi, S, M of a random table: x on both sides of
    3 and across 17 decades, S and M of either sign and many scales."""
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(0.0, 40.0, n))
    x[rng.choice(n, 3, replace=False)] = [1.0, 2.5, 3.0]  # below 3, and at it
    pi = rng.integers(1, 10**12, n)
    S, M = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-3.0, 8.0, (2, n))
    return x, pi, S, M


class TestDerivedAgainstEager:
    """E and the four ratios, formed where they are read, equal those of
    the eager table (tests/oracles.py) bit for bit: read on the whole
    table, through select, and through the CSV writer, at every split."""

    N = 37

    @pytest.fixture(params=range(4))
    def tables(self, request):
        columns = random_columns(request.param, self.N)
        return checkpoint_table(*columns), checkpoint_table_eager(*columns)

    @staticmethod
    def assert_bits(mine, ref) -> None:
        for name in report.CSV_COLUMNS:
            assert getattr(mine, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_whole_table(self, tables):
        lazy, eager = tables
        assert "derived" not in vars(lazy)  # nothing is formed before a read
        self.assert_bits(lazy, eager)

    @pytest.mark.parametrize("formed", [False, True], ids=["unformed", "formed"])
    def test_select(self, tables, formed):
        """Rows picked from a table that has formed its derived columns
        (they are sliced) or not (the rows form their own)."""
        lazy, eager = tables
        if formed:
            lazy.E
        picks = [slice(0, k) for k in range(self.N + 1)] + [
            slice(k, None) for k in range(self.N + 1)]
        picks += [eager.x > 1e6, np.arange(self.N)[::-3]]
        for rows in picks:
            self.assert_bits(lazy.select(rows), eager.select(rows))
        assert ("derived" in vars(lazy)) == formed

    @pytest.mark.parametrize("formed", [False, True], ids=["unformed", "formed"])
    def test_csv_writer(self, tables, formed, monkeypatch):
        """At every chunk size, each chunk forming its own columns or
        slicing the table's."""
        lazy, eager = tables
        if formed:
            lazy.E
        columns = [getattr(eager, name) for name in report.CSV_COLUMNS]
        for chunk in range(1, self.N + 1):
            monkeypatch.setattr(report, "_CSV_CHUNK", chunk)
            assert list(report._table_chunks(lazy)) == list(
                report._csv_chunks(report._CSV_ROW, columns))
        assert ("derived" in vars(lazy)) == formed


@pytest.mark.parametrize("first_x", [10**5, 5 * 10**4], ids=["completed", "split"])
def test_compute_peak_per_row(tmp_path, first_x):
    """compute to first_x, then a resume to 1e5, trace a peak that grows by
    at most 16 bytes for each row the 1.00002 grid (345,393 rows) adds to
    the 1.0001 one (69,083): rows stream to disk a slice at a time, so
    memory holds the grid's x, 8 bytes a row, and one slice, not the table.
    Traced here: 7.6 bytes a row (completed) and 8.3 (split), where holding
    the table's four stored columns took 54 and 74."""
    peaks, rows = [], []
    for ratio in (1.0001, 1.00002):
        out = tmp_path / str(ratio)
        first = RunConfig(x_max=first_x, grid_ratio=ratio, out_dir=out / "first")
        resumed = RunConfig(x_max=10**5, grid_ratio=ratio, out_dir=out / "resumed",
                            resume_from=first.checkpoint_path())
        tracemalloc.start()
        try:
            cmd_compute(first)
            cmd_compute(resumed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        with open(resumed.checkpoint_path()) as fh:  # the row count, from the header
            fh.readline()
            rows.append(json.loads(fh.readline())["rows"])
    assert rows == [69_083, 345_393]
    per_row = (peaks[1] - peaks[0]) / (rows[1] - rows[0])
    assert per_row <= 16, per_row


def test_compute_peak_on_the_default_grid(tmp_path):
    """compute to 1e8 on the default grid (81 rows) traces at most 0.5 MB
    above the 3.3e6 that TestRunStream::test_one_prime_array_per_window
    anchors for run_stream alone: streaming a few rows to the CSV and the
    spill adds next to nothing to the sieve's window.  Traced here: 2.65
    MB, against 2.52 MB for run_stream."""
    cfg = cfg_for(tmp_path, 10**8)
    tracemalloc.start()
    try:
        cmd_compute(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3e6 + 0.5e6, peak


def test_record_lines_hold_4096_records(tmp_path):
    """Every record line of checkpoints.txt but the last decodes to 4096
    records of 32 bytes, as the README states: after a streamed compute,
    and after a resume whose cut falls mid-line.  The run to 5e4 stores
    62,151 rows, 711 in its last line, and the resume keeps 710 of them:
    that line is decoded and cut, the 15 before it copied as they are.  The
    resumed file states the unsplit run, record for record."""
    first = RunConfig(x_max=5 * 10**4, grid_ratio=1.0001, out_dir=tmp_path / "first")
    cmd_compute(first)
    runs = {name: RunConfig(x_max=10**5, grid_ratio=1.0001, out_dir=tmp_path / name,
                            resume_from=first.checkpoint_path() if name == "resumed" else None)
            for name in ("unsplit", "resumed")}
    kept = resume(first.checkpoint_path(), replace(runs["resumed"]))[0]
    assert (read_v6(first.checkpoint_path())[0]["rows"], kept.rows) == (62_151, 62_150)
    for cfg in runs.values():
        cmd_compute(cfg)
    lines = {}
    for cfg in (first, *runs.values()):
        lines[cfg.out_dir.name] = cfg.checkpoint_path().read_bytes().splitlines()[2:-1]
        sizes = [len(base64.b64decode(line, validate=True)) for line in lines[cfg.out_dir.name]]
        assert set(sizes[:-1]) == {4096 * 32} and 0 < sizes[-1] <= 4096 * 32, sizes
    assert lines["resumed"][:15] == lines["first"][:15]
    assert lines["resumed"][15] != lines["first"][15]
    assert stored_facts(runs["resumed"].checkpoint_path()) == stored_facts(
        runs["unsplit"].checkpoint_path())


def test_failed_resume_in_place_keeps_the_stored_files(tmp_path, monkeypatch):
    """A resume in place that raises midway, at the second
    SumState.extend_primes call, once the first slice's rows have gone to
    the CSV's .tmp file and to the spill, leaves checkpoints.txt and
    checkpoints.csv as they were, byte for byte, and no .tmp file."""
    first = RunConfig(x_max=10**4, grid_ratio=1.0001, out_dir=tmp_path)
    cmd_compute(first)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["checkpoints.csv", "checkpoints.txt"]
    extend_primes = SumState.extend_primes
    temporaries = []  # the .tmp files and their sizes at each call

    def failing(self, *args, **kwargs):
        temporaries.append({p.name: p.stat().st_size for p in tmp_path.glob("*.tmp")})
        if len(temporaries) == 2:
            raise RuntimeError("stopped")
        return extend_primes(self, *args, **kwargs)

    monkeypatch.setattr(SumState, "extend_primes", failing)
    with pytest.raises(RuntimeError, match="stopped"):
        cmd_compute(RunConfig(x_max=10**5, grid_ratio=1.0001, out_dir=tmp_path,
                              resume_from=first.checkpoint_path()))
    assert sorted(temporaries[1]) == ["checkpoints.csv.tmp", "checkpoints.spill.tmp"]
    assert all(temporaries[1].values())
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["verify", "report"])
def test_checks_peak_above_the_stored_run(tmp_path, command):
    """The checks of verify and of report on a stored 1e6 run trace at
    most 3 MB above the run read back: the block pass holds one segment's
    primes and one block's arrays, and the pair check its 5000 primes.
    Traced here: 2.3 MB for verify and 2.0 MB for report, where the
    whole-array path of 78,498 primes traced 6.3 MB and 4.9 MB."""
    cfg = cfg_for(tmp_path, 10**6)
    cmd_compute(cfg)
    ctx = report.RunContext(cfg, read_checkpoint_file(cfg.checkpoint_path(), cfg))
    tracemalloc.start()
    try:
        records = report.run_checks(ctx, command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in records)
    assert peak <= 3_000_000, peak


def _count_formatted(monkeypatch) -> list[int]:
    """Wrap report.write_csv and report._table_chunks to count the rows
    formatted: one entry per CSV written, the rows of every slice
    _table_chunks formats for it."""
    counts = []
    table_chunks, write_csv = report._table_chunks, report.write_csv

    def counted(table):
        counts[-1] += len(table)
        return table_chunks(table)

    def writing(*args, **kwargs):
        counts.append(0)
        return write_csv(*args, **kwargs)

    monkeypatch.setattr(report, "_table_chunks", counted)
    monkeypatch.setattr(report, "write_csv", writing)
    return counts


class TestCsvReuse:
    """A resume or report copies the rows it keeps from the stored
    checkpoints.csv when the checkpoint file's csv line vouches for all of
    its bytes, and formats only the others: the bytes written are the
    unsplit run's whatever the stored CSV holds."""

    @pytest.fixture(scope="class")
    def unsplit(self, tmp_path_factory):
        # 7.6e3 rows to 2e5: more than one chunk; the stored 1e5 CSV is
        # more than one _BLOCK
        cfg = RunConfig(x_max=2 * 10**5, grid_ratio=1.001,
                        out_dir=tmp_path_factory.mktemp("unsplit"))
        cmd_compute(cfg)
        return cfg.csv_path().read_bytes()

    @pytest.mark.parametrize("stored_csv", ["present", "small_blocks", "report", "deleted",
                                            "altered", "truncated"])
    def test_split_equals_unsplit(self, unsplit, tmp_path, monkeypatch, capsys, stored_csv):
        first = RunConfig(x_max=10**5, grid_ratio=1.001, out_dir=tmp_path / "first")
        cmd_compute(first)
        csv = first.csv_path()
        text = csv.read_bytes()
        assert len(text) > report._BLOCK
        formatted = _count_formatted(monkeypatch)
        if stored_csv == "small_blocks":
            monkeypatch.setattr(report, "_BLOCK", 997)  # rows straddle blocks
        elif stored_csv == "report":
            # report, in place, writes the CSV its digest vouches for again:
            # every row copied, none formatted, the same bytes
            assert cli_main(["report", "--out", str(first.out_dir),
                             str(first.checkpoint_path())]) == 0
            assert csv.read_bytes() == text and formatted == [0]
            formatted.clear()
        elif stored_csv == "deleted":
            csv.unlink()
        elif stored_csv == "altered":
            # one digit of a kept row, at the same length
            lines = text.split(b"\n")
            digit = lines[100][-1:]
            lines[100] = lines[100][:-1] + str((int(digit) + 1) % 10).encode()
            csv.write_bytes(b"\n".join(lines))
            assert len(csv.read_bytes()) == len(text)
        elif stored_csv == "truncated":
            csv.write_bytes(text[: len(text) // 2])
        resumed = RunConfig(x_max=2 * 10**5, grid_ratio=1.001, out_dir=tmp_path / "resumed",
                            resume_from=first.checkpoint_path())
        k = resume(first.checkpoint_path(), resumed)[0].rows
        cmd_compute(resumed)
        assert resumed.csv_path().read_bytes() == unsplit
        grid = resumed.grid()
        vouched = stored_csv in ("present", "small_blocks", "report")
        assert formatted == [len(grid[k:]) if vouched else len(grid)]
        # and the new checkpoint file vouches for the new CSV
        assert read_v6(resumed.checkpoint_path())[0]["csv"] == [len(unsplit),
                                                                zlib.crc32(unsplit)]

    def test_resume_in_place(self, unsplit, tmp_path, monkeypatch):
        """--out the stored directory: the stored CSV is read while its
        replacement is written beside it, and the bytes are the unsplit
        run's.  A second resume of the completed run, whose CSV the digest
        vouches for, formats no row and writes both files again: the same
        CSV bytes, and the same checkpoint file but for its created time."""
        first = RunConfig(x_max=10**5, grid_ratio=1.001, out_dir=tmp_path)
        cmd_compute(first)
        formatted = _count_formatted(monkeypatch)
        facts = []  # stored_facts of the checkpoint file after each resume
        for _ in range(2):
            cmd_compute(RunConfig(x_max=2 * 10**5, grid_ratio=1.001, out_dir=tmp_path,
                                  resume_from=first.checkpoint_path()))
            assert first.csv_path().read_bytes() == unsplit
            facts.append(stored_facts(first.checkpoint_path()))
        assert facts[1] == facts[0]
        assert len(formatted) == 2 and 0 < formatted[0] < len(first.grid())
        assert formatted[1] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoints.csv", "checkpoints.txt"]

    def test_completed_resume_in_place_heals_the_csv(self, unsplit, tmp_path):
        """A completed run resumed in place whose CSV the digest does not
        vouch for (one digit altered) writes both files again: the CSV is
        the unsplit run's, and the new checkpoint file vouches for it."""
        cfg = RunConfig(x_max=2 * 10**5, grid_ratio=1.001, out_dir=tmp_path)
        cmd_compute(cfg)
        text = cfg.csv_path().read_bytes()
        cfg.csv_path().write_bytes(text[:-2] + str((int(text[-2:-1]) + 1) % 10).encode() + b"\n")
        before = stored_facts(cfg.checkpoint_path())
        cmd_compute(RunConfig(x_max=2 * 10**5, grid_ratio=1.001, out_dir=tmp_path,
                              resume_from=cfg.checkpoint_path()))
        assert cfg.csv_path().read_bytes() == unsplit
        assert stored_facts(cfg.checkpoint_path()) == before

    def test_report_in_place_heals_the_csv(self, unsplit, tmp_path):
        """report with --out the stored directory writes a CSV its digest
        does not vouch for (one digit altered) again, byte for byte."""
        cfg = RunConfig(x_max=2 * 10**5, grid_ratio=1.001, out_dir=tmp_path)
        cmd_compute(cfg)
        text = cfg.csv_path().read_bytes()
        cfg.csv_path().write_bytes(text[:-2] + str((int(text[-2:-1]) + 1) % 10).encode() + b"\n")
        assert cli_main(["report", "--out", str(tmp_path), str(cfg.checkpoint_path())]) == 0
        assert cfg.csv_path().read_bytes() == text == unsplit


class TestResume:
    def test_split_equals_unsplit(self, tmp_path):
        unsplit = RunConfig(x_max=10**5, out_dir=tmp_path / "unsplit")
        cmd_compute(unsplit)

        stage1 = RunConfig(x_max=10**4, out_dir=tmp_path / "split")
        cmd_compute(stage1)
        stage2 = RunConfig(
            x_max=10**5,
            out_dir=tmp_path / "split",
            resume_from=stage1.checkpoint_path(),
        )
        cmd_compute(stage2)

        assert (
            unsplit.csv_path().read_bytes() == stage2.csv_path().read_bytes()
        )
        a = read_checkpoint_file(unsplit.checkpoint_path())
        b = read_checkpoint_file(stage2.checkpoint_path())
        for field in STATE_FIELDS:
            assert getattr(a.state, field) == getattr(b.state, field)
        assert a.an_sn_samples == b.an_sn_samples

    def test_split_where_stored_n_is_a_power_of_two(self, tmp_path):
        """pi(8161) = 1024: the stored final sample is a power-of-two one, so
        there is no extra sample to add; the resumed run still gives the
        unsplit run's samples, files and series bytes."""
        unsplit = RunConfig(x_max=10**5, out_dir=tmp_path / "unsplit")
        cmd_compute(unsplit)
        first = RunConfig(x_max=8161, out_dir=tmp_path / "first")
        cmd_compute(first)
        ns = [k for k, _ in read_checkpoint_file(first.checkpoint_path()).an_sn_samples]
        assert ns == [1 << k for k in range(11)]  # to 1024, once
        resumed = RunConfig(x_max=10**5, out_dir=tmp_path / "resumed",
                            resume_from=first.checkpoint_path())
        cmd_compute(resumed)
        a = read_checkpoint_file(unsplit.checkpoint_path())
        b = read_checkpoint_file(resumed.checkpoint_path())
        assert a.power_samples == b.power_samples
        assert a.an_sn_samples == b.an_sn_samples
        assert [k for k, _ in b.an_sn_samples] == [1 << k for k in range(14)] + [9592]
        for cfg in (unsplit, resumed):
            report_on(cfg, cfg.checkpoint_path())
        for name in ("checkpoints.csv", "series_anS.csv"):
            assert ((unsplit.out_dir / name).read_bytes()
                    == (resumed.out_dir / name).read_bytes()), name
        facts_a, facts_b = (stored_facts(cfg.checkpoint_path()) for cfg in (unsplit, resumed))
        assert facts_a == facts_b
        assert facts_a[0]["rows"] == 41

    def test_resume_from_a_file_with_the_jump_sum(self, tmp_path):
        """A format-6 file as the earlier writer made it, whose state also
        holds the jump sum E_incremental (sealed again with a valid CRC),
        loads, ignores that key, and resumes to the unsplit run's
        checkpoints.csv and series_anS.csv, byte for byte."""
        unsplit = RunConfig(x_max=10**5, out_dir=tmp_path / "unsplit")
        cmd_compute(unsplit)
        first = RunConfig(x_max=10**4, out_dir=tmp_path / "first")
        cmd_compute(first)
        header, records = read_v6(first.checkpoint_path())
        write_v6(first.checkpoint_path(), {**header, "state": old_state(header)}, records)
        stored = read_checkpoint_file(first.checkpoint_path())
        assert [getattr(stored.state, f) for f in STATE_FIELDS] == [
            header["state"][f] for f in STATE_FIELDS]
        resumed = RunConfig(x_max=10**5, out_dir=tmp_path / "resumed",
                            resume_from=first.checkpoint_path())
        cmd_compute(resumed)
        for cfg in (unsplit, resumed):
            report_on(cfg, cfg.checkpoint_path())
        for name in ("checkpoints.csv", "series_anS.csv"):
            assert ((unsplit.out_dir / name).read_bytes()
                    == (resumed.out_dir / name).read_bytes()), name
        assert "E_incremental" not in read_v6(resumed.checkpoint_path())[0]["state"]

    def test_resume_from_a_file_with_the_segment_size(self, tmp_path):
        """A format-6 file as the writers before --segment-size was deleted
        made it, whose header also holds segment_size, config_hash and the
        state's last_weight and weights_decreasing (sealed again with a
        valid CRC), is verified, reported and resumed as the file without
        them is: the same verification.csv, checkpoints.csv and
        series_anS.csv, byte for byte, and the resumed file's header has
        none of those keys."""
        unsplit = RunConfig(x_max=10**5, out_dir=tmp_path / "unsplit")
        cmd_compute(unsplit)
        for name, size in (("first", None), ("older", 2048)):
            cfg = RunConfig(x_max=10**4, out_dir=tmp_path / name)
            cmd_compute(cfg)
            if size is not None:
                header, records = read_v6(cfg.checkpoint_path())
                write_v6(cfg.checkpoint_path(), {**header, "segment_size": size,
                                                 "config_hash": OLD_CONFIG_HASH,
                                                 "state": old_state(header)}, records)
            stored = RunConfig(x_max=None, out_dir=tmp_path / name,
                               resume_from=cfg.checkpoint_path())
            assert cmd_verify(stored)[1] == 0
            report_on(cfg, cfg.checkpoint_path())
            resumed = RunConfig(x_max=10**5, out_dir=tmp_path / f"{name}_resumed",
                                resume_from=cfg.checkpoint_path())
            cmd_compute(resumed)
            report_on(resumed, resumed.checkpoint_path())
        older = read_v6(tmp_path / "older" / "checkpoints.txt")[0]
        assert {"segment_size", "config_hash"} <= set(older)
        assert {"last_weight", "weights_decreasing"} <= set(older["state"])
        for name in ("verification.csv", "checkpoints.csv", "series_anS.csv"):
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "older" / name).read_bytes()), name
        report_on(unsplit, unsplit.checkpoint_path())
        for name in ("checkpoints.csv", "series_anS.csv"):
            for run in ("first_resumed", "older_resumed"):
                assert ((unsplit.out_dir / name).read_bytes()
                        == (tmp_path / run / name).read_bytes()), (run, name)
        resumed = read_v6(tmp_path / "older_resumed" / "checkpoints.txt")[0]
        assert list(resumed) == HEADER_KEYS and sorted(resumed["state"]) == sorted(STATE_FIELDS)

    def test_regrid_refused(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        changed = RunConfig(
            x_max=10**5,
            grid_ratio=1.5,
            out_dir=tmp_path / "out",
            resume_from=cfg.checkpoint_path(),
        )
        with pytest.raises(CheckpointFormatError):
            resume(cfg.checkpoint_path(), changed)

    def test_completed_run_is_noop(self, tmp_path, monkeypatch):
        """A completed run resumed in place computes nothing and formats no
        row: it writes the same CSV bytes, and the same checkpoint file but
        for its created time."""
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        csv, facts = cfg.csv_path().read_bytes(), stored_facts(cfg.checkpoint_path())
        formatted = _count_formatted(monkeypatch)
        again = RunConfig(
            x_max=10**4,
            out_dir=tmp_path / "out",
            resume_from=cfg.checkpoint_path(),
        )
        result = cmd_compute(again)
        assert cfg.csv_path().read_bytes() == csv
        assert stored_facts(cfg.checkpoint_path()) == facts
        assert formatted == [0]
        assert (result.rows, result.state.n) == (28, 1229)

    def test_in_place_onto_a_stored_point_rewrites_both_files(self, tmp_path):
        """A run to 12805 (last prime 12799) resumed in place to 12800, a
        stored grid point, has no point left to compute but keeps fewer
        rows: both files are written again, and the checkpoint file holds
        the run to 12800 and vouches for the CSV beside it."""
        first = RunConfig(x_max=12805, grid_ratio=2.0, out_dir=tmp_path)
        cmd_compute(first)
        cut = RunConfig(x_max=12800, grid_ratio=2.0, out_dir=tmp_path,
                        resume_from=first.checkpoint_path())
        assert not len(resume(first.checkpoint_path(), cut)[1])
        cmd_compute(cut)
        stored = read_checkpoint_file(first.checkpoint_path())
        csv = first.csv_path().read_bytes()
        assert stored.checkpoints.x[-1] == 12800.0
        assert stored.csv_digest == (len(csv), zlib.crc32(csv))
        assert csv.splitlines()[-1].startswith(b"12800,1526,")

    def test_shrinking_xmax_refused(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**5)
        cmd_compute(cfg)
        smaller = RunConfig(
            x_max=10**4,
            out_dir=tmp_path / "out",
            resume_from=cfg.checkpoint_path(),
        )
        with pytest.raises(ConfigError):
            cmd_compute(smaller)

    def test_shrinking_xmax_onto_stored_grid_point_refused(self, tmp_path, capsys):
        """x_max = 1000 is a stored grid point, so no point is left to
        compute; a state with primes past it is refused all the same, with
        exit 2 and before anything is written."""
        first = tmp_path / "first"
        ten = ["--grid-ratio", "10"]
        assert cli_main(["compute", "--x-max", "10000", *ten, "--out", str(first)]) == 0
        before = {p.name: p.read_bytes() for p in first.iterdir()}
        for out in (first, tmp_path / "second"):
            capsys.readouterr()
            assert cli_main(["compute", "--x-max", "1000", *ten, "--out", str(out),
                             "--resume", str(first / "checkpoints.txt")]) == 2
            assert "primes to 9973" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in first.iterdir()} == before
        assert not (tmp_path / "second").exists()


class TestVerify:
    def test_all_pass_at_1e4(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        records, status = cmd_verify(cfg)
        assert status == 0
        assert all(r.passed for r in records)
        assert (cfg.out_dir / "verification.csv").exists()

    def test_reads_stored_checkpoints(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        again = RunConfig(
            x_max=10**4,
            out_dir=tmp_path / "out",
            resume_from=cfg.checkpoint_path(),
        )
        records, status = cmd_verify(again)
        assert status == 0

    def test_tolerance_override_can_force_failure(self, tmp_path, monkeypatch):
        """No flag sets a tolerance; a registry whose jump_identity entry has
        tolerance 0.0 fails that check alone, since nothing beats an exact
        zero at scale."""
        cfg = cfg_for(tmp_path, 10**3)
        monkeypatch.setattr(report, "CHECKS", tuple(
            replace(c, tolerance=0.0) if c.check_id == "jump_identity" else c
            for c in report.CHECKS))
        records, status = cmd_verify(cfg)
        assert status == 1
        failing = [r for r in records if not r.passed]
        assert {r.check_id for r in failing} == {"jump_identity"}


class TestReport:
    def test_bundle_schema(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        bundle_path = report_on(cfg, cfg.checkpoint_path())
        bundle = json.loads(bundle_path.read_text())
        validate(bundle, BUNDLE_SCHEMA)

    def test_bundle_internally_consistent(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        bundle = json.loads(report_on(cfg, cfg.checkpoint_path()).read_text())
        rows = (cfg.out_dir / "checkpoints.csv").read_text().splitlines()[1:]
        xs = {float(row.split(",")[0]) for row in rows}
        assert len(xs) == len(rows) > 0
        for stat in bundle["block_stats"]:
            assert stat["x"] in xs and stat["x_lower"] in xs
        for dec in bundle["abel_decompositions"]:
            assert dec["x"] in xs
        for rec in bundle["verification_records"]:
            assert rec["pass"] is True

    def test_report_writes_computes_table(self, tmp_path):
        """Each fact in one file: the table is compute's checkpoints.csv, byte
        for byte, and the a_n*S_{n-1} samples are series_anS.csv."""
        cfg = cfg_for(tmp_path, 10**4)
        result = cmd_compute(cfg)
        out = RunConfig(x_max=10**4, out_dir=tmp_path / "report")
        report_on(out, cfg.checkpoint_path())
        assert sorted(p.name for p in out.out_dir.iterdir()) == [
            "checkpoints.csv", "report.json", "series_anS.csv"]
        assert out.csv_path().read_bytes() == cfg.csv_path().read_bytes()
        # the per-value bytes of each sample, the first, (1, 0.0), included
        assert (out.out_dir / "series_anS.csv").read_bytes() == b"n,value\n" + b"".join(
            b"%d,%.17g\n" % sample for sample in result.an_sn_samples)
        assert result.an_sn_samples[0] == (1, 0.0)

    def test_stored_run_is_resume_from(self, tmp_path):
        """report reads the run named by resume_from, as verify does, and
        its header answers what cfg leaves None."""
        cfg = cfg_for(tmp_path, 10**4, grid_ratio=1.5)
        cmd_compute(cfg)
        out = RunConfig(x_max=None, out_dir=tmp_path / "report",
                        resume_from=cfg.checkpoint_path())
        bundle = json.loads(cmd_report(out).read_text())
        assert (out.x_max, out.grid_ratio) == (10**4, 1.5)
        assert bundle["config"]["x_max"] == 10**4
        assert out.csv_path().read_bytes() == cfg.csv_path().read_bytes()
        with pytest.raises(ConfigError, match="resume_from"):
            cmd_report(cfg_for(tmp_path, 10**4))

    def test_empty_file_is_format_error(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        bad = tmp_path / "empty.txt"
        bad.write_text("")
        with pytest.raises(CheckpointFormatError):
            report_on(cfg, bad)


class TestStoredRun:
    """A checkpoint file is its own config: its header answers the --x-max
    (but compute's) and grid flags left out, and refuses one given otherwise."""

    @pytest.fixture(scope="class")
    def stored_1e6(self, tmp_path_factory):
        cfg = RunConfig(x_max=10**6, out_dir=tmp_path_factory.mktemp("stored"))
        cmd_compute(cfg)
        return str(cfg.checkpoint_path())

    def test_flags_left_out_give_the_same_bytes(self, tmp_path):
        grid = ["--grid-ratio", "1.01"]
        stored = tmp_path / "stored"
        assert cli_main(["compute", "--x-max", "100000", *grid, "--out", str(stored)]) == 0
        ckpt = str(stored / "checkpoints.txt")
        for name, flags in (("given", ["--x-max", "100000", *grid]), ("left_out", [])):
            out = str(tmp_path / name)
            assert cli_main(["verify", *flags, "--resume", ckpt, "--out", out]) == 0
            assert cli_main(["report", *flags, "--out", out, ckpt]) == 0
        assert _outputs(tmp_path / "left_out") == _outputs(tmp_path / "given")

    def test_other_x_max_refused_before_any_work(self, stored_1e6, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (["verify", "--x-max", "2000", "--resume", stored_1e6, "--out", str(out)],
                     ["report", "--x-max", "2000", "--out", str(out), stored_1e6]):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            assert "x_max=1000000, not 2000" in capsys.readouterr().err
        assert not out.exists()

    def test_other_grid_refused(self, stored_1e6, tmp_path, capsys):
        """A --grid-ratio other than the file's, and a file whose grid starts
        anywhere but at GRID_START (its header sealed again with grid_start
        50), are refused with exit 1 by every command, before any work."""
        header, records = read_v6(Path(stored_1e6))
        at_50 = tmp_path / "at_50.txt"
        write_v6(at_50, {**header, "grid_start": 50.0}, records)
        out = tmp_path / "out"
        for path, flags, grid in ((stored_1e6, ["--grid-ratio", "1.5"], "from 100.0 at ratio"),
                                  (str(at_50), [], "from 50.0 at ratio")):
            for argv in (["report", *flags, "--out", str(out), path],
                         ["verify", *flags, "--resume", path, "--out", str(out)],
                         ["compute", "--x-max", "2000000", *flags, "--resume", path,
                          "--out", str(out)]):
                capsys.readouterr()
                assert cli_main(argv) == 1, argv
                assert f"holds a grid {grid}" in capsys.readouterr().err
        assert not out.exists()

    def test_x_max_required_by_compute_and_plain_verify(self, stored_1e6, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (["compute", "--out", str(out)], ["verify", "--out", str(out)],
                     ["compute", "--resume", stored_1e6, "--out", str(out)]):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            assert "--x-max is required" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_resume_without_grid_flags_equals_unsplit(self, tmp_path):
        grid = ["--grid-ratio", "1.001"]  # 7.6e3 rows to 2e5: more than one chunk
        unsplit, first, resumed = (tmp_path / name for name in ("unsplit", "first", "resumed"))
        assert cli_main(["compute", "--x-max", "200000", *grid, "--out", str(unsplit)]) == 0
        assert cli_main(["compute", "--x-max", "100000", *grid, "--out", str(first)]) == 0
        assert cli_main(["compute", "--x-max", "200000", "--out", str(resumed),
                         "--resume", str(first / "checkpoints.txt")]) == 0
        assert ((unsplit / "checkpoints.csv").read_bytes()
                == (resumed / "checkpoints.csv").read_bytes())
        facts_a, facts_b = (stored_facts(out / "checkpoints.txt") for out in (unsplit, resumed))
        assert facts_a == facts_b

    @pytest.mark.parametrize("target", [12800, 10**4, 9980, 20000],
                             ids=["on_lattice", "stored", "past_last_prime", "off_lattice"])
    def test_prefix_cut_keeps_the_rows_isin_kept(self, tmp_path, target):
        """On the lattice 100 * 2**k, a stored run to 1e4 (last prime 9973)
        resumed to target keeps the rows np.isin picks, its first kept.rows,
        and leaves the same points to compute."""
        first = RunConfig(x_max=10**4, grid_ratio=2.0, out_dir=tmp_path)
        cmd_compute(first)
        cfg = RunConfig(x_max=target, grid_ratio=2.0, out_dir=tmp_path / "next")
        kept, remaining = resume(first.checkpoint_path(), cfg)
        assert kept.checkpoints is None  # the stored table is not built
        stored = read_checkpoint_file(first.checkpoint_path()).checkpoints
        grid = np.asarray(cfg.grid())
        isin = stored.select(np.isin(stored.x, grid))
        assert_same_table(stored.select(slice(0, kept.rows)), isin)
        assert remaining.tolist() == grid[~np.isin(grid, isin.x)].tolist()


def _outputs(out_dir):
    """verification.csv, checkpoints.csv, series_anS.csv and report.json
    without its wall time, of one output directory."""
    files = {name: (out_dir / name).read_bytes()
             for name in ("verification.csv", "checkpoints.csv", "series_anS.csv")}
    bundle = json.loads((out_dir / "report.json").read_text())
    del bundle["metadata"]["report_wall_time_s"]
    files["report.json"] = json.dumps(bundle, sort_keys=True).encode()
    return files


def test_outputs_equal_scalar_references(tmp_path, monkeypatch):
    """verify and report on a stored 1e6 run write the same bytes as the
    scalar references of the checks and bands do in the same process."""
    stored = cfg_for(tmp_path / "stored", 10**6)
    cmd_compute(stored)

    def verify_and_report(name):
        cfg = RunConfig(
            x_max=10**6, out_dir=tmp_path / name, resume_from=stored.checkpoint_path()
        )
        assert cmd_verify(cfg)[1] == 0
        report_on(cfg, stored.checkpoint_path())
        return _outputs(cfg.out_dir)

    vectorized = verify_and_report("vectorized")
    calls = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(report, "check_pair_identity",
                        counted("pair", pair_records_scalar))
    monkeypatch.setattr(report, "check_jump_identity",
                        counted("jump", jump_record_scalar))
    monkeypatch.setattr(report, "_AbelFold", counted("abel", AbelFoldScalar))
    monkeypatch.setattr(report, "block_sandwich", counted("blocks", block_sandwich_scalar))
    monkeypatch.setattr(report, "sandwich_records",
                        counted("sandwich", sandwich_records_scalar))
    monkeypatch.setattr(report, "lower_bound_check", counted("lower", lower_bound_scalar))
    monkeypatch.setattr(report, "scale_identity_record",
                        counted("scale", scale_identity_scalar))
    monkeypatch.setattr(report, "check_E_monotone", counted("e", check_E_monotone_scalar))
    monkeypatch.setattr(report, "ratio_positivity_record",
                        counted("positive", ratio_positivity_scalar))
    monkeypatch.setattr(report, "empirical_constants",
                        counted("bands", empirical_constants_scalar))
    monkeypatch.setattr(report, "an_sn_band", counted("anS", an_sn_band_scalar))
    assert verify_and_report("scalar") == vectorized
    # the registry looks the checks and folds up when it runs them, so the
    # swaps took effect: pair once in verify, jump once a block there (10
    # blocks of primes to 1e6 and the closing empty one), the Abel fold and
    # the checks in verify and in report, the bands in report
    assert calls == {"pair": 1, "jump": 11, "abel": 2, "blocks": 2, "sandwich": 2,
                     "lower": 2, "scale": 2, "e": 2, "positive": 2, "bands": 1,
                     "anS": 1}


@pytest.mark.parametrize("ratio", [2**0.25, 1.001], ids=["default", "1.001"])
def test_abel_S_is_the_stored_S(tmp_path, ratio):
    """At every Abel point of a stored 1e6 run, the exact sum of the
    weights, rounded once (what abel_decompose_scalar's fsum returns),
    equals the stored S bit for bit, so reading the stored S changes no
    bit of the Abel check."""
    cfg = cfg_for(tmp_path, 10**6, grid_ratio=ratio)
    cmd_compute(cfg)
    stored = read_checkpoint_file(cfg.checkpoint_path(), cfg)
    ctx = report.RunContext(cfg, stored)
    (record,) = [r for r in report.run_checks(ctx, "report") if r.check_id == "abel_identity"]
    abel = ctx.folds["abel_identity"].abel
    assert record.passed
    table = stored.checkpoints
    assert abel.direct_S.tolist() == table.S[table.x <= report.SCAN_CAP].tolist()
    primes = prime_array(10**6).tolist()
    units = list(itertools.accumulate(
        (int(math.ldexp(eval_w(float(p)), 120)) for p in primes), initial=0))
    cuts = [bisect.bisect_right(primes, x) for x in abel.x.tolist()]
    exact = [math.ldexp(float(units[c]), -120) for c in cuts]
    assert abel.direct_S.tolist() == exact
    assert len(exact) > (9000 if ratio == 1.001 else 50)
    for i in (0, len(exact) // 2, len(exact) - 1):
        dec = abel_decompose_scalar(float(abel.x[i]), primes[: cuts[i]])
        assert dec.direct_S == exact[i]


def _verify_altered(tmp_path, column):
    """verify --resume on a stored 1.01 run to 1e6 whose column (S or M) is
    raised by a relative 1e-6 at the grid point nearest above 5e5, written
    back with a valid CRC: the abel_identity record, the exit status, and
    the altered row's x and value.  The same run unaltered must pass."""
    cfg = cfg_for(tmp_path, 10**6, grid_ratio=1.01)
    cmd_compute(cfg)
    assert cmd_verify(replace(cfg, resume_from=cfg.checkpoint_path()))[1] == 0
    run = read_checkpoint_file(cfg.checkpoint_path(), cfg)
    table = run.checkpoints
    sums = {"S": table.S.copy(), "M": table.M.copy()}
    i = int(np.searchsorted(table.x, 5e5))
    sums[column][i] *= 1.0 + 1e-6
    altered = replace(run, checkpoints=checkpoint_table(table.x, table.pi, **sums))
    path = tmp_path / "altered.txt"
    write_checkpoint_file(path, cfg, altered, run.csv_digest)
    records, status = cmd_verify(replace(cfg, out_dir=tmp_path / "verify", resume_from=path))
    (abel,) = [r for r in records if r.check_id == "abel_identity"]
    return abel, status, table.x[i], sums[column][i]


def test_altered_stored_S_fails_abel_identity(tmp_path):
    """A stored run whose S is altered at one grid point below 1e6, and
    written back with a valid CRC, fails abel_identity at that point:
    the check compares the stored S, not a sum of its own."""
    abel, status, x, S = _verify_altered(tmp_path, "S")
    assert status == 1
    assert not abel.passed
    assert (abel.location, abel.lhs) == (x, S)
    assert 1e-7 < abel.residual < 1e-5


def test_altered_stored_M_fails_abel_identity(tmp_path):
    """The same with one M altered: the boundary h(x) M(x) and x's last
    cell take the stored M, so the check compares it too, where a running
    sum of its own would pass."""
    abel, status, x, _ = _verify_altered(tmp_path, "M")
    assert status == 1
    assert not abel.passed and abel.location == x
    assert 1e-6 < abel.residual < 1e-5  # 5.4e-6


def test_abel_M_is_the_accumulators(tmp_path, monkeypatch):
    """The Abel cells take the accumulator's M after each prime to 1e6:
    the exact sum of the w * w, rounded once, which running_fsum forms for
    abel_decompose_scalar too; at each Abel point it is the stored M."""
    cfg = cfg_for(tmp_path, 10**6)
    cmd_compute(cfg)
    stored = read_checkpoint_file(cfg.checkpoint_path(), cfg)
    calls = []
    decompose = report.abel_decompose
    monkeypatch.setattr(report, "abel_decompose", lambda *a: calls.append(a) or decompose(*a))
    records = report.run_checks(report.RunContext(cfg, stored), "report")
    (record,) = [r for r in records if r.check_id == "abel_identity"]
    assert record.passed
    # one call a block: the blocks' rows, sums, primes and M, end to end
    xs, S, M, primes, w, M_primes = (np.concatenate(a) for a in list(zip(*calls))[:6])
    assert len(calls) == 11 and len(xs) == len(stored.checkpoints)
    assert w.tolist() == weights(primes).tolist()  # the block's own, formed once
    squares = (w * w).tolist()
    units = itertools.accumulate(int(math.ldexp(v, 120)) for v in squares)
    exact = [math.ldexp(float(u), -120) for u in units]
    assert len(exact) == 78498
    assert M_primes.tolist() == exact
    assert list(running_fsum(squares)) == exact
    cuts = np.searchsorted(primes, xs, side="right")
    assert M.tolist() == M_primes[cuts - 1].tolist()


def _entry(check_id):
    """The registry id of a record's check id (block_sandwich_lower and
    block_sandwich_upper come from block_sandwich)."""
    (entry,) = [c.check_id for c in report.CHECKS
                if check_id == c.check_id or check_id.startswith(c.check_id + "_")]
    return entry


class TestRegistry:
    @pytest.fixture(scope="class")
    def stored_1e6(self, tmp_path_factory):
        cfg = RunConfig(x_max=10**6, out_dir=tmp_path_factory.mktemp("stored"))
        cmd_compute(cfg)
        return cfg.checkpoint_path()

    def test_report_records_equal_verify_records(self, stored_1e6, tmp_path):
        cfg = RunConfig(x_max=10**6, out_dir=tmp_path, resume_from=stored_1e6)
        records, status = cmd_verify(cfg)
        assert status == 0
        bundle = json.loads(report_on(cfg, stored_1e6).read_text())
        in_report = {r["check_id"] for r in bundle["verification_records"]}
        assert {"e_monotone", "abel_identity", "lower_bound"} <= in_report
        expected = [
            {"check_id": r.check_id, "location": r.location, "lhs": r.lhs,
             "rhs": r.rhs, "residual": r.residual, "tolerance": r.tolerance,
             "pass": r.passed}
            for r in records if r.check_id in in_report
        ]
        assert bundle["verification_records"] == expected

    def test_verify_covers_every_entry_it_runs(self, stored_1e6, tmp_path):
        cfg = RunConfig(x_max=10**6, out_dir=tmp_path, resume_from=stored_1e6)
        records, _ = cmd_verify(cfg)
        in_verify = [c.check_id for c in report.CHECKS if "verify" in c.commands]
        emitted = [_entry(r.check_id) for r in records]
        assert set(emitted) == set(in_verify)
        # and in registry order
        assert sorted(emitted, key=in_verify.index) == emitted
        # every verify and report record carries its entry's tolerance, 0.0
        # for an exact check: the records depend on the stored file alone
        tolerance = {c.check_id: 0.0 if c.tolerance is None else c.tolerance
                     for c in report.CHECKS}
        bundle = json.loads(report_on(cfg, stored_1e6).read_text())
        carried = [(r.check_id, r.tolerance) for r in records] + [
            (r["check_id"], r["tolerance"]) for r in bundle["verification_records"]]
        assert all(tol == tolerance[_entry(check_id)] for check_id, tol in carried)
        by_id = dict(carried)
        assert [by_id[i] for i in ("e_monotone", "ratio_positive", "mertens_contraction")] == [
            0.0, 0.0, 0.0]
        assert by_id["block_sandwich_lower"] == by_id["block_sandwich_upper"] == tolerance[
            "block_sandwich"]

    def test_no_record_lies_past_the_run(self, stored_1e6, tmp_path):
        # the late Mertens window [1e6, 1e8] holds only x = 1e6 here
        cfg = RunConfig(x_max=10**6, out_dir=tmp_path, resume_from=stored_1e6)
        records, _ = cmd_verify(cfg)
        assert max(r.location for r in records) <= 10**6
        assert [r.location for r in records if r.check_id == "mertens_contraction"] == [1e6]

    def test_records_emitted_by_x_max(self, tmp_path):
        """verify emits a record of every check from x_max = 1e6 on.  Below
        it mertens_contraction has no late window, below 800 lower_bound no
        block at A = 8 from 100, and below 200 the sandwiches no block at
        lambda = 2: their records are left out, and the run still passes."""
        every = {"pair_identity", "jump_identity", "e_monotone", "scale_identity",
                 "ratio_positive", "mertens_contraction", "abel_identity", "main_term",
                 "block_sandwich_lower", "block_sandwich_upper", "lower_bound"}
        below_1e6 = {"mertens_contraction"}
        below_800 = below_1e6 | {"lower_bound"}
        below_200 = below_800 | {"block_sandwich_lower", "block_sandwich_upper"}
        for x_max, missing in ((100, below_200), (199, below_200), (200, below_800),
                               (799, below_800), (800, below_1e6), (999999, below_1e6),
                               (10**6, set())):
            records, status = cmd_verify(RunConfig(x_max=x_max, out_dir=tmp_path / str(x_max)))
            assert status == 0, x_max
            assert every - {r.check_id for r in records} == missing, x_max

    def test_registry_ids_and_exact_checks(self):
        ids = [c.check_id for c in report.CHECKS]
        assert len(set(ids)) == len(ids)
        exact = [c.check_id for c in report.CHECKS if c.tolerance is None]
        assert exact == ["e_monotone", "ratio_positive", "mertens_contraction"]


def test_benchmark_accepts_report(tmp_path, monkeypatch):
    """The benchmark's own check of report.json, imported unchanged from
    perfbench/checks.py, passes on a 1e5 report."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from checks import check_report

    cfg = cfg_for(tmp_path, 10**5)
    cmd_compute(cfg)
    check_report(report_on(cfg, cfg.checkpoint_path()))


def test_benchmark_accepts_rows(tmp_path, monkeypatch):
    """The benchmark's own check of checkpoints.csv, imported unchanged from
    perfbench/checks.py, passes on a 1e5 compute and on a resumed run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from checks import Reference, check_rows

    ref = Reference(2 * 10**5)
    cfg = cfg_for(tmp_path, 10**5)
    cmd_compute(cfg)
    check_rows(cfg.csv_path(), ref, 10**5, cfg.grid_ratio)
    first = RunConfig(x_max=10**5, grid_ratio=1.001, out_dir=tmp_path / "first")
    cmd_compute(first)
    resumed = RunConfig(x_max=2 * 10**5, grid_ratio=1.001, out_dir=tmp_path / "resumed",
                        resume_from=first.checkpoint_path())
    cmd_compute(resumed)
    check_rows(resumed.csv_path(), ref, 2 * 10**5, 1.001)


# workload -> (its --x, layers that must read nonzero); resume-dense-1e7
# writes, reads and resumes a checkpoint file through the rebound names
TRACED = {
    "stream-1e8": (10**5, ("accumulate.extend_s", "report.ckpt_write_s",
                           "report.csv_write_s")),
    "checks-1e8": (10**5, ("asymptotics.block_s", "verify.pair_s")),
    "resume-dense-1e7": (10**3, ("report.ckpt_write_s", "report.csv_write_s",
                                 "report.ckpt_read_s", "report.resume_s")),
}


@pytest.mark.parametrize("workload", list(TRACED))
def test_benchmark_trace_runs(tmp_path, workload):
    """perfbench/trace.py finds, by name, every function it times in a
    pass of the workload, every command succeeds, and the layers do work."""
    x, layers = TRACED[workload]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace.py"), "--workload",
         workload, "--x", str(x), "--out", str(tmp_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["failed"] == 0
    for layer in layers:
        assert trace["metrics"][layer]["value"] > 0, layer


class TestCli:
    def test_compute_and_verify_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "cli")
        assert cli_main(["compute", "--x-max", "2000", "--out", out]) == 0
        assert cli_main(["verify", "--x-max", "2000", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    def test_report_command(self, tmp_path):
        out = tmp_path / "cli"
        assert cli_main(["compute", "--x-max", "2000", "--out", str(out)]) == 0
        assert (
            cli_main(
                ["report", "--x-max", "2000", "--out", str(out),
                 str(out / "checkpoints.txt")]
            )
            == 0
        )
        assert (out / "report.json").exists()

    def test_report_refuses_resume(self, tmp_path, capsys):
        """report names its checkpoint file as an argument, and --resume is
        not one of its flags: argparse refuses it (exit 2) before any work."""
        run = tmp_path / "run"
        assert cli_main(["compute", "--x-max", "2000", "--out", str(run)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli_main(["report", "--resume", str(tmp_path / "nonexistent.txt"),
                      "--out", str(out), str(run / "checkpoints.txt")])
        assert exc.value.code == 2
        assert "--resume" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_left_out_take_runconfig_defaults(self, tmp_path, monkeypatch):
        """The CLI passes only the flags given: the rest are RunConfig's
        defaults, and with a checkpoint file the grid is left to its header."""
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise ConfigError("captured")

        for name in ("cmd_compute", "cmd_verify", "cmd_report"):
            monkeypatch.setattr(cli, name, capture)
        ckpt = tmp_path / "checkpoints.txt"
        assert cli_main(["compute", "--x-max", "1000"]) == 2
        assert cli_main(["verify", "--resume", str(ckpt)]) == 2
        assert cli_main(["report", str(ckpt)]) == 2
        assert cli_main(["compute", "--x-max", "1000", "--out", str(tmp_path)]) == 2
        stored = RunConfig(x_max=None, resume_from=ckpt)
        assert seen == [RunConfig(x_max=1000), stored, stored,
                        RunConfig(x_max=1000, out_dir=tmp_path)]

    def test_unknown_flag_is_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["compute", "--x-max", "2000", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_segment_size_is_an_unknown_flag(self, tmp_path, capsys):
        """--segment-size is gone: no output byte depended on it, and no
        size paid.  So are --tol, --A and --lambda: a check's tolerance and
        block ratios are constants of the registry; and --grid-start: every
        grid starts at GRID_START, where the checks begin.  argparse refuses
        each (exit 2) before any work, and no --out directory is made."""
        out = tmp_path / "never"
        for flag in (["--segment-size", "2048"], ["--tol", "jump_identity=1"],
                     ["--A", "3"], ["--lambda", "5"], ["--grid-start", "100"]):
            for command in (["compute"], ["verify"]):
                with pytest.raises(SystemExit) as exc:
                    cli_main([*command, "--x-max", "2000", *flag, "--out", str(out)])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert f"unrecognized arguments: {' '.join(flag)}" in err
            assert not out.exists()

    def test_cap_refused_with_projected_time(self, tmp_path, capsys):
        """An x_max past the cap exits 2, names the run's projected time, and
        makes no --out directory."""
        out = tmp_path / "never"
        for command in ("compute", "verify"):
            assert cli_main([command, "--x-max", "100000000000000", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "x_max must be <= 10,000,000,000,000" in err
            assert "projects to about 179 h at 200 ns a prime" in err
        assert not out.exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        assert cli_main(
            ["compute", "--x-max", "2000", "--grid-ratio", "0.5",
             "--out", str(tmp_path)]
        ) == 2
        out = str(tmp_path / "never")
        for flags in (["--x-max", str(10**13 + 1)], ["--x-max", str(2**53 + 1)],
                      ["--x-max", "1" + "0" * 400], ["--x-max", "2000", "--threads", "9"]):
            assert cli_main(["compute", *flags, "--out", out]) == 2
        for flags in (["--grid-ratio", "nan"], ["--grid-ratio", "1.0000001"]):
            assert cli_main(["verify", "--x-max", "100000", *flags, "--out", out]) == 2
        assert not (tmp_path / "never").exists()

    def test_corrupted_resume_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        code = cli_main(
            ["compute", "--x-max", "2000", "--out", str(tmp_path), "--resume", str(bad)]
        )
        assert code == 1
