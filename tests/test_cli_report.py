import base64
import json
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import validate

import primesums.report as report
from oracles import (
    abel_records_scalar,
    an_sn_band_scalar,
    assert_same_table,
    block_sandwich_scalar,
    check_E_monotone_scalar,
    empirical_constants_scalar,
    jump_record_scalar,
    lower_bound_scalar,
    pair_records_scalar,
    ratio_positivity_scalar,
    sandwich_records_scalar,
    scale_identity_scalar,
    table_lines_scalar,
)
from primesums.accumulate import Checkpoint, grid_points, run_stream
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
            "required": ["x_max", "grid_start", "grid_ratio", "config_hash"],
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


STATE_FIELDS = ("n", "last_prime", "S", "M", "E_incremental", "last_weight",
                "last_anS", "weights_decreasing")


def cfg_for(tmp_path, x_max, **kw):
    return RunConfig(x_max=x_max, out_dir=tmp_path / "out", **kw)


# the documented record of the checkpoint table (formats 4 to 6), stated
# independently of report._ROW
RECORD = np.dtype([("x", "<f8"), ("pi", "<i8"), ("S", "<f8"), ("M", "<f8")])
HEADER_KEYS = ["anS", "config_hash", "created", "csv", "grid_ratio", "grid_start", "rows",
               "segment_size", "state", "x_max"]


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


def older_head(cfg, version):
    """The text lines up to the table of cfg's checkpoint file as formats 2
    to 5 wrote them: the header lines, the state row (SumState.__slots__
    in order, sums and counts as integers, the flag as 0/1, reals with 17
    digits) and the anS lines.  Only format 5 has the csv line."""
    header = read_v6(cfg.checkpoint_path())[0]
    state = (header["state"][name] for name in STATE_FIELDS)
    return [
        f"primesums-checkpoints v{version}",
        f"config_hash {header['config_hash']}",
        f"created {header['created']}",
        f"x_max {header['x_max']}",
        f"grid_start {header['grid_start']:.17g}",
        f"grid_ratio {header['grid_ratio']:.17g}",
        f"segment_size {header['segment_size']}",
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
            cfg_for(tmp_path, 50)  # below default grid_start
        with pytest.raises(ConfigError):
            cfg_for(tmp_path, 1000, grid_ratio=0.9)
        with pytest.raises(ConfigError):
            cfg_for(tmp_path, 1000, A=1.0)
        with pytest.raises(ConfigError):
            cfg_for(tmp_path, 1000, lambdas=(2.0, 1.0))
        with pytest.raises(ConfigError):
            cfg_for(tmp_path, 1000, tolerances={"no_such_check": 1.0})
        # NaN passes every comparison with a bound, and inf is no usable ratio
        for kw in ({"A": math.nan}, {"A": math.inf}, {"lambdas": (2.0, math.nan)},
                   {"grid_ratio": math.nan}, {"grid_ratio": math.inf},
                   {"grid_start": math.nan}, {"tolerances": {"lower_bound": math.nan}},
                   {"tolerances": {"lower_bound": math.inf}},
                   {"tolerances": {"lower_bound": -1.0}}):
            with pytest.raises(ConfigError):
                cfg_for(tmp_path, 1000, **kw)
        cfg_for(tmp_path, 1000, tolerances={"lower_bound": 0.0})
        # main_term's quadrature runs at a tenth of its tolerance, floor 1e-12
        for value in (0.0, 5e-12):
            with pytest.raises(ConfigError, match="main_term"):
                cfg_for(tmp_path, 1000, tolerances={"main_term": value})
        cfg_for(tmp_path, 1000, tolerances={"main_term": 1e-11})
        # more than 1e7 grid points, counted before any is built
        with pytest.raises(ConfigError, match="1e7 points"):
            cfg_for(tmp_path, 1000, grid_ratio=1.0000001)
        cfg_for(tmp_path, 1000, grid_ratio=1.000001)  # 2.3e6 points

    def test_limits_refused_before_any_work(self, tmp_path):
        from primesums.sieve import MAX_LIMIT, MAX_SEGMENT_SIZE

        # the caps themselves are accepted
        cfg_for(tmp_path, MAX_LIMIT, segment_size=MAX_SEGMENT_SIZE)
        for kw in (
            {"x_max": MAX_LIMIT + 1},
            {"x_max": 10**4, "segment_size": MAX_SEGMENT_SIZE + 1},
        ):
            with pytest.raises(ConfigError):
                RunConfig(out_dir=tmp_path / "never", **kw)
        assert not (tmp_path / "never").exists()

    def test_hash_covers_grid_not_xmax(self, tmp_path):
        a = cfg_for(tmp_path, 10**4)
        b = cfg_for(tmp_path, 10**6)
        c = cfg_for(tmp_path, 10**4, grid_ratio=1.5)
        d = cfg_for(tmp_path, 10**4, segment_size=2048)
        assert a.config_hash() == b.config_hash() == d.config_hash()
        assert a.config_hash() != c.config_hash()


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
        assert result.checkpoints.x.tolist() == [100.0]
        assert result.checkpoints.pi.tolist() == [25]

    def test_final_row_matches_oracle_at_1e6(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**6)
        last = cmd_compute(cfg).checkpoints
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
        beside the file; the records hold x, pi, S and M, bit for bit.  The
        reader derives the rest, equal by repr to compute's table, and the
        final-n sample from the state."""
        cfg = cfg_for(tmp_path, 10**4)
        result = cmd_compute(cfg)
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
        assert (header["x_max"], header["grid_start"], header["grid_ratio"], header["rows"],
                header["segment_size"]) == (10**4, 100.0, 2**0.25, 28, cfg.segment_size)
        assert header["config_hash"] == cfg.config_hash()
        assert sorted(header["state"]) == sorted(STATE_FIELDS)
        for field in STATE_FIELDS:
            value = header["state"][field]
            assert value == getattr(result.state, field)
            assert type(value) is type(getattr(result.state, field)), field
        for field in ("n", "S", "M", "E_incremental"):
            assert type(header["state"][field]) is int, field
        assert header["state"]["S"] > 2**53  # held exactly, in units of 2**-120
        table = result.checkpoints
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
            "flag_int": {**header, "state": {**state, "weights_decreasing": 1}},
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
                     ["report", "--out", str(out), str(paths["flag_int"])],
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
        # an int grid start given to RunConfig is written as the float it stands for
        ints = RunConfig(x_max=10**4, grid_start=100, out_dir=tmp_path / "ints")
        cmd_compute(ints)
        assert read_v6(ints.checkpoint_path())[0]["grid_start"] == 100.0
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
        result = cmd_compute(cfg)
        assert len(result.checkpoints) > report._CHUNK
        path = cfg.checkpoint_path()
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
    """In chunks of _CHUNK rows (the last one shorter), each line ended by a
    newline, report._table_chunks gives the CSV bytes of the per-value
    codec, and report._row_records gives lines of the base64 of as many
    records, which hold the x, pi, S and M columns bit for bit."""
    sizes = [min(report._CHUNK, len(table) - i) for i in range(0, len(table), report._CHUNK)]
    chunks = list(report._table_chunks(table))
    assert [c.count(b"\n") for c in chunks] == sizes
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
    assert [len(c) for c in chunks] == sizes
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
        table = Checkpoint(*(np.array(c, dtype=np.int64 if f == "pi" else np.float64)
                             for f, c in zip(report.CSV_COLUMNS, cols)))
        assert_codec_matches(table)


def _count_formatted(monkeypatch) -> list[int]:
    """Wrap report._table_chunks to count the rows it formats: one entry
    per call, that is per CSV written."""
    counts = []
    table_chunks = report._table_chunks

    def counted(table):
        counts.append(len(table))
        return table_chunks(table)

    monkeypatch.setattr(report, "_table_chunks", counted)
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
            # report, in place, leaves the CSV its digest vouches for alone
            before = (csv.stat().st_ino, csv.stat().st_mtime_ns)
            assert cli_main(["report", "--out", str(first.out_dir),
                             str(first.checkpoint_path())]) == 0
            assert (csv.stat().st_ino, csv.stat().st_mtime_ns) == before
            assert csv.read_bytes() == text and formatted == []
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
        k = len(resume(first.checkpoint_path(), resumed)[0].checkpoints)
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
        vouches for, formats no row and leaves both files alone."""
        first = RunConfig(x_max=10**5, grid_ratio=1.001, out_dir=tmp_path)
        cmd_compute(first)
        formatted = _count_formatted(monkeypatch)
        files = (first.csv_path(), first.checkpoint_path())
        seen = []  # (inode, mtime) of both files after each resume
        for _ in range(2):
            cmd_compute(RunConfig(x_max=2 * 10**5, grid_ratio=1.001, out_dir=tmp_path,
                                  resume_from=first.checkpoint_path()))
            assert first.csv_path().read_bytes() == unsplit
            seen.append([(f.stat().st_ino, f.stat().st_mtime_ns) for f in files])
        assert seen[1] == seen[0]
        assert len(formatted) == 1 and 0 < formatted[0] < len(first.grid())
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
            cmd_report(cfg, cfg.checkpoint_path())
        for name in ("checkpoints.csv", "series_anS.csv"):
            assert ((unsplit.out_dir / name).read_bytes()
                    == (resumed.out_dir / name).read_bytes()), name
        facts_a, facts_b = (stored_facts(cfg.checkpoint_path()) for cfg in (unsplit, resumed))
        assert facts_a == facts_b
        assert facts_a[0]["rows"] == 41

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

    def test_completed_run_is_noop(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        before = cfg.checkpoint_path().read_bytes()
        again = RunConfig(
            x_max=10**4,
            out_dir=tmp_path / "out",
            resume_from=cfg.checkpoint_path(),
        )
        result = cmd_compute(again)
        assert cfg.checkpoint_path().read_bytes() == before
        assert result.checkpoints.pi[-1] == 1229

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

    def test_tolerance_override_can_force_failure(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**3)
        cfg.tolerances["jump_identity"] = 0.0  # nothing beats an exact zero at scale
        records, status = cmd_verify(cfg)
        assert status == 1
        failing = [r for r in records if not r.passed]
        assert {r.check_id for r in failing} == {"jump_identity"}


class TestReport:
    def test_bundle_schema(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        bundle_path = cmd_report(cfg, cfg.checkpoint_path())
        bundle = json.loads(bundle_path.read_text())
        validate(bundle, BUNDLE_SCHEMA)

    def test_bundle_internally_consistent(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        cmd_compute(cfg)
        bundle = json.loads(cmd_report(cfg, cfg.checkpoint_path()).read_text())
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
        cmd_report(out, cfg.checkpoint_path())
        assert sorted(p.name for p in out.out_dir.iterdir()) == [
            "checkpoints.csv", "report.json", "series_anS.csv"]
        assert out.csv_path().read_bytes() == cfg.csv_path().read_bytes()
        # the per-value bytes of each sample, the first, (1, 0.0), included
        assert (out.out_dir / "series_anS.csv").read_bytes() == b"n,value\n" + b"".join(
            b"%d,%.17g\n" % sample for sample in result.an_sn_samples)
        assert result.an_sn_samples[0] == (1, 0.0)

    def test_empty_file_is_format_error(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        bad = tmp_path / "empty.txt"
        bad.write_text("")
        with pytest.raises(CheckpointFormatError):
            cmd_report(cfg, bad)


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

    def test_other_grid_refused_by_hash(self, stored_1e6, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (["report", "--grid-ratio", "1.5", "--out", str(out), stored_1e6],
                     ["verify", "--grid-ratio", "1.5", "--resume", stored_1e6, "--out", str(out)],
                     ["compute", "--x-max", "2000000", "--grid-start", "50",
                      "--resume", stored_1e6, "--out", str(out)]):
            capsys.readouterr()
            assert cli_main(argv) == 1, argv
            assert "config hash" in capsys.readouterr().err
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
        resumed to target keeps the rows np.isin picks, and leaves the same
        points to compute."""
        first = RunConfig(x_max=10**4, grid_ratio=2.0, out_dir=tmp_path)
        cmd_compute(first)
        cfg = RunConfig(x_max=target, grid_ratio=2.0, out_dir=tmp_path / "next")
        kept, remaining = resume(first.checkpoint_path(), cfg)
        stored = read_checkpoint_file(first.checkpoint_path()).checkpoints
        grid = np.asarray(cfg.grid())
        isin = stored.select(np.isin(stored.x, grid))
        assert_same_table(kept.checkpoints, isin)
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
        cmd_report(cfg, stored.checkpoint_path())
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
    monkeypatch.setattr(report, "_abel_records", counted("abel", abel_records_scalar))
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
    # the registry looks the checks up when it runs them, so the swaps took
    # effect: pair and jump once in verify, the checks in verify and in
    # report, the bands in report
    assert calls == {"pair": 1, "jump": 1, "abel": 2, "blocks": 2, "sandwich": 2,
                     "lower": 2, "scale": 2, "e": 2, "positive": 2, "bands": 1,
                     "anS": 1}


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
        bundle = json.loads(cmd_report(cfg, stored_1e6).read_text())
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

    def test_no_record_lies_past_the_run(self, stored_1e6, tmp_path):
        # the late Mertens window [1e6, 1e8] holds only x = 1e6 here
        cfg = RunConfig(x_max=10**6, out_dir=tmp_path, resume_from=stored_1e6)
        records, _ = cmd_verify(cfg)
        assert max(r.location for r in records) <= 10**6
        assert [r.location for r in records if r.check_id == "mertens_contraction"] == [1e6]

    def test_tol_accepts_exactly_the_registry_ids(self, tmp_path, capsys):
        ids = [c.check_id for c in report.CHECKS]
        assert len(set(ids)) == len(ids)
        exact = ["e_monotone", "ratio_positive", "mertens_contraction"]
        assert list(report.EXACT_CHECKS) == exact
        assert list(report.DEFAULT_TOLERANCES) == [i for i in ids if i not in exact]
        assert len(report.DEFAULT_TOLERANCES) == 7
        out = str(tmp_path / "out")
        for check_id in report.DEFAULT_TOLERANCES:
            assert cli_main(["compute", "--x-max", "100", "--tol",
                             f"{check_id}=0.5", "--out", out]) == 0
        with pytest.raises(SystemExit):
            cli_main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert ", ".join(sorted(report.DEFAULT_TOLERANCES)) in help_text
        assert not any(check_id in help_text for check_id in exact)
        for check_id in (*exact, "block_sandwich_lower", "no_such_check", ""):
            capsys.readouterr()
            assert cli_main(["compute", "--x-max", "100", "--tol",
                             f"{check_id}=0.5", "--out", out]) == 2
            assert f"'{check_id}'" in capsys.readouterr().err


def test_benchmark_accepts_report(tmp_path, monkeypatch):
    """The benchmark's own check of report.json, imported unchanged from
    perfbench/checks.py, passes on a 1e5 report."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from checks import check_report

    cfg = cfg_for(tmp_path, 10**5)
    cmd_compute(cfg)
    check_report(cmd_report(cfg, cfg.checkpoint_path()))


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

    def test_unknown_flag_is_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["compute", "--x-max", "2000", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_bad_config_exit_2(self, tmp_path, capsys):
        assert cli_main(
            ["compute", "--x-max", "2000", "--grid-ratio", "0.5",
             "--out", str(tmp_path)]
        ) == 2
        out = str(tmp_path / "never")
        for flags in (["--x-max", str(2**53 + 1)],
                      ["--x-max", "2000", "--segment-size", str(2**24 + 1)],
                      ["--x-max", "2000", "--threads", "9"]):
            assert cli_main(["compute", *flags, "--out", out]) == 2
        for flags in (["--A", "nan"], ["--A", "inf"], ["--lambda", "nan"],
                      ["--grid-ratio", "nan"], ["--grid-ratio", "1.0000001"],
                      ["--tol", "lower_bound=nan"],
                      ["--tol", "lower_bound=-1"], ["--tol", "main_term=0"],
                      ["--tol", "main_term=5e-12"]):
            assert cli_main(["verify", "--x-max", "100000", *flags, "--out", out]) == 2
        assert not (tmp_path / "never").exists()

    def test_corrupted_resume_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        code = cli_main(
            ["compute", "--x-max", "2000", "--grid-start", "3",
             "--out", str(tmp_path), "--resume", str(bad)]
        )
        assert code == 1

    def test_lambda_and_tol_flags(self, tmp_path):
        out = str(tmp_path / "cli")
        code = cli_main(
            ["verify", "--x-max", "2000", "--out", out,
             "--lambda", "2", "--lambda", "3",
             "--tol", "jump_identity=1e-6", "--threads", "2"]
        )
        assert code == 0

    def test_malformed_tol_exit_2(self, tmp_path):
        code = cli_main(
            ["verify", "--x-max", "2000", "--out", str(tmp_path),
             "--tol", "jump_identity"]
        )
        assert code == 2
