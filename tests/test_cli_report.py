import json
import math

import pytest
from jsonschema import validate

import primesums.report as report
from oracles import abel_records_scalar, jump_record_scalar, pair_records_scalar
from primesums import CheckpointFormatError, ConfigError, RunConfig, resume
from primesums.cli import main as cli_main
from primesums.report import (
    cmd_compute,
    cmd_report,
    cmd_verify,
    read_checkpoint_file,
    write_checkpoint_file,
)

# independent statement of the documented bundle schema (see README)
BUNDLE_SCHEMA = {
    "type": "object",
    "required": [
        "format_version",
        "config",
        "metadata",
        "checkpoints",
        "verification_records",
        "ratio_bands",
        "block_stats",
        "abel_decompositions",
    ],
    "properties": {
        "format_version": {"const": 1},
        "config": {
            "type": "object",
            "required": ["x_max", "grid_start", "grid_ratio", "config_hash"],
        },
        "metadata": {
            "type": "object",
            "required": ["library_version", "prime_count", "last_prime"],
        },
        "checkpoints": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["x", "pi", "S", "M", "E", "r_S", "r_E_pi", "r_E_x",
                             "mertens_remainder"],
            },
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
        assert len(result.checkpoints) == 1
        assert result.checkpoints[0].x == 100.0
        assert result.checkpoints[0].pi == 25

    def test_final_row_matches_oracle_at_1e6(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**6)
        result = cmd_compute(cfg)
        last = result.checkpoints[-1]
        assert last.pi == 78498
        assert last.S == pytest.approx(586.82519310647922, rel=1e-10)
        assert last.M == pytest.approx(12.483585396239194, rel=1e-10)

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
        cfg = cfg_for(tmp_path, 10**4)
        result = cmd_compute(cfg)
        stored = read_checkpoint_file(cfg.checkpoint_path())
        for field in STATE_FIELDS:
            assert getattr(stored.state, field) == getattr(result.state, field)
        assert stored.checkpoints == result.checkpoints
        assert stored.an_sn_samples == result.an_sn_samples

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
        relabelled.write_text(
            "\n".join(["primesums-checkpoints v2", *v1_rows]) + "\n"
        )
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
        assert result.checkpoints[-1].pi == 1229

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
        xs = {cp["x"] for cp in bundle["checkpoints"]}
        for stat in bundle["block_stats"]:
            assert stat["x"] in xs and stat["x_lower"] in xs
        for dec in bundle["abel_decompositions"]:
            assert dec["x"] in xs
        for rec in bundle["verification_records"]:
            assert rec["pass"] is True

    def test_series_csvs(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        result = cmd_compute(cfg)
        cmd_report(cfg, cfg.checkpoint_path())
        for name in ("S", "M", "E", "r_S", "r_E_pi", "r_E_x", "mertens_remainder"):
            lines = (cfg.out_dir / f"series_{name}.csv").read_text().splitlines()
            assert lines[0] == "x,value"
            assert len(lines) == len(result.checkpoints) + 1
        an_lines = (cfg.out_dir / "series_anS.csv").read_text().splitlines()
        assert an_lines[0] == "n,value"

    def test_empty_file_is_format_error(self, tmp_path):
        cfg = cfg_for(tmp_path, 10**4)
        bad = tmp_path / "empty.txt"
        bad.write_text("")
        with pytest.raises(CheckpointFormatError):
            cmd_report(cfg, bad)


def _outputs(out_dir):
    """verification.csv, report.json without its wall time, and the series
    CSVs of one output directory."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("series_*.csv"))}
    files["verification.csv"] = (out_dir / "verification.csv").read_bytes()
    bundle = json.loads((out_dir / "report.json").read_text())
    del bundle["metadata"]["report_wall_time_s"]
    files["report.json"] = json.dumps(bundle, sort_keys=True).encode()
    return files


def test_outputs_equal_scalar_references(tmp_path, monkeypatch):
    """verify and report on a stored 1e6 run write the same bytes as the
    scalar pair, jump and Abel references do in the same process."""
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
    assert verify_and_report("scalar") == vectorized
    # the registry looks the checks up when it runs them, so the swaps took
    # effect: pair and jump once in verify, Abel in verify and in report
    assert calls == {"pair": 1, "jump": 1, "abel": 2}


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

    def test_tol_accepts_exactly_the_registry_ids(self, tmp_path):
        ids = [c.check_id for c in report.CHECKS]
        assert len(set(ids)) == len(ids)
        assert list(report.DEFAULT_TOLERANCES) == ids
        out = str(tmp_path / "out")
        for check_id in ids:
            assert cli_main(["compute", "--x-max", "100", "--tol",
                             f"{check_id}=0.5", "--out", out]) == 0
        for check_id in ("block_sandwich_lower", "no_such_check", ""):
            assert cli_main(["compute", "--x-max", "100", "--tol",
                             f"{check_id}=0.5", "--out", out]) == 2


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
