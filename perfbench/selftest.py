"""Fast self-test of the benchmark, in well under a minute.

    python3 perfbench/selftest.py

Runs every workload and its traced pass at a small x, checks that each
reports the metrics BENCHMARK.json declares with no failed command, then
corrupts outputs (one altered S digit, a dropped CSV row, a failing
verification record, a block outside its sandwich) and requires the checks
to reject each.  Last, it runs the benchmark on a CLI that exits nonzero,
where the run must be reported incorrect, and in a directory that holds
only BENCHMARK.json and perfbench/, where it must fail without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import (
    CheckFailed,
    Reference,
    check_report,
    check_rows,
    check_same_bytes,
    check_verification,
)
from workloads import DEFAULT_RATIO

SMALL_X = {"stream-1e8": 10**6, "checks-1e8": 10**6, "resume-dense-1e7": 10**5}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect_failure(label: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed as exc:
        print(f"ok   {label}: rejected ({exc})")
        return
    raise SystemExit(f"FAIL {label}: corrupted output passed the checks")


def rewrite(src: Path, dst: Path, edit) -> Path:
    dst.write_text(edit(src.read_text()))
    return dst


def alter_s_digit(text: str) -> str:
    """Change the 12th significant digit of the last S: the 17th alone may
    parse back to the same double."""
    lines = text.splitlines(keepends=True)
    fields = lines[-1].split(",")
    s = fields[2]
    i = len(s) - 6
    fields[2] = s[:i] + ("1" if s[i] != "1" else "2") + s[i + 1 :]
    lines[-1] = ",".join(fields)
    return "".join(lines)


def drop_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:5] + lines[6:])


def bare_tree(root: Path) -> Path:
    """A directory that holds only BENCHMARK.json and perfbench/."""
    shutil.copytree(run.ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    return root


def run_benchmark(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-1e8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    work = run.OUT / f"selftest-{os.getpid()}"
    try:
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        for name, x in SMALL_X.items():
            bench = run.Bench(work / name, seconds=0)
            bench.work.mkdir(parents=True)
            metrics = run.run_workload(name, x, bench)
            assert set(metrics) == end_to_end, metrics
            assert bench.failed == 0 and bench.attempted >= run.MIN_ROUNDS
            print(f"ok   {name} at x = {x}: {metrics}")

        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for name, x in SMALL_X.items():
            bench = run.Bench(work / f"trace-{name}", seconds=0)
            bench.work.mkdir(parents=True)
            layers = run.run_traced(name, x, bench)
            assert set(layers) == per_layer, sorted(layers)
            assert bench.failed == 0 and bench.attempted in (1, 2, 3), bench.attempted
            print(f"ok   {name} traced at x = {x}: {len(layers)} layer metrics")

        ref = Reference(10**6)
        good = work / "stream-1e8" / "stream" / "checkpoints.csv"
        check_rows(good, ref, 10**6, DEFAULT_RATIO)
        expect_failure(
            "one S digit altered",
            check_rows, rewrite(good, work / "digit.csv", alter_s_digit), ref, 10**6,
            DEFAULT_RATIO,
        )
        dropped = rewrite(good, work / "dropped.csv", drop_row)
        expect_failure("CSV row dropped", check_rows, dropped, ref, 10**6, DEFAULT_RATIO)
        expect_failure("resumed CSV differs from unsplit", check_same_bytes, good, dropped)

        checks_out = work / "checks-1e8" / "checks"
        expect_failure(
            "verification record failing",
            check_verification,
            rewrite(
                checks_out / "verification.csv",
                work / "verification.csv",
                lambda t: t.replace(",1\n", ",0\n", 1),
            ),
        )
        bundle = json.loads((checks_out / "report.json").read_text())
        stat = bundle["block_stats"][0]
        stat["delta_S"] = stat["upper"] * 1.5
        (work / "report.json").write_text(json.dumps(bundle))
        expect_failure("block outside its sandwich", check_report, work / "report.json")

        broken = bare_tree(work / "broken")
        cli = broken / "src" / "primesums" / "cli.py"
        cli.parent.mkdir(parents=True)
        (cli.parent / "__init__.py").write_text("")
        cli.write_text('import sys\nif __name__ == "__main__":\n    sys.exit(1)\n')
        proc = run_benchmark(broken)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert proc.returncode == 1 and not result["correct"], (proc.returncode, result)
        assert result["failed"] == result["attempted"] == 1, result
        print(f"ok   a timed command exits 1: exit {proc.returncode}, {result}")

        proc = run_benchmark(bare_tree(work / "bare"))
        assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
        print(f"ok   without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
