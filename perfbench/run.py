#!/usr/bin/env python3
"""Benchmark of the primesums command line.

    python3 perfbench/run.py --workload stream-1e8 --seed 0 --seconds 25 --trace 0

Run from the root of a source tree.  Each timed command runs the CLI from
``src/`` in a fresh interpreter, single-threaded.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of one traced pass over the
workload's commands).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import (
    CheckFailed,
    Reference,
    check_report,
    check_rows,
    check_same_bytes,
    check_verification,
)
from workloads import DEFAULT_RATIO, DENSE_RATIO, WORKLOADS, commands, seeded_x

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
SETUP_IMPORTS = 9
SETUP_COMPUTES = 3
CALIBRATION_LOOP = 1_000_000
# `python3 -m primesums.cli ARGS` that writes its own peak RSS (VmHWM, in kB)
# to the file named by its first argument as it exits.  The rusage that
# wait4 returns cannot serve: Linux carries the parent's high-water mark
# into a forked child across exec.
CLI_WITH_PEAK_RSS = """
import atexit, runpy, sys
def _peak(path=sys.argv.pop(1)):
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kb)
atexit.register(_peak)
runpy.run_module("primesums.cli", run_name="__main__", alter_sys=True)
"""


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: tells a slow host phase from a slow program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i
    return (time.perf_counter() - t0) * 1e3


class Bench:
    """Runs CLI commands in fresh interpreters and keeps their costs."""

    def __init__(self, work: Path, seconds: float) -> None:
        self.work = work
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []
        self.rounds: list[tuple[float, float]] = []  # (wall_s, peak_rss_mb)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def python(self, *args: str) -> tuple[float, int]:
        """(wall seconds, exit code) of one fresh interpreter."""
        log = self.work / "last_command.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            code = subprocess.call([sys.executable, *args], env=self.env, stdout=fh, stderr=fh)
            wall = time.perf_counter() - t0
        if code != 0:
            sys.stderr.write(log.read_text()[-2000:])
        return wall, code

    def cli(self, args: list[str]) -> tuple[float, float]:
        """One timed CLI command: (wall seconds, peak RSS in MB).

        A nonzero exit counts as a failed operation and fails the run.
        """
        peak = self.work / "peak_rss_kb"
        wall, code = self.python("-c", CLI_WITH_PEAK_RSS, str(peak), *args, "--threads", "1")
        self.attempted += 1
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"exit {code} from primesums {' '.join(args)}")
        return wall, int(peak.read_text()) / 1024.0

    def set_up(self, commands: list[list[str]]) -> None:
        """The untimed program work, repeated: the workload's set-up commands
        SETUP_COMPUTES times, or with none a fresh-interpreter import
        SETUP_IMPORTS times."""
        steps = [["-m", "primesums.cli", *args, "--threads", "1"] for args in commands]
        self.python("-c", "import primesums.cli")  # writes the bytecode cache
        for _ in range(SETUP_COMPUTES if steps else SETUP_IMPORTS):
            total = 0.0
            for step in steps or [["-c", "import primesums.cli"]]:
                wall, code = self.python(*step)
                if code != 0:
                    raise CheckFailed(f"set-up failed: python3 {' '.join(step)}")
                total += wall
            self.setup.append(total)

    def measure(self, commands: list[list[str]], check) -> None:
        """Whole rounds of the CLI commands until --seconds have passed, and
        at least MIN_ROUNDS; a round's wall time is the sum over its commands.

        After each round, untimed, the outputs are checked and flushed to
        disk, so that one round's writeback does not land in the next
        round's time.
        """
        t0 = time.perf_counter()
        while len(self.rounds) < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            costs = [self.cli(args) for args in commands]
            self.rounds.append((sum(w for w, _ in costs), max(r for _, r in costs)))
            check()
            for f in self.work.rglob("*"):
                if f.is_file():
                    fd = os.open(f, os.O_RDONLY)
                    os.fsync(fd)
                    os.close(fd)


def check_outputs(name: str, x: int, work: Path, ref: Reference) -> None:
    """The outputs that the workload's commands left under work."""
    if name == "stream-1e8":
        check_rows(work / "stream" / "checkpoints.csv", ref, x, DEFAULT_RATIO)
    elif name == "checks-1e8":
        check_rows(work / "stored" / "checkpoints.csv", ref, x, DEFAULT_RATIO)
        check_verification(work / "checks" / "verification.csv")
        check_report(work / "checks" / "report.json")
    else:
        check_rows(work / "first" / "checkpoints.csv", ref, x, float(DENSE_RATIO))
        check_rows(work / "resumed" / "checkpoints.csv", ref, 2 * x, float(DENSE_RATIO))


def check_unsplit(bench: Bench, work: Path, x: int) -> None:
    """Untimed, resume-dense-1e7 only: the resumed rows must equal an
    uninterrupted run's byte for byte."""
    unsplit = bench.work / "unsplit"
    _, code = bench.python(
        "-m", "primesums.cli", "compute", "--x-max", str(2 * x), "--grid-ratio", DENSE_RATIO,
        "--out", str(unsplit), "--threads", "1",
    )
    if code != 0:
        raise CheckFailed("unsplit compute failed")
    check_same_bytes(work / "resumed" / "checkpoints.csv", unsplit / "checkpoints.csv")


def run_workload(name: str, x: int, bench: Bench) -> dict:
    """Run one workload at x; returns the end-to-end metrics."""
    setup, timed = commands(name, x, bench.work)
    bench.set_up(setup)
    ref = Reference(WORKLOADS[name][1] * x)
    bench.measure(timed, lambda: check_outputs(name, x, bench.work, ref))
    if name == "resume-dense-1e7":
        check_unsplit(bench, bench.work, x)
    return {
        "wall_s": {"value": statistics.median(w for w, _ in bench.rounds), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r for _, r in bench.rounds),
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(bench.setup), "unit": "s"},
    }


def run_traced(name: str, x: int, bench: Bench) -> dict:
    """One traced in-process pass over the workload's commands; returns the
    per-layer metrics."""
    tree = bench.work / "trace"
    _, code = bench.python(
        str(Path(__file__).with_name("trace.py")),
        "--workload", name, "--x", str(x), "--out", str(tree),
    )
    if code != 0:
        bench.attempted += 1
        bench.failed += 1
        raise CheckFailed("traced pass failed")
    result = json.loads((tree / "trace.json").read_text())
    bench.attempted += result["commands"]
    bench.failed += result["failed"]
    if result["failed"]:
        raise CheckFailed(f"{result['failed']} traced commands failed")
    shutil.copy(tree / "trace.json", OUT / f"trace-{name}.json")
    print(
        f"traced pass: {result['total_s']:.3f} s in total, "
        f"spans cover {result['span_sum_s']:.3f} s; spans in {OUT / f'trace-{name}.json'}"
    )
    check_outputs(name, x, tree, Reference(WORKLOADS[name][1] * x))
    if name == "resume-dense-1e7":
        check_unsplit(bench, tree, x)
    return result["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primesums" / "cli.py").is_file():
        print(f"error: no primesums sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(work, args.seconds)
    calibration = [calibration_ms()]
    try:
        x = seeded_x(WORKLOADS[args.workload][0], args.seed)
        metrics = (run_traced if args.trace else run_workload)(args.workload, x, bench)
        correct = True
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        metrics, correct = {}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration.append(calibration_ms())
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": [[round(w, 6), round(r, 3)] for w, r in bench.rounds],
                "setup": [round(s, 6) for s in bench.setup],
                "calibration_ms": [round(c, 3) for c in calibration],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
