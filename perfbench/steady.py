"""Steadiness of the benchmark: many runs per workload, spread over time.

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --runs 5 --workloads stream-1e8
    python3 perfbench/steady.py --compare A.json B.json

Runs ``run.py`` once per (run, workload), cycling through the workloads so
that each workload's runs are spread over the whole set, with seed
``--seed0 + run``.  Prints, for each end-to-end metric, the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound,
and each run's calibration-loop times.  Saves the runs as JSON;
``--compare`` reads two such files and prints how far the second set's
medians moved from the first's, against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import OUT, ROOT
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def one_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def summarize(runs: list[dict]) -> None:
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n{workload}: {len(mine)} runs")
        for r in mine:
            values = "  ".join(f"{k} {v['value']:.4f}" for k, v in r["metrics"].items())
            cal = "/".join(f"{c:.0f}" for c in r["calibration_ms"])
            print(f"  seed {r['seed']:>4}  {values}  calibration_ms {cal}")
        if len(mine) < 2:
            continue
        for name, bound in BOUNDS.items():
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in mine])
            flag = "ok" if s <= bound / 3 else ("WITHIN BOUND" if s <= bound else "TOO WIDE")
            print(
                f"  {name:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                f"spread {s:6.3f}  bound {bound:.2f}  {flag}"
            )


def compare(first: list[dict], second: list[dict]) -> None:
    """How far each median of the second set moved from the first's."""
    for workload in dict.fromkeys(r["workload"] for r in first):
        for name, bound in BOUNDS.items():
            a, b = (
                statistics.median(r["metrics"][name]["value"] for r in runs if r["workload"] == workload)
                for runs in (first, second)
            )
            change = (b - a) / a
            verdict = "ok" if change <= bound else "WORSE THAN BOUND"
            print(f"{workload:<18} {name:<12} {a:10.4f} -> {b:10.4f}  {change:+7.3f}  bound {bound:.2f}  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--compare", nargs=2, type=Path, metavar="RUNS.json")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        compare(first, second)
        return 0

    save = OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    save.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for i in range(args.runs):
        for workload in args.workloads.split(","):
            runs.append(one_run(workload, args.seed0 + i))
            r = runs[-1]
            print(f"run {i + 1}/{args.runs} {workload} seed {r['seed']}: "
                  f"wall_s {r['metrics']['wall_s']['value']:.3f}", flush=True)
            save.write_text(json.dumps(runs, indent=1) + "\n")
    summarize(runs)
    print(f"\nruns saved to {save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
