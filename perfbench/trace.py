"""One traced in-process pass over the commands of one workload.

    PYTHONPATH=src python3 perfbench/trace.py --workload stream-1e8 --x 100000000 --out DIR

Spans (name, start, end, parent) are recorded from this file only: around
direct calls into the sieve and accumulator over the range the workload
sieves, and around the public functions the workload's CLI commands call,
by rebinding those module attributes for the length of the pass.  Nothing inside the package is changed.  Writes
DIR/trace.json with the per-layer metrics, the span tree (calls, total and
self time per path) and the pass's total time.
"""

from __future__ import annotations

import time

PASS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, commands  # noqa: E402


class Tracer:
    """Spans kept in flat arrays, so that 1e5 short calls stay cheap."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def begin(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def current(self) -> str:
        i = self.stack[-1]
        return self.names[self.name[i]] if i >= 0 else ""

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str) -> None:
        """Rebind owner.attr to a traced call of the same function."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        setattr(owner, attr, traced)

    def summary(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], dict]:
        """Total and self time and calls per span name, and the tree by path."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        paths: list[str] = []
        tree: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            p = self.parent[i]
            path = name if p < 0 else f"{paths[p]}/{name}"
            paths.append(path)
            total[name] = total.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            node = tree.setdefault(path, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            node["calls"] += 1
            node["total_s"] += dur[i]
            node["self_s"] += dur[i] - child[i]
        return total, self_s, calls, tree


def written_bytes(out: Path, since: float) -> int:
    return sum(
        f.stat().st_size for f in out.iterdir() if f.is_file() and f.stat().st_mtime >= since
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--x", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    setup, timed = commands(args.workload, args.x, args.out)
    T = Tracer()

    with T.span("cli.import"):
        import primesums.cli as cli
    from primesums import accumulate, report, verify
    from primesums.sieve import SieveConfig, base_primes, prime_count, stream_segments

    # Sieve and accumulator layers, called directly over the range that the
    # workload's commands sieve, its set-up included.
    top = WORKLOADS[args.workload][1] * args.x
    with T.span("sieve.base_primes"):
        base_primes(math.isqrt(top))
    with T.span("sieve.prime_count"):
        prime_count(top)
    state = accumulate.SumState()
    segments = stream_segments(SieveConfig(top))
    while True:
        with T.span("sieve.stream_segments"):
            seg = next(segments, None)
        if seg is None:
            break
        T.count("sieve.segments")
        T.count("sieve.primes", len(seg.primes))
        with T.span("accumulate.SumState.extend_primes"):
            state.extend_primes(seg.primes)
    del state, seg, segments

    failed = 0

    def run_cli(argv: list[str]) -> None:
        nonlocal failed
        label = " ".join([argv[0], *(["--resume"] if "--resume" in argv else [])])
        with T.span(f"cli.main {label}"), contextlib.redirect_stdout(io.StringIO()):
            failed += cli.main([*argv, "--threads", "1"]) != 0

    # The set-up commands, before any function is rebound: none of their
    # calls counts towards a layer.
    for argv in setup:
        run_cli(argv)

    # The timed commands, with the public functions they call traced in place.
    T.wrap(accumulate, "snapshot", "accumulate.snapshot")
    for fn in ("write_checkpoint_file", "write_csv", "read_checkpoint_file", "resume",
               "build_report_bundle"):
        T.wrap(report, fn, f"report.{fn}")
    for fn in ("check_pair_identity", "check_jump_identity"):
        T.wrap(report, fn, f"verify.{fn}")
    for fn in ("abel_decompose", "main_term_identity"):
        T.wrap(report, fn, f"calculus.{fn}")
    for fn in ("block_sandwich", "lower_bound_check", "sandwich_records"):
        T.wrap(report, fn, f"asymptotics.{fn}")
    for fn in ("cmd_compute", "cmd_verify", "cmd_report"):
        T.wrap(cli, fn, f"report.{fn}")
    term_stream = verify.term_stream

    def counted_terms(*a, **k):
        jump = T.current() == "verify.check_jump_identity"
        for term in term_stream(*a, **k):
            if jump:
                T.count("verify.jump_primes")
            yield term

    verify.term_stream = counted_terms

    for argv in timed:
        target = Path(argv[argv.index("--out") + 1])
        target.mkdir(parents=True, exist_ok=True)
        since = time.time()
        run_cli(argv)
        T.count("report.bytes_written", written_bytes(target, since))
    total_s = time.perf_counter() - PASS_START

    total, self_s, calls, tree = T.summary()
    c = T.counts

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    extend_s = t("accumulate.SumState.extend_primes")
    metrics = {
        "cli.import_s": (t("cli.import"), "s"),
        "sieve.base_s": (t("sieve.base_primes"), "s"),
        "sieve.mark_s": (t("sieve.prime_count"), "s"),
        "sieve.materialize_s": (t("sieve.stream_segments") - t("sieve.prime_count"), "s"),
        "sieve.segments": (c.get("sieve.segments", 0), "count"),
        "sieve.primes": (c.get("sieve.primes", 0), "count"),
        "accumulate.extend_s": (extend_s, "s"),
        "accumulate.ns_per_prime": (1e9 * extend_s / max(c.get("sieve.primes", 0), 1), "ns"),
        "accumulate.snapshot_s": (t("accumulate.snapshot"), "s"),
        "accumulate.snapshots": (calls.get("accumulate.snapshot", 0), "count"),
        "report.ckpt_write_s": (t("report.write_checkpoint_file"), "s"),
        "report.csv_write_s": (t("report.write_csv"), "s"),
        "report.ckpt_read_s": (t("report.read_checkpoint_file"), "s"),
        "report.resume_s": (self_s.get("report.resume", 0.0), "s"),
        "report.bytes_written": (c.get("report.bytes_written", 0), "bytes"),
        "verify.pair_s": (t("verify.check_pair_identity"), "s"),
        "verify.jump_s": (t("verify.check_jump_identity"), "s"),
        "verify.jump_primes": (c.get("verify.jump_primes", 0), "count"),
        "calculus.abel_s": (t("calculus.abel_decompose"), "s"),
        "calculus.abel_points": (calls.get("calculus.abel_decompose", 0), "count"),
        "calculus.main_term_s": (t("calculus.main_term_identity"), "s"),
        "asymptotics.block_s": (
            t("asymptotics.block_sandwich", "asymptotics.lower_bound_check",
              "asymptotics.sandwich_records"),
            "s",
        ),
        "asymptotics.block_stats": (calls.get("asymptotics.block_sandwich", 0), "count"),
        "report.bundle_s": (t("report.build_report_bundle"), "s"),
        "report.json_write_s": (self_s.get("report.cmd_report", 0.0), "s"),
    }
    result = {
        "commands": len(setup) + len(timed),
        "failed": failed,
        "total_s": total_s,
        "span_sum_s": sum(self_s.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": tree,
    }
    (args.out / "trace.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
