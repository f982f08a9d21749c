"""Command-line interface.

    primesums compute --x-max 1000000 --out run/
    primesums verify  --resume run/checkpoints.txt --out run/
    primesums report  --out run/ run/checkpoints.txt

A checkpoint file answers the --x-max (not compute's), --grid-start and
--grid-ratio left out, and refuses one given otherwise.  Exit status: 0 on
success (and when every verification record passes), 1 on failed checks
or unreadable data files, 2 on usage/config errors.  Unknown flags are
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CheckpointFormatError, ConfigError
from .report import (
    DEFAULT_TOLERANCES,
    RunConfig,
    cmd_compute,
    cmd_report,
    cmd_verify,
)
from .sieve import DEFAULT_SEGMENT_SIZE

# --threads is accepted, within these bounds, so that existing command lines
# keep working; the sieve runs on one thread and output never depended on it
MAX_THREADS = 8


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # None when left out: the checkpoint file's header answers it, or else the default
    p.add_argument(
        "--x-max",
        type=int,
        help="upper summation limit (required; verify --resume and report: the file's)",
    )
    p.add_argument(
        "--grid-start", type=float, help="first checkpoint x (>= 3; 100, or the file's)"
    )
    p.add_argument(
        "--grid-ratio",
        type=float,
        help="geometric spacing of checkpoints (> 1; 2^(1/4), or the file's)",
    )
    p.add_argument(
        "--segment-size",
        type=int,
        default=DEFAULT_SEGMENT_SIZE,
        help="odd numbers per sieve window (1024 to 2^24)",
    )
    p.add_argument(
        "--A", type=float, default=8.0, help="block ratio for the lower-bound check"
    )
    p.add_argument(
        "--lambda",
        dest="lambdas",
        type=float,
        action="append",
        metavar="RATIO",
        help="sandwich block ratio, repeatable (default: 2 4 8)",
    )
    p.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="CHECK=VALUE",
        help=f"tolerance override, repeatable; checks: {', '.join(sorted(DEFAULT_TOLERANCES))}",
    )
    p.add_argument(
        "--out", type=Path, default=Path("primesums_out"), help="output directory"
    )
    p.add_argument(
        "--resume", type=Path, default=None, help="checkpoint file to continue from"
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"accepted for compatibility, 1 to {MAX_THREADS}; no effect",
    )


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        check_id, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects CHECK=VALUE, got {pair!r}")
        try:
            out[check_id] = float(value)
        except ValueError:
            raise ConfigError(f"--tol {check_id}: not a number: {value!r}")
    return out


def _config_from(args: argparse.Namespace) -> RunConfig:
    if not 1 <= args.threads <= MAX_THREADS:
        raise ConfigError(f"threads must be in [1, {MAX_THREADS}], got {args.threads}")
    stored = args.checkpoint_file if args.command == "report" else args.resume
    if args.x_max is None and (stored is None or args.command == "compute"):
        raise ConfigError("--x-max is required, but for verify --resume and report")
    grid = {"grid_start": args.grid_start, "grid_ratio": args.grid_ratio}
    return RunConfig(
        x_max=args.x_max,
        # with no file to answer them, the flags left out take the defaults
        **(grid if stored is not None else {k: v for k, v in grid.items() if v is not None}),
        segment_size=args.segment_size,
        A=args.A,
        lambdas=tuple(args.lambdas) if args.lambdas else (2.0, 4.0, 8.0),
        tolerances=_parse_tolerances(args.tol),
        out_dir=args.out,
        resume_from=args.resume,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="primesums",
        description="Weighted prime sums with identity verification and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="sieve, accumulate, write checkpoints.txt and checkpoints.csv"
    )
    _add_common_flags(p_compute)

    p_verify = sub.add_parser(
        "verify",
        help="run all identity/inequality checks; exit 0 iff every record passes",
    )
    _add_common_flags(p_verify)

    p_report = sub.add_parser(
        "report",
        help="emit report.json, checkpoints.csv and series_anS.csv from a checkpoint file",
    )
    _add_common_flags(p_report)
    p_report.add_argument(
        "checkpoint_file", type=Path, help="checkpoint file written by compute"
    )

    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "compute":
            result = cmd_compute(cfg)
            table = result.checkpoints
            print(
                f"wrote {len(table)} checkpoints to {cfg.csv_path()} "
                f"(pi({table.x[-1]:g}) = {table.pi[-1]})"
            )
            return 0
        if args.command == "verify":
            records, status = cmd_verify(cfg)
            width = max(len(r.check_id) for r in records)
            for r in records:
                print(
                    f"{r.check_id:<{width}}  at {r.location:<12g} "
                    f"residual {r.residual:.3e}  tol {r.tolerance:.1e}  "
                    f"{'PASS' if r.passed else 'FAIL'}"
                )
            print(f"verification: {'all passed' if status == 0 else 'FAILURES'}")
            return status
        bundle_path = cmd_report(cfg, args.checkpoint_file)
        print(f"wrote {bundle_path}")
        return 0
    except (ConfigError, CheckpointFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
