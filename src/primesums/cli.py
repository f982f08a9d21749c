"""Command-line interface.

    primesums compute --x-max 1000000 --out run/
    primesums verify  --resume run/checkpoints.txt --out run/
    primesums report  --out run/ run/checkpoints.txt

report's checkpoint file is the stored run, as --resume's is for compute
and verify.  It answers the --x-max (not compute's) and --grid-ratio left
out, and refuses one given otherwise; --out left out is primesums_out.
No flag sets the grid's start (report.GRID_START) or a check's parameters
or tolerance (report.CHECKS), so the records of a stored run depend on
its file alone.  Exit status: 0 on success (and when every verification
record passes), 1 on failed checks or unreadable data files, 2 on
usage/config errors.  Unknown flags are errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CheckpointFormatError, ConfigError
from .report import RunConfig, cmd_compute, cmd_report, cmd_verify

# --threads is accepted within these bounds and has no effect (the sieve runs
# on one thread): it stays while perfbench/run.py passes --threads 1 to every command
MAX_THREADS = 8


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # None when left out: the checkpoint file's header, or else RunConfig, answers it
    p.add_argument(
        "--x-max",
        type=int,
        help="upper summation limit (required; verify --resume and report: the file's)",
    )
    p.add_argument(
        "--grid-ratio",
        type=float,
        help="geometric spacing of checkpoints (> 1; 2^(1/4), or the file's)",
    )
    p.add_argument("--out", type=Path, help="output directory (default: primesums_out)")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"accepted for compatibility, 1 to {MAX_THREADS}; no effect",
    )


def _config_from(args: argparse.Namespace) -> RunConfig:
    if not 1 <= args.threads <= MAX_THREADS:
        raise ConfigError(f"threads must be in [1, {MAX_THREADS}], got {args.threads}")
    # report names its stored run as an argument, compute and verify by --resume
    stored = args.checkpoint_file if args.command == "report" else args.resume
    if args.x_max is None and (stored is None or args.command == "compute"):
        raise ConfigError("--x-max is required, but for verify --resume and report")
    return RunConfig(x_max=args.x_max, grid_ratio=args.grid_ratio, out_dir=args.out,
                     resume_from=stored)


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
    p_compute.add_argument(
        "--resume", type=Path, help="checkpoint file to continue from"
    )

    p_verify = sub.add_parser(
        "verify",
        help="run all identity/inequality checks; exit 0 iff every record passes",
    )
    _add_common_flags(p_verify)
    p_verify.add_argument(
        "--resume", type=Path, help="checkpoint file to check in place of a fresh run"
    )

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
            # the last row is at x_max, where pi is the state's prime count
            run = cmd_compute(cfg)
            print(
                f"wrote {run.rows} checkpoints to {cfg.csv_path()} "
                f"(pi({float(cfg.x_max):g}) = {run.state.n})"
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
        bundle_path = cmd_report(cfg)
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
