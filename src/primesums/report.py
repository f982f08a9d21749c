"""Run configuration, checkpoint persistence with resume, the check
registry, and reports.

File formats
------------
Checkpoint file (text, versioned): a header with the format version, a
hash of the accumulation-relevant config fields and creation metadata,
then the full accumulator state (its slots in SumState.__slots__ order,
the exact sums as integers in units of 2**-120), the sampled a_n*S_{n-1}
values, and one fixed-column row per checkpoint.  Reals are serialized
with 17 significant digits, which round-trips binary64 exactly, so a
restored run continues bit-identically.

CSV: header row `x,pi,S,M,E,r_S,r_E_pi,r_E_x,mertens_remainder`, one row
per checkpoint, 17-digit reals.  No timestamps, so identical configs give
byte-identical bodies.

JSON bundle: config echo, checkpoint table, verification records, ratio
bands, block stats, abel decompositions, and run metadata.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .accumulate import (
    Checkpoint,
    RunResult,
    SumState,
    grid_points,
    run_stream,
)
from .asymptotics import (
    BAND_SERIES,
    BlockStat,
    CheckpointSeries,
    an_sn_band,
    block_sandwich,
    empirical_constants,
    lower_bound_check,
    mertens_contraction_record,
    ratio_positivity_record,
    sandwich_records,
    scale_identity_record,
)
# abel_decompose stays importable here: perfbench/trace.py wraps it by name
from .calculus import (  # noqa: F401
    AbelDecomposition,
    abel_decompose,
    abel_decompose_grid,
    main_term_identity,
)
from .errors import CheckpointFormatError, ConfigError
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, prime_array
from .verify import (
    VerificationRecord,
    check_E_monotone,
    check_jump_identity,
    check_pair_identity,
    identity_record,
    pair_prime_bound,
)

FORMAT_VERSION = 2  # of the checkpoint file
_MAGIC = f"primesums-checkpoints v{FORMAT_VERSION}"
BUNDLE_FORMAT_VERSION = 1  # of report.json

CSV_COLUMNS = tuple(f.name for f in fields(Checkpoint))
# report.json keys that differ from the dataclass field names
_JSON_NAMES = {"passed": "pass", "lam": "lambda"}

# streaming checks beyond this x cost more than they inform; the jump
# residual also drifts toward its 1e-9 tolerance at 1e8-scale S values
JUMP_SCAN_CAP = 10**6
ABEL_GRID_CAP = 10**6
PAIR_N_CAP = 5000


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _checkpoint_fields(cp: Checkpoint) -> list[str]:
    """The one row codec of a Checkpoint: its fields in CSV_COLUMNS order,
    pi as an integer and every real with 17 digits.  The CSV joins them
    with commas, the checkpoint file with spaces."""
    return [
        _fmt(cp.x),
        str(cp.pi),
        _fmt(cp.S),
        _fmt(cp.M),
        _fmt(cp.E),
        _fmt(cp.r_S),
        _fmt(cp.r_E_pi),
        _fmt(cp.r_E_x),
        _fmt(cp.mertens_remainder),
    ]


def _json(record) -> dict:
    """A flat dataclass as its report.json object.  A shallow asdict: the
    deep copy of asdict made a report of 1e5 checkpoints 30% slower."""
    return {_JSON_NAMES.get(k, k): v for k, v in vars(record).items()}


def _write_lines(path: Path, *parts: Iterable[str]) -> None:
    """Write the lines of each part in turn, each ended by a newline, one
    at a time: memory holds one row, never the whole file."""
    with open(path, "w") as fh:
        for line in chain(*parts):
            fh.write(line + "\n")


@dataclass
class RunConfig:
    """Everything a compute/verify/report invocation needs."""

    x_max: int
    grid_start: float = 100.0
    grid_ratio: float = 2.0**0.25
    segment_size: int = DEFAULT_SEGMENT_SIZE
    A: float = 8.0
    lambdas: tuple[float, ...] = (2.0, 4.0, 8.0)
    tolerances: dict[str, float] = field(default_factory=dict)
    out_dir: Path = Path("primesums_out")
    resume_from: Path | None = None

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        if self.resume_from is not None:
            self.resume_from = Path(self.resume_from)
        if self.grid_start < 3.0:
            raise ConfigError(f"grid_start must be >= 3, got {self.grid_start}")
        if self.x_max < self.grid_start:
            raise ConfigError(
                f"x_max {self.x_max} below grid_start {self.grid_start}"
            )
        if self.grid_ratio <= 1.0:
            raise ConfigError(f"grid_ratio must be > 1, got {self.grid_ratio}")
        if self.A <= 1.0:
            raise ConfigError(f"A must be > 1, got {self.A}")
        if any(lam <= 1.0 for lam in self.lambdas):
            raise ConfigError(f"every lambda must be > 1, got {self.lambdas}")
        # the sieve's bounds, checked before anything is allocated
        SieveConfig(limit=self.x_max, segment_size=self.segment_size)
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance ids: {sorted(unknown)}")

    def tolerance(self, check_id: str) -> float:
        return self.tolerances.get(check_id, DEFAULT_TOLERANCES[check_id])

    def grid(self) -> list[float]:
        return grid_points(self.grid_start, float(self.x_max), self.grid_ratio)

    def config_hash(self) -> str:
        """Hash of the accumulation-relevant fields only: extending x_max
        stays resumable, regridding does not."""
        payload = (
            f"grid_start={_fmt(self.grid_start)};"
            f"grid_ratio={_fmt(self.grid_ratio)};"
            "weights=sqrt(log p / p);"
            "accumulator=exact fixed point 2**-120"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def checkpoint_path(self) -> Path:
        return self.out_dir / "checkpoints.txt"

    def csv_path(self) -> Path:
        return self.out_dir / "checkpoints.csv"


@dataclass
class StoredRun(RunResult):
    """Parsed contents of a checkpoint file: the run and its header."""

    config_hash: str
    x_max: int
    grid_start: float
    grid_ratio: float
    segment_size: int


def write_checkpoint_file(path: Path, cfg: RunConfig, result: RunResult) -> None:
    state_row = (getattr(result.state, name) for name in SumState.__slots__)
    _write_lines(
        path,
        [
            _MAGIC,
            f"config_hash {cfg.config_hash()}",
            f"created {datetime.now(timezone.utc).isoformat()}",
            f"x_max {cfg.x_max}",
            f"grid_start {_fmt(cfg.grid_start)}",
            f"grid_ratio {_fmt(cfg.grid_ratio)}",
            f"segment_size {cfg.segment_size}",
            # sums and counts as integers, the flag as 0/1, reals with 17 digits
            "state "
            + " ".join(_fmt(v) if isinstance(v, float) else str(int(v)) for v in state_row),
        ],
        (f"anS {n} {_fmt(value)}" for n, value in result.an_sn_samples),
        ("checkpoint " + " ".join(_checkpoint_fields(cp)) for cp in result.checkpoints),
        [f"end {len(result.checkpoints)}"],
    )


def _parse_state(path: Path, values: list[str]) -> SumState:
    """The state row, read in SumState.__slots__ order; each value takes
    the type of that slot in a fresh state."""
    if len(values) != len(SumState.__slots__):
        raise CheckpointFormatError(
            f"{path}: state row has {len(values)} fields, "
            f"expected {len(SumState.__slots__)}"
        )
    state = SumState()
    for name, text in zip(SumState.__slots__, values):
        kind = type(getattr(state, name))
        setattr(state, name, float(text) if kind is float else kind(int(text)))
    return state


def read_checkpoint_file(path: Path, cfg: RunConfig | None = None) -> StoredRun:
    """Parse a checkpoint file, one line at a time.

    With cfg, refuse (CheckpointFormatError) a file written under another
    accumulation config: silently diverging resumes and checks are
    forbidden.
    """
    try:
        with open(path) as fh:
            if fh.readline().rstrip("\n") != _MAGIC:
                raise CheckpointFormatError(
                    f"{path}: not a checkpoint file (expected header {_MAGIC!r})"
                )
            header = dict(fh.readline().split() for _ in range(6))
            if cfg is not None and header["config_hash"] != cfg.config_hash():
                raise CheckpointFormatError(
                    f"{path}: config hash {header['config_hash']} does not match "
                    f"current accumulation config {cfg.config_hash()} "
                    "(grid_start/grid_ratio changed; start a fresh run instead)"
                )
            tag, *values = fh.readline().split()
            if tag != "state":
                raise CheckpointFormatError(f"{path}: missing state row")
            state = _parse_state(path, values)
            samples: list[tuple[int, float]] = []
            checkpoints: list[Checkpoint] = []
            end = None
            for line in fh:
                tag, *v = line.split()
                if tag == "checkpoint":
                    checkpoints.append(Checkpoint(float(v[0]), int(v[1]), *map(float, v[2:])))
                elif tag == "anS":
                    samples.append((int(v[0]), float(v[1])))
                elif tag == "end":
                    (end,) = v
                    if int(end) != len(checkpoints):
                        raise CheckpointFormatError(
                            f"{path}: row count mismatch ({end} declared, "
                            f"{len(checkpoints)} found)"
                        )
                else:
                    raise CheckpointFormatError(f"{path}: unknown row tag {tag!r}")
        if end is None:
            raise CheckpointFormatError(f"{path}: truncated (no end marker)")
        return StoredRun(
            config_hash=header["config_hash"],
            x_max=int(header["x_max"]),
            grid_start=float(header["grid_start"]),
            grid_ratio=float(header["grid_ratio"]),
            segment_size=int(header["segment_size"]),
            state=state,
            an_sn_samples=samples,
            checkpoints=checkpoints,
        )
    except CheckpointFormatError:
        raise
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint file {path}: {exc}")
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint file: {exc}")


def write_csv(path: Path, checkpoints: list[Checkpoint]) -> None:
    _write_lines(
        path,
        [",".join(CSV_COLUMNS)],
        (",".join(_checkpoint_fields(cp)) for cp in checkpoints),
    )


def resume(path: Path, cfg: RunConfig) -> tuple[RunResult, list[float]]:
    """Validate a stored run against cfg and plan the continuation: the
    stored run cut to cfg's grid, and the grid points left to compute.

    Refuses (CheckpointFormatError) when the stored accumulation config
    differs, and (ConfigError) when x_max would shrink below the stored
    state.
    """
    stored = read_checkpoint_file(path, cfg)
    grid = cfg.grid()
    grid_set = set(grid)
    kept = [cp for cp in stored.checkpoints if cp.x in grid_set]
    have = {cp.x for cp in kept}
    remaining = [g for g in grid if g not in have]
    if remaining and min(remaining) < stored.state.last_prime:
        raise ConfigError(
            f"cannot resume to x_max={cfg.x_max}: stored state already covers "
            f"primes to {stored.state.last_prime}"
        )
    samples = list(stored.an_sn_samples)
    if remaining and samples and (samples[-1][0] & (samples[-1][0] - 1)) != 0:
        # drop the final-n sample of the interrupted run; the continuation
        # re-emits its own, making split and unsplit runs identical
        samples.pop()
    return RunResult(kept, stored.state, samples), remaining


def cmd_compute(cfg: RunConfig) -> RunResult:
    """Sieve to x_max, accumulate, and write the checkpoint file and CSV.

    Deterministic and idempotent for a fixed config; with resume_from the
    stored state continues bit-identically to an uninterrupted run.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    result, grid = RunResult([], SumState(), []), cfg.grid()
    if cfg.resume_from is not None:
        result, grid = resume(cfg.resume_from, cfg)
    if grid:
        new = run_stream(
            float(cfg.x_max),
            grid,
            segment_size=cfg.segment_size,
            state=result.state,
            samples=result.an_sn_samples,
        )
        result = RunResult(result.checkpoints + new.checkpoints, new.state, new.an_sn_samples)
    elif cfg.checkpoint_path() == cfg.resume_from:
        # a completed run resumed in place: leave its file alone
        write_csv(cfg.csv_path(), result.checkpoints)
        return result
    write_checkpoint_file(cfg.checkpoint_path(), cfg, result)
    write_csv(cfg.csv_path(), result.checkpoints)
    return result


@dataclass
class RunContext:
    """What the checks over one run share: its checkpoint series, one prime
    array, and the block and Abel passes, each computed on first use."""

    cfg: RunConfig
    result: RunResult

    def __post_init__(self) -> None:
        self.series = CheckpointSeries(self.result.checkpoints)
        self.n_pair = min(PAIR_N_CAP, self.result.state.n)
        self.x_jump = min(float(self.cfg.x_max), float(JUMP_SCAN_CAP))
        self.abel_xs = [cp.x for cp in self.series if cp.x <= ABEL_GRID_CAP]

    @cached_property
    def primes(self) -> np.ndarray:
        """Every prime the pair, jump and Abel checks read."""
        top = max(pair_prime_bound(self.n_pair), self.x_jump, max(self.abel_xs, default=0.0))
        return prime_array(int(top), segment_size=self.cfg.segment_size)

    def has_block(self, x: float, ratio: float) -> bool:
        """Whether the block's lower edge x/ratio is >= 3 and snaps to a grid point."""
        return x / ratio >= 3.0 and self.series.floor(x / ratio) is not None

    @cached_property
    def block_stats(self) -> list[BlockStat]:
        return [
            block_sandwich(cp.x, lam, self.series)
            for cp in self.series
            for lam in self.cfg.lambdas
            if self.has_block(cp.x, lam)
        ]

    @cached_property
    def abel(self) -> tuple[list[VerificationRecord], list[AbelDecomposition]]:
        return _abel_records(self.cfg, self.abel_xs, self.primes)


@dataclass(frozen=True)
class Check:
    """One registry entry: a check id, its default tolerance, the commands
    that run it, and its records given the run and the tolerance."""

    check_id: str
    tolerance: float
    commands: tuple[str, ...]
    run: Callable[[RunContext, float], list[VerificationRecord]]


def _worst(records: Iterable[VerificationRecord]) -> list[VerificationRecord]:
    """The record with the largest residual (the first of equals) of each
    check id, in order of first appearance, holding no other record."""
    worst: dict[str, VerificationRecord] = {}
    for rec in records:
        cur = worst.get(rec.check_id)
        if cur is None or rec.residual > cur.residual:
            worst[rec.check_id] = rec
    return list(worst.values())


def _abel_records(
    cfg: RunConfig, xs: list[float], primes: np.ndarray
) -> tuple[list[VerificationRecord], list[AbelDecomposition]]:
    """The worst Abel identity record over the grid points xs, and the
    decomposition at each; primes must reach the last of them."""
    decomps = abel_decompose_grid(xs, primes)
    tol = cfg.tolerance("abel_identity")
    records = (
        identity_record(
            "abel_identity", d.x, d.direct_S, d.boundary_term - d.integral_term, tol
        )
        for d in decomps
    )
    return _worst(records), decomps


def _mertens_contraction(ctx: RunContext, tol: float) -> list[VerificationRecord]:
    try:
        return [mertens_contraction_record(ctx.result.checkpoints)]
    except ConfigError:
        return []  # windows not populated at this x_max


def _main_term(ctx: RunContext, tol: float) -> list[VerificationRecord]:
    """At 1e3 and 1e6 (or x_max below them), with the quadrature at a
    tenth of the check's tolerance."""
    xs = sorted({min(ctx.cfg.x_max, 10**3), min(ctx.cfg.x_max, 10**6)})
    return [main_term_identity(float(x), tol / 10.0) for x in xs]


def _block_sandwich(ctx: RunContext, tol: float) -> list[VerificationRecord]:
    return _worst(rec for stat in ctx.block_stats for rec in sandwich_records(stat, tol))


def _lower_bound(ctx: RunContext, tol: float) -> list[VerificationRecord]:
    A, series = ctx.cfg.A, ctx.series
    return _worst(
        lower_bound_check(cp.x, A, series, tol) for cp in series if ctx.has_block(cp.x, A)
    )


_V, _VR = ("verify",), ("verify", "report")
# The registry, in verification.csv order.  Every entry looks the check
# functions up in this module when it runs, so rebinding one here (as the
# tests and the benchmark's tracer do) reaches verify and report alike.
CHECKS = (
    Check("pair_identity", 1e-10, _V, lambda c, tol: check_pair_identity(
        c.n_pair, tolerance=tol, primes=c.primes)),
    Check("jump_identity", 1e-9, _V, lambda c, tol: [check_jump_identity(
        c.x_jump, tolerance=tol, primes=c.primes)]),
    Check("e_monotone", 0.0, _VR, lambda c, tol: [check_E_monotone(c.result.checkpoints)]),
    Check("scale_identity", 1e-12, _VR, lambda c, tol: [scale_identity_record(
        c.result.checkpoints, tol)]),
    Check("ratio_positive", 0.0, _VR, lambda c, tol: [ratio_positivity_record(
        c.result.checkpoints, c.result.an_sn_samples)]),
    Check("mertens_contraction", 0.0, _VR, _mertens_contraction),
    Check("abel_identity", 1e-8, _VR, lambda c, tol: c.abel[0]),
    Check("main_term", 1e-8, _V, _main_term),
    Check("block_sandwich", 1e-12, _VR, _block_sandwich),
    Check("lower_bound", 1e-12, _VR, _lower_bound),
)
DEFAULT_TOLERANCES: dict[str, float] = {c.check_id: c.tolerance for c in CHECKS}


def run_checks(ctx: RunContext, command: str) -> list[VerificationRecord]:
    """The records of every check that command runs, in registry order."""
    return [
        record
        for check in CHECKS
        if command in check.commands
        for record in check.run(ctx, ctx.cfg.tolerance(check.check_id))
    ]


def write_verification_csv(path: Path, records: list[VerificationRecord]) -> None:
    _write_lines(
        path,
        ["check_id,location,lhs,rhs,residual,tolerance,pass"],
        (
            f"{r.check_id},{_fmt(r.location)},{_fmt(r.lhs)},{_fmt(r.rhs)},"
            f"{_fmt(r.residual)},{_fmt(r.tolerance)},{'1' if r.passed else '0'}"
            for r in records
        ),
    )


def cmd_verify(cfg: RunConfig) -> tuple[list[VerificationRecord], int]:
    """Run every check; exit status 0 iff all records pass.

    With resume_from set, checkpoints are loaded from that file (after
    hash validation) instead of being recomputed.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.resume_from is not None:
        result = read_checkpoint_file(cfg.resume_from, cfg)
    else:
        result = run_stream(float(cfg.x_max), cfg.grid(), segment_size=cfg.segment_size)
    records = run_checks(RunContext(cfg, result), "verify")
    write_verification_csv(cfg.out_dir / "verification.csv", records)
    status = 0 if all(r.passed for r in records) else 1
    return records, status


def build_report_bundle(cfg: RunConfig, stored: StoredRun) -> dict:
    """Assemble the JSON bundle from a stored run."""
    t0 = time.monotonic()
    ctx = RunContext(cfg, stored)
    checkpoints = stored.checkpoints
    band_lo = 1e3 if any(cp.x >= 1e3 for cp in checkpoints) else checkpoints[0].x
    bands = empirical_constants(checkpoints, band_lo)
    try:
        bands.append(an_sn_band(stored.an_sn_samples))
    except ConfigError:
        pass
    records = run_checks(ctx, "report")

    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "config": {
            "x_max": stored.x_max,
            "grid_start": stored.grid_start,
            "grid_ratio": stored.grid_ratio,
            "segment_size": stored.segment_size,
            "A": cfg.A,
            "lambdas": list(cfg.lambdas),
            "config_hash": stored.config_hash,
        },
        "metadata": {
            "library_version": __version__,
            "prime_count": stored.state.n,
            "last_prime": stored.state.last_prime,
            "report_wall_time_s": time.monotonic() - t0,
        },
        "checkpoints": [_json(cp) for cp in checkpoints],
        "verification_records": [_json(r) for r in records],
        "ratio_bands": [_json(b) for b in bands],
        "block_stats": [_json(s) for s in ctx.block_stats],
        "abel_decompositions": [_json(d) for d in ctx.abel[1]],
    }


def cmd_report(cfg: RunConfig, checkpoint_file: Path) -> Path:
    """Emit report.json and one plot-ready CSV per tracked series."""
    stored = read_checkpoint_file(checkpoint_file)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    bundle = build_report_bundle(cfg, stored)
    out = cfg.out_dir / "report.json"
    out.write_text(json.dumps(bundle, indent=2, sort_keys=True, allow_nan=False) + "\n")

    for name in ("S", "M", "E") + BAND_SERIES:
        _write_lines(
            cfg.out_dir / f"series_{name}.csv",
            ["x,value"],
            (f"{_fmt(cp.x)},{_fmt(getattr(cp, name))}" for cp in stored.checkpoints),
        )
    _write_lines(
        cfg.out_dir / "series_anS.csv",
        ["n,value"],
        (f"{n},{_fmt(value)}" for n, value in stored.an_sn_samples),
    )
    return out
