"""Run configuration, checkpoint persistence with resume, and reports.

File formats
------------
Checkpoint file (text, versioned): a header with the format version, a
hash of the accumulation-relevant config fields and creation metadata,
then the full accumulator state (its exact sums as integers in units of
2**-120), the sampled a_n*S_{n-1} values, and one fixed-column row per
checkpoint.  Reals are serialized with 17 significant digits, which
round-trips binary64 exactly, so a restored run continues bit-identically.

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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

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
    RatioBand,
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
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, check_threads, prime_array
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

CSV_COLUMNS = ("x", "pi", "S", "M", "E", "r_S", "r_E_pi", "r_E_x", "mertens_remainder")

DEFAULT_TOLERANCES: dict[str, float] = {
    "pair_identity": 1e-10,
    "jump_identity": 1e-9,
    "e_monotone": 0.0,
    "abel_identity": 1e-8,
    "main_term": 1e-8,  # 10x the quadrature tolerance below
    "lower_bound": 1e-12,
    "block_sandwich": 1e-12,
    "scale_identity": 1e-12,
    "mertens_contraction": 0.0,
    "ratio_positive": 0.0,
}
MAIN_TERM_QUAD_TOL = 1e-9

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
    threads: int = 1

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
        check_threads(self.threads)
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
class StoredRun:
    """Parsed contents of a checkpoint file."""

    config_hash: str
    x_max: int
    grid_start: float
    grid_ratio: float
    segment_size: int
    state: SumState
    an_sn_samples: list[tuple[int, float]]
    checkpoints: list[Checkpoint]


def write_checkpoint_file(path: Path, cfg: RunConfig, result: RunResult) -> None:
    lines = [
        _MAGIC,
        f"config_hash {cfg.config_hash()}",
        f"created {datetime.now(timezone.utc).isoformat()}",
        f"x_max {cfg.x_max}",
        f"grid_start {_fmt(cfg.grid_start)}",
        f"grid_ratio {_fmt(cfg.grid_ratio)}",
        f"segment_size {cfg.segment_size}",
    ]
    st = result.state
    lines.append(
        "state "
        + " ".join(
            [
                str(st.n),
                str(st.last_prime),
                str(st.S),
                str(st.M),
                str(st.E_incremental),
                _fmt(st.last_weight),
                _fmt(st.last_anS),
                "1" if st.weights_decreasing else "0",
            ]
        )
    )
    for n, value in result.an_sn_samples:
        lines.append(f"anS {n} {_fmt(value)}")
    for cp in result.checkpoints:
        lines.append("checkpoint " + " ".join(_checkpoint_fields(cp)))
    lines.append(f"end {len(result.checkpoints)}")
    path.write_text("\n".join(lines) + "\n")


def read_checkpoint_file(path: Path) -> StoredRun:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint file {path}: {exc}")
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise CheckpointFormatError(
            f"{path}: not a checkpoint file (expected header {_MAGIC!r})"
        )
    try:
        header: dict[str, str] = {}
        i = 1
        for i in range(1, 7):
            key, _, value = lines[i].partition(" ")
            header[key] = value
        state_key, _, state_val = lines[7].partition(" ")
        if state_key != "state":
            raise CheckpointFormatError(f"{path}: missing state row")
        sv = state_val.split()
        if len(sv) != 8:
            raise CheckpointFormatError(
                f"{path}: state row has {len(sv)} fields, expected 8"
            )
        state = SumState.restore(
            n=int(sv[0]),
            last_prime=int(sv[1]),
            S=int(sv[2]),
            M=int(sv[3]),
            E_incremental=int(sv[4]),
            last_weight=float(sv[5]),
            last_anS=float(sv[6]),
            weights_decreasing=sv[7] == "1",
        )
        samples: list[tuple[int, float]] = []
        checkpoints: list[Checkpoint] = []
        saw_end = False
        for line in lines[8:]:
            tag, _, rest = line.partition(" ")
            if tag == "anS":
                n_str, v_str = rest.split()
                samples.append((int(n_str), float(v_str)))
            elif tag == "checkpoint":
                v = rest.split()
                checkpoints.append(
                    Checkpoint(
                        x=float(v[0]),
                        pi=int(v[1]),
                        S=float(v[2]),
                        M=float(v[3]),
                        E=float(v[4]),
                        r_S=float(v[5]),
                        r_E_pi=float(v[6]),
                        r_E_x=float(v[7]),
                        mertens_remainder=float(v[8]),
                    )
                )
            elif tag == "end":
                if int(rest) != len(checkpoints):
                    raise CheckpointFormatError(
                        f"{path}: row count mismatch ({rest} declared, "
                        f"{len(checkpoints)} found)"
                    )
                saw_end = True
            else:
                raise CheckpointFormatError(f"{path}: unknown row tag {tag!r}")
        if not saw_end:
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
    except (IndexError, KeyError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint file: {exc}")


def write_csv(path: Path, checkpoints: list[Checkpoint]) -> None:
    rows = [",".join(CSV_COLUMNS)]
    for cp in checkpoints:
        rows.append(",".join(_checkpoint_fields(cp)))
    path.write_text("\n".join(rows) + "\n")


@dataclass
class ResumePlan:
    """Restored state plus the work left to reach the new x_max."""

    state: SumState
    kept_checkpoints: list[Checkpoint]
    remaining_grid: list[float]
    samples: list[tuple[int, float]]


def resume(path: Path, cfg: RunConfig) -> ResumePlan:
    """Validate a stored run against cfg and plan the continuation.

    Refuses (CheckpointFormatError) when the stored accumulation config
    differs: silently diverging resumes are forbidden.  Refuses
    (ConfigError) when x_max would shrink below the stored state.
    """
    stored = read_checkpoint_file(path)
    if stored.config_hash != cfg.config_hash():
        raise CheckpointFormatError(
            f"{path}: config hash {stored.config_hash} does not match current "
            f"accumulation config {cfg.config_hash()} "
            "(grid_start/grid_ratio changed; start a fresh run instead)"
        )
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
    return ResumePlan(
        state=stored.state,
        kept_checkpoints=kept,
        remaining_grid=remaining,
        samples=samples,
    )


def cmd_compute(cfg: RunConfig) -> RunResult:
    """Sieve to x_max, accumulate, and write the checkpoint file and CSV.

    Deterministic and idempotent for a fixed config; with resume_from the
    stored state continues bit-identically to an uninterrupted run.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.resume_from is not None:
        plan = resume(cfg.resume_from, cfg)
        if not plan.remaining_grid:
            # completed run: regenerate derived outputs, leave the file alone
            if cfg.checkpoint_path() != Path(cfg.resume_from):
                write_checkpoint_file(
                    cfg.checkpoint_path(),
                    cfg,
                    RunResult(plan.kept_checkpoints, plan.state, plan.samples),
                )
            write_csv(cfg.csv_path(), plan.kept_checkpoints)
            return RunResult(plan.kept_checkpoints, plan.state, plan.samples)
        result = run_stream(
            float(cfg.x_max),
            plan.remaining_grid,
            segment_size=cfg.segment_size,
            threads=cfg.threads,
            state=plan.state,
            samples=plan.samples,
        )
        result.checkpoints = plan.kept_checkpoints + result.checkpoints
    else:
        result = run_stream(
            float(cfg.x_max),
            cfg.grid(),
            segment_size=cfg.segment_size,
            threads=cfg.threads,
        )
    write_checkpoint_file(cfg.checkpoint_path(), cfg, result)
    write_csv(cfg.csv_path(), result.checkpoints)
    return result


def _block_checks(
    cfg: RunConfig, series: CheckpointSeries
) -> tuple[list[VerificationRecord], list[BlockStat]]:
    """Lower-bound and sandwich checks at every grid point whose snapped
    block exists, aggregated to the worst record per check id."""
    records: dict[str, VerificationRecord] = {}
    stats: list[BlockStat] = []

    def keep(rec: VerificationRecord) -> None:
        cur = records.get(rec.check_id)
        if cur is None or rec.residual > cur.residual:
            records[rec.check_id] = rec

    tol_lb = cfg.tolerance("lower_bound")
    tol_bs = cfg.tolerance("block_sandwich")
    for cp in series:
        if cp.x / cfg.A >= 3.0 and series.floor(cp.x / cfg.A) is not None:
            keep(lower_bound_check(cp.x, cfg.A, series, tol_lb))
        for lam in cfg.lambdas:
            if cp.x / lam >= 3.0 and series.floor(cp.x / lam) is not None:
                stat = block_sandwich(cp.x, lam, series)
                stats.append(stat)
                for rec in sandwich_records(stat, tol_bs):
                    keep(rec)
    return list(records.values()), stats


def _abel_xs(series: CheckpointSeries) -> list[float]:
    return [cp.x for cp in series if cp.x <= ABEL_GRID_CAP]


def _abel_records(
    cfg: RunConfig, xs: list[float], primes: np.ndarray
) -> tuple[list[VerificationRecord], list[AbelDecomposition]]:
    """The worst Abel identity record over the grid points xs, and the
    decomposition at each; primes must reach the last of them."""
    decomps = abel_decompose_grid(xs, primes)
    if not decomps:
        return [], []
    tol = cfg.tolerance("abel_identity")
    records = (
        identity_record(
            "abel_identity", d.x, d.direct_S, d.boundary_term - d.integral_term, tol
        )
        for d in decomps
    )
    # max keeps the first of equal residuals
    return [max(records, key=lambda r: r.residual)], decomps


def run_verification(
    cfg: RunConfig, result: RunResult
) -> list[VerificationRecord]:
    """The full check suite over one run's outputs.

    The pair, jump and Abel checks share one sieve of the primes they
    need, up to JUMP_SCAN_CAP at most; the records come in a fixed order.
    """
    series = CheckpointSeries(result.checkpoints)
    n_pair = min(PAIR_N_CAP, result.state.n)
    x_jump = min(float(cfg.x_max), float(JUMP_SCAN_CAP))
    abel_xs = _abel_xs(series)
    primes = prime_array(
        max(pair_prime_bound(n_pair), int(x_jump), int(max(abel_xs, default=0.0))),
        segment_size=cfg.segment_size,
    )
    records = check_pair_identity(
        n_pair, tolerance=cfg.tolerance("pair_identity"), primes=primes
    )
    records.append(
        check_jump_identity(
            x_jump, tolerance=cfg.tolerance("jump_identity"), primes=primes
        )
    )
    records.append(check_E_monotone(result.checkpoints))
    records.append(
        scale_identity_record(result.checkpoints, cfg.tolerance("scale_identity"))
    )
    records.append(ratio_positivity_record(result.checkpoints, result.an_sn_samples))
    try:
        records.append(mertens_contraction_record(result.checkpoints))
    except ConfigError:
        pass  # windows not populated at this x_max
    records.extend(_abel_records(cfg, abel_xs, primes)[0])
    quad_tol = cfg.tolerance("main_term") / 10.0
    for x in sorted({min(cfg.x_max, 10**3), min(cfg.x_max, 10**6)}):
        records.append(main_term_identity(float(x), quad_tol))
    records.extend(_block_checks(cfg, series)[0])
    return records


def write_verification_csv(path: Path, records: list[VerificationRecord]) -> None:
    rows = ["check_id,location,lhs,rhs,residual,tolerance,pass"]
    for r in records:
        rows.append(
            f"{r.check_id},{_fmt(r.location)},{_fmt(r.lhs)},{_fmt(r.rhs)},"
            f"{_fmt(r.residual)},{_fmt(r.tolerance)},{'1' if r.passed else '0'}"
        )
    path.write_text("\n".join(rows) + "\n")


def cmd_verify(cfg: RunConfig) -> tuple[list[VerificationRecord], int]:
    """Run every check; exit status 0 iff all records pass.

    With resume_from set, checkpoints are loaded from that file (after
    hash validation) instead of being recomputed.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.resume_from is not None:
        stored = read_checkpoint_file(cfg.resume_from)
        if stored.config_hash != cfg.config_hash():
            raise CheckpointFormatError(
                f"{cfg.resume_from}: config hash mismatch, refusing to verify"
            )
        result = RunResult(stored.checkpoints, stored.state, stored.an_sn_samples)
    else:
        result = run_stream(
            float(cfg.x_max),
            cfg.grid(),
            segment_size=cfg.segment_size,
            threads=cfg.threads,
        )
    records = run_verification(cfg, result)
    write_verification_csv(cfg.out_dir / "verification.csv", records)
    status = 0 if all(r.passed for r in records) else 1
    return records, status


def _record_dict(r: VerificationRecord) -> dict:
    return {
        "check_id": r.check_id,
        "location": r.location,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "residual": r.residual,
        "tolerance": r.tolerance,
        "pass": r.passed,
    }


def _band_dict(b: RatioBand) -> dict:
    return {
        "name": b.name,
        "x_min": b.x_min,
        "x_max": b.x_max,
        "inf_value": b.inf_value,
        "inf_at": b.inf_at,
        "sup_value": b.sup_value,
        "sup_at": b.sup_at,
    }


def build_report_bundle(cfg: RunConfig, stored: StoredRun) -> dict:
    """Assemble the JSON bundle from a stored run."""
    t0 = time.monotonic()
    result = RunResult(stored.checkpoints, stored.state, stored.an_sn_samples)
    series = CheckpointSeries(stored.checkpoints)

    band_lo = 1e3 if any(cp.x >= 1e3 for cp in stored.checkpoints) else (
        stored.checkpoints[0].x
    )
    bands = empirical_constants(stored.checkpoints, band_lo)
    try:
        bands.append(an_sn_band(stored.an_sn_samples))
    except ConfigError:
        pass

    records = [check_E_monotone(stored.checkpoints)]
    block_recs, stats = _block_checks(cfg, series)
    records.extend(block_recs)
    abel_xs = _abel_xs(series)
    abel_recs, decomps = _abel_records(
        cfg,
        abel_xs,
        prime_array(int(max(abel_xs, default=0.0)), segment_size=cfg.segment_size),
    )
    records.extend(abel_recs)
    records.append(
        scale_identity_record(stored.checkpoints, cfg.tolerance("scale_identity"))
    )
    records.append(
        ratio_positivity_record(stored.checkpoints, stored.an_sn_samples)
    )
    try:
        records.append(mertens_contraction_record(stored.checkpoints))
    except ConfigError:
        pass

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
        "checkpoints": [
            {name: getattr(cp, name) for name in CSV_COLUMNS}
            for cp in stored.checkpoints
        ],
        "verification_records": [_record_dict(r) for r in records],
        "ratio_bands": [_band_dict(b) for b in bands],
        "block_stats": [
            {
                "x": s.x,
                "lambda": s.lam,
                "x_lower": s.x_lower,
                "delta_S": s.delta_S,
                "delta_pi": s.delta_pi,
                "lower": s.lower,
                "upper": s.upper,
            }
            for s in stats
        ],
        "abel_decompositions": [
            {
                "x": d.x,
                "direct_S": d.direct_S,
                "boundary_term": d.boundary_term,
                "integral_term": d.integral_term,
                "residual": d.residual,
            }
            for d in decomps
        ],
    }


def cmd_report(cfg: RunConfig, checkpoint_file: Path) -> Path:
    """Emit report.json and one plot-ready CSV per tracked series."""
    stored = read_checkpoint_file(checkpoint_file)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    bundle = build_report_bundle(cfg, stored)
    out = cfg.out_dir / "report.json"
    out.write_text(json.dumps(bundle, indent=2, sort_keys=True, allow_nan=False) + "\n")

    for name in ("S", "M", "E") + BAND_SERIES:
        rows = ["x,value"]
        for cp in stored.checkpoints:
            rows.append(f"{_fmt(cp.x)},{_fmt(getattr(cp, name))}")
        (cfg.out_dir / f"series_{name}.csv").write_text("\n".join(rows) + "\n")
    rows = ["n,value"]
    for n, value in stored.an_sn_samples:
        rows.append(f"{n},{_fmt(value)}")
    (cfg.out_dir / "series_anS.csv").write_text("\n".join(rows) + "\n")
    return out
