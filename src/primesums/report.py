"""Run configuration, checkpoint persistence with resume, the check
registry, and reports.

File formats
------------
Checkpoint file (format 4): text lines but for the table.  A header with
the format version, a hash of the accumulation-relevant config fields and
creation metadata, then the full accumulator state (its slots in
SumState.__slots__ order, the exact sums as integers in units of 2**-120),
a_n*S_{n-1} at the power-of-two n, the `x pi S M` table (checkpoint_table
derives the rest) as `rows <k> <base64>` lines of k binary _ROW records,
_CHUNK records a line, and `end <row count> <crc32>` last, the CRC-32 of
every byte before that line.  The records hold the doubles themselves, so
a restored run continues bit-identically.

CSV: header row `x,pi,S,M,E,r_S,r_E_pi,r_E_x,mertens_remainder`, one row
per checkpoint, 17-digit reals.  No timestamps, so identical configs give
byte-identical bodies.

JSON bundle (format 2): config echo, verification records, ratio bands,
block stats, abel decompositions, and run metadata.  No checkpoint table:
report writes that as checkpoints.csv beside it.

Tables stay columns (a dataclass of equal-length arrays) from the code
that computes them to the writers; rows exist only inside the writers.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from . import __version__
from .accumulate import (
    MAX_GRID_POINTS,
    Checkpoint,
    RunResult,
    SumState,
    checkpoint_table,
    grid_points,
    run_stream,
    weights,
)
from .asymptotics import (
    Blocks,
    an_sn_band,
    block_sandwich,
    empirical_constants,
    lower_bound_check,
    mertens_contraction_record,
    ratio_positivity_record,
    sandwich_records,
    scale_identity_record,
)
# perfbench/trace.py times a pass by rebinding module names, which the code
# looks up when it calls them: here write_checkpoint_file, write_csv,
# read_checkpoint_file, resume, build_report_bundle, check_pair_identity,
# check_jump_identity, abel_decompose, main_term_identity, block_sandwich,
# lower_bound_check and sandwich_records; cli's three cmd_ names;
# accumulate.snapshot and verify.term_stream.  No command calls
# abel_decompose, snapshot or term_stream: they stay, and abel_decompose is
# imported here, only so that the tracer finds them.
from .calculus import (  # noqa: F401
    QUADRATURE_TOL_FLOOR,
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
    pair_prime_bound,
    worst_record,
)

FORMAT_VERSION = 4  # of the checkpoint file
_MAGIC = f"primesums-checkpoints v{FORMAT_VERSION}"
BUNDLE_FORMAT_VERSION = 2  # of report.json

CSV_COLUMNS = tuple(f.name for f in fields(Checkpoint))
# one CSV row: x, pi as an integer, then the reals, each with 17 digits
_CSV_ROW = ",".join(["%.17g", "%d", *["%.17g"] * (len(CSV_COLUMNS) - 2)])
# a record of the checkpoint file's table, little-endian on every host:
# what checkpoint_table takes
_ROW = np.dtype([("x", "<f8"), ("pi", "<i8"), ("S", "<f8"), ("M", "<f8")])
# report.json keys that differ from the dataclass field names
_JSON_NAMES = {"passed": "pass", "lam": "lambda"}

# streaming checks beyond this x cost more than they inform; the jump
# residual also drifts toward its 1e-9 tolerance at 1e8-scale S values
JUMP_SCAN_CAP = 10**6
ABEL_GRID_CAP = 10**6
PAIR_N_CAP = 5000
_CHUNK = 4096  # table rows encoded at a time


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _table_chunks(table: Checkpoint) -> Iterator[str]:
    """The CSV rows of the checkpoint table, _CHUNK rows at a time, joined
    by newlines.  A chunk is formatted by one C-level % call: its columns
    are stacked into one float64 array and fed to a template of one "%.17g"
    or "%d" field per cell.  The stack is exact, since pi < x <=
    sieve.MAX_LIMIT = 2**53 and every integer up to 2**53 is a double;
    '%d' prints such a double as the integer, and '%.17g' % v gives the
    bytes of f"{v:.17g}" for every double.  Memory holds one chunk's text,
    never the whole table."""
    for i in range(0, len(table), _CHUNK):
        cells = np.column_stack([getattr(table, name)[i : i + _CHUNK] for name in CSV_COLUMNS])
        yield "\n".join([_CSV_ROW] * len(cells)) % tuple(cells.ravel().tolist())


def _row_records(table: Checkpoint) -> Iterator[str]:
    """The checkpoint file's table, _CHUNK rows a line: `rows <k>` and the
    base64 of k _ROW records, the columns' own bits, no value formatted."""
    for i in range(0, len(table), _CHUNK):
        records = np.empty(min(_CHUNK, len(table) - i), dtype=_ROW)
        for name in _ROW.names:
            records[name] = getattr(table, name)[i : i + _CHUNK]
        yield f"rows {len(records)} {base64.b64encode(records.tobytes()).decode('ascii')}"


def _decode_rows(count: str, data: str) -> bytes:
    """The bytes of the _ROW records of one `rows` line, refused unless
    they are count whole records."""
    records = base64.b64decode(data, validate=True)
    if len(records) != int(count) * _ROW.itemsize:
        raise ValueError(
            f"rows line declares {count} records, holds {len(records) / _ROW.itemsize:g}"
        )
    return records


def _checksummed(lines: Iterable[str], count: int) -> Iterator[str]:
    """lines, then `end <count> <crc32>`: the CRC-32 of every byte of lines,
    each with its newline, as 8 hex digits."""
    crc = 0
    for line in lines:
        crc = zlib.crc32(f"{line}\n".encode("ascii"), crc)
        yield line
    yield f"end {count} {crc:08x}"


def _json(record) -> dict:
    """A flat dataclass as its report.json object (a shallow asdict)."""
    return {_JSON_NAMES.get(k, k): v for k, v in vars(record).items()}


def _json_rows(table) -> list[dict]:
    """A column table (a dataclass of equal-length arrays) as report.json
    row objects, one per row, with the keys _json gives the columns."""
    cols = _json(table)
    return [dict(zip(cols, row)) for row in zip(*(v.tolist() for v in cols.values()))]


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """The one file writer: a sibling temporary file that replaces path when
    the block completes, and is removed, leaving path as it was, if it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # already gone after the replace


def _write_lines(path: Path, *parts: Iterable[str]) -> None:
    """Write the items of each part in turn, each ended by a newline, one
    at a time: an item is one line, or a chunk of table rows, so memory
    never holds the whole file."""
    with _replacing(path) as fh:
        for line in chain(*parts):
            fh.write(line + "\n")


@dataclass
class RunConfig:
    """Everything a compute/verify/report invocation needs.  With a checkpoint
    file, x_max, grid_start and grid_ratio may be None: its header answers them."""

    x_max: int | None
    grid_start: float | None = 100.0
    grid_ratio: float | None = 2.0**0.25
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
        if None not in (self.x_max, self.grid_start, self.grid_ratio):
            # else these run again once a header has answered the Nones
            if not 3.0 <= self.grid_start < math.inf:
                raise ConfigError(f"grid_start must be finite and >= 3, got {self.grid_start}")
            if self.x_max < self.grid_start:
                raise ConfigError(f"x_max {self.x_max} below grid_start {self.grid_start}")
            if not 1.0 < self.grid_ratio < math.inf:
                raise ConfigError(f"grid_ratio must be finite and > 1, got {self.grid_ratio}")
            # grid_points' own cap, from the closed-form count of its lattice points
            if math.log(self.x_max / self.grid_start) / math.log(self.grid_ratio) > MAX_GRID_POINTS:
                raise ConfigError("grid ratio too close to 1: more than 1e7 points")
            # the sieve's bounds, checked before anything is allocated
            SieveConfig(limit=self.x_max, segment_size=self.segment_size)
        if not 1.0 < self.A < math.inf:
            raise ConfigError(f"A must be finite and > 1, got {self.A}")
        if not all(1.0 < lam < math.inf for lam in self.lambdas):
            raise ConfigError(f"every lambda must be finite and > 1, got {self.lambdas}")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(
                f"no tolerance to set for {unknown}: the exact checks "
                f"({', '.join(EXACT_CHECKS)}) take none, and other ids are not checks"
            )
        bad = {k: v for k, v in self.tolerances.items() if not 0.0 <= v < math.inf}
        if bad:
            raise ConfigError(f"tolerances must be finite and >= 0, got {bad}")
        main = self.tolerance("main_term")
        if main / 10.0 < QUADRATURE_TOL_FLOOR:  # _main_term's quadrature tolerance
            raise ConfigError(f"main_term tolerance must be >= 1e-11, got {main}")

    def tolerance(self, check_id: str) -> float | None:
        """The check's tolerance; None for an exact check."""
        return self.tolerances.get(check_id, DEFAULT_TOLERANCES.get(check_id))

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


def write_checkpoint_file(path: Path, cfg: RunConfig, result: RunResult) -> None:
    state_row = (getattr(result.state, name) for name in SumState.__slots__)
    head = chain(
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
        (f"anS {n} {_fmt(value)}" for n, value in result.power_samples),
        _row_records(result.checkpoints),
    )
    _write_lines(path, _checksummed(head, len(result.checkpoints)))


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


def read_checkpoint_file(path: Path, cfg: RunConfig | None = None, *, extend=False) -> RunResult:
    """Parse a checkpoint file, one line at a time, its records into columns.

    With cfg, the stored run is its own config: the header fills in, in
    place, what cfg leaves None of x_max, grid_start and grid_ratio, and
    refuses another grid (CheckpointFormatError, by the config hash) and,
    unless extend (x_max is a resume's target), another x_max (ConfigError).
    """
    try:
        with open(path, "rb") as fh:
            head = [fh.readline() for _ in range(8)]  # magic, 6 header lines, state
            if head[0].rstrip(b"\n") != _MAGIC.encode():
                raise CheckpointFormatError(
                    f"{path}: not a checkpoint file (expected header {_MAGIC!r})"
                )
            crc = zlib.crc32(b"".join(head))  # of every line before the end marker
            header = dict(line.decode("ascii").split() for line in head[1:7])
            tag, *values = head[7].decode("ascii").split()
            if tag != "state":
                raise CheckpointFormatError(f"{path}: missing state row")
            state = _parse_state(path, values)
            samples: list[tuple[int, float]] = []
            records = bytearray()
            end = None
            for raw in fh:
                tag, *values = raw.decode("ascii").split()
                if tag == "end":
                    end = values
                    break
                crc = zlib.crc32(raw, crc)
                if tag == "rows":
                    records += _decode_rows(*values)
                elif tag == "anS":
                    n, value = values
                    samples.append((int(n), float(value)))
                else:
                    raise CheckpointFormatError(f"{path}: unknown row tag {tag!r}")
            if end is None:
                raise CheckpointFormatError(f"{path}: truncated (no end marker)")
            if fh.readline():
                raise CheckpointFormatError(f"{path}: lines after the end marker")
        count, checksum = end
        if checksum != f"{crc:08x}":
            raise CheckpointFormatError(
                f"{path}: checksum mismatch (crc32 {checksum} declared, "
                f"{crc:08x} computed): the file was altered or damaged"
            )
        found = len(records) // _ROW.itemsize
        if int(count) != found:
            raise CheckpointFormatError(
                f"{path}: row count mismatch ({count} declared, {found} found)"
            )
        if not found:
            raise CheckpointFormatError(f"{path}: no checkpoint rows")
        cells = np.frombuffer(records, dtype=_ROW)  # the records, not copied
        x = cells["x"]
        bad = np.flatnonzero(~(x[:-1] < x[1:]))
        if len(bad):
            raise CheckpointFormatError(
                f"{path}: checkpoint x={float(x[bad[0] + 1])!r} does not follow "
                f"x={float(x[bad[0]])!r} in strictly ascending order"
            )
        if cfg is not None:
            for name, kind in (("x_max", int), ("grid_start", float), ("grid_ratio", float)):
                if getattr(cfg, name) is None:
                    setattr(cfg, name, kind(header[name]))
            cfg.__post_init__()  # the answered fields' own checks
            if header["config_hash"] != cfg.config_hash():
                raise CheckpointFormatError(
                    f"{path}: config hash {header['config_hash']} does not match "
                    f"current accumulation config {cfg.config_hash()} "
                    "(grid_start/grid_ratio changed; start a fresh run instead)"
                )
            if not extend and cfg.x_max != int(header["x_max"]):
                raise ConfigError(f"{path} holds a run to x_max={header['x_max']}, not "
                                  f"{cfg.x_max}: leave --x-max out to take the file's")
        return RunResult(checkpoint_table(*(cells[name] for name in _ROW.names)), state, samples)
    except (CheckpointFormatError, ConfigError):
        raise
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint file {path}: {exc}")
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint file: {exc}")


def write_csv(path: Path, checkpoints: Checkpoint) -> None:
    _write_lines(path, [",".join(CSV_COLUMNS)], _table_chunks(checkpoints))


def resume(path: Path, cfg: RunConfig) -> tuple[RunResult, np.ndarray]:
    """Read a stored run into cfg (read_checkpoint_file, extend) and plan the
    continuation: the stored run cut to cfg's grid, and the points left.

    Both grids are the points start * ratio**k below their x_max, then x_max,
    with one start and ratio (the config hash): the rows they share are a
    common prefix.  Refuses (ConfigError) an x_max below the stored state."""
    stored = read_checkpoint_file(path, cfg, extend=True)
    grid = np.asarray(cfg.grid())
    n = min(len(stored.checkpoints), len(grid))
    # the first row where they differ, or n
    k = int(np.argmin(np.append(stored.checkpoints.x[:n] == grid[:n], False)))
    kept, remaining = stored.checkpoints.select(slice(0, k)), grid[k:]
    last = stored.state.last_prime
    if cfg.x_max < last or (len(remaining) and remaining[0] < last):
        raise ConfigError(
            f"cannot resume to x_max={cfg.x_max}: stored state already covers "
            f"primes to {last}"
        )
    return RunResult(kept, stored.state, stored.power_samples), remaining


def cmd_compute(cfg: RunConfig) -> RunResult:
    """Sieve to x_max, accumulate, and write the checkpoint file and CSV.

    Deterministic and idempotent for a fixed config; with resume_from the
    stored state continues bit-identically to an uninterrupted run.
    """
    if cfg.resume_from is not None:
        result, grid = resume(cfg.resume_from, cfg)
    else:
        result, grid = RunResult(checkpoint_table([], [], [], []), SumState(), []), cfg.grid()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if len(grid):
        new = run_stream(float(cfg.x_max), grid, segment_size=cfg.segment_size,
                         state=result.state, samples=result.power_samples)
        stored, added = vars(result.checkpoints).values(), vars(new.checkpoints).values()
        table = Checkpoint(*map(np.concatenate, zip(stored, added)))
        result = RunResult(table, new.state, new.power_samples)
    if len(grid) or cfg.checkpoint_path() != cfg.resume_from:
        # a completed run resumed in place leaves its file alone
        write_checkpoint_file(cfg.checkpoint_path(), cfg, result)
    write_csv(cfg.csv_path(), result.checkpoints)
    return result


@dataclass
class RunContext:
    """What the checks over one run share: one prime array, and the block
    and Abel passes, each computed on first use."""

    cfg: RunConfig
    result: RunResult

    def __post_init__(self) -> None:
        self.n_pair = min(PAIR_N_CAP, self.result.state.n)
        self.x_jump = min(float(self.cfg.x_max), float(JUMP_SCAN_CAP))
        x = self.result.checkpoints.x
        self.abel_xs = x[x <= ABEL_GRID_CAP]

    @cached_property
    def primes(self) -> np.ndarray:
        """Every prime the pair, jump and Abel checks read."""
        top = max(pair_prime_bound(self.n_pair), self.x_jump, self.abel_xs.max(initial=0.0))
        return prime_array(int(top), segment_size=self.cfg.segment_size)

    def prime_weights(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The weights of the first n primes and their squares, as the
        accumulator sums them."""
        w = weights(self.primes[:n])
        return w, w * w

    @cached_property
    def blocks(self) -> Blocks:
        return block_sandwich(self.result.checkpoints, self.cfg.lambdas)

    @cached_property
    def abel(self) -> tuple[list[VerificationRecord], AbelDecomposition]:
        return _abel_records(self.cfg, self.abel_xs, self.primes)


@dataclass(frozen=True)
class Check:
    """One registry entry: a check id, its default tolerance (None for an
    exact check, which takes no --tol), the commands that run it, and its
    records given the run and the tolerance."""

    check_id: str
    tolerance: float | None
    commands: tuple[str, ...]
    run: Callable[[RunContext, float | None], list[VerificationRecord]]


def _abel_records(
    cfg: RunConfig, xs: np.ndarray, primes: np.ndarray
) -> tuple[list[VerificationRecord], AbelDecomposition]:
    """The worst Abel identity record over the grid points xs, and the
    decomposition columns; primes must reach the last of them."""
    abel = abel_decompose_grid(xs, primes)
    if not len(abel.x):
        return [], abel
    tol = cfg.tolerance("abel_identity")
    rhs = abel.boundary_term - abel.integral_term
    return [worst_record("abel_identity", abel.x, abel.direct_S, rhs, tol)], abel


def _mertens_contraction(ctx: RunContext, tol: float | None) -> list[VerificationRecord]:
    try:
        return [mertens_contraction_record(ctx.result.checkpoints)]
    except ConfigError:
        return []  # windows not populated at this x_max


def _main_term(ctx: RunContext, tol: float) -> list[VerificationRecord]:
    """At 1e3 and 1e6 (or x_max below them), with the quadrature at a
    tenth of the check's tolerance."""
    xs = sorted({min(ctx.cfg.x_max, 10**3), min(ctx.cfg.x_max, 10**6)})
    return [main_term_identity(float(x), tol / 10.0) for x in xs]


_V, _VR = ("verify",), ("verify", "report")
# The registry, in verification.csv order.  Every entry looks the check
# functions up in this module when it runs, so rebinding one here (as the
# tests and the benchmark's tracer do) reaches verify and report alike.
CHECKS = (
    Check("pair_identity", 1e-10, _V, lambda c, tol: check_pair_identity(
        *c.prime_weights(c.n_pair), tolerance=tol)),
    Check("jump_identity", 1e-9, _V, lambda c, tol: [check_jump_identity(
        *c.prime_weights(int(np.searchsorted(c.primes, c.x_jump, side="right"))),
        tolerance=tol)]),
    Check("e_monotone", None, _VR, lambda c, tol: [check_E_monotone(c.result.checkpoints)]),
    Check("scale_identity", 1e-12, _VR, lambda c, tol: [scale_identity_record(
        c.result.checkpoints, tol)]),
    Check("ratio_positive", None, _VR, lambda c, tol: [ratio_positivity_record(
        c.result.checkpoints, c.result.an_sn_samples)]),
    Check("mertens_contraction", None, _VR, _mertens_contraction),
    Check("abel_identity", 1e-8, _VR, lambda c, tol: c.abel[0]),
    Check("main_term", 1e-8, _V, _main_term),
    Check("block_sandwich", 1e-12, _VR, lambda c, tol: sandwich_records(c.blocks, tol)),
    Check("lower_bound", 1e-12, _VR, lambda c, tol: lower_bound_check(
        c.result.checkpoints, c.cfg.A, tol)),
)
DEFAULT_TOLERANCES: dict[str, float] = {
    c.check_id: c.tolerance for c in CHECKS if c.tolerance is not None
}
EXACT_CHECKS = tuple(c.check_id for c in CHECKS if c.tolerance is None)


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

    With resume_from set, the run is read from that file, which answers
    cfg's unset fields (see read_checkpoint_file), instead of recomputed.
    """
    if cfg.resume_from is not None:
        result = read_checkpoint_file(cfg.resume_from, cfg)
    else:
        result = run_stream(float(cfg.x_max), cfg.grid(), segment_size=cfg.segment_size)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    records = run_checks(RunContext(cfg, result), "verify")
    write_verification_csv(cfg.out_dir / "verification.csv", records)
    status = 0 if all(r.passed for r in records) else 1
    return records, status


def build_report_bundle(cfg: RunConfig, stored: RunResult) -> dict:
    """Assemble the JSON bundle from a stored run and its config, as
    read_checkpoint_file has reconciled them."""
    t0 = time.monotonic()
    ctx = RunContext(cfg, stored)
    x = stored.checkpoints.x
    band_lo = 1e3 if x[-1] >= 1e3 else float(x[0])
    bands = empirical_constants(stored.checkpoints, band_lo)
    try:
        bands.append(an_sn_band(stored.an_sn_samples))
    except ConfigError:
        pass
    records = run_checks(ctx, "report")

    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "config": {
            "x_max": cfg.x_max,
            "grid_start": cfg.grid_start,
            "grid_ratio": cfg.grid_ratio,
            "segment_size": cfg.segment_size,
            "A": cfg.A,
            "lambdas": list(cfg.lambdas),
            "config_hash": cfg.config_hash(),
        },
        "metadata": {
            "library_version": __version__,
            "prime_count": stored.state.n,
            "last_prime": stored.state.last_prime,
            "report_wall_time_s": time.monotonic() - t0,
        },
        "verification_records": [_json(r) for r in records],
        "ratio_bands": [_json(b) for b in bands],
        "block_stats": _json_rows(ctx.blocks),
        "abel_decompositions": _json_rows(ctx.abel[1]),
    }


def cmd_report(cfg: RunConfig, checkpoint_file: Path) -> Path:
    """Emit report.json, the run's checkpoints.csv and series_anS.csv."""
    stored = read_checkpoint_file(checkpoint_file, cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    bundle = build_report_bundle(cfg, stored)
    out = cfg.out_dir / "report.json"
    with _replacing(out) as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    write_csv(cfg.csv_path(), stored.checkpoints)
    samples = (f"{n},{_fmt(value)}" for n, value in stored.an_sn_samples)
    _write_lines(cfg.out_dir / "series_anS.csv", ["n,value"], samples)
    return out
