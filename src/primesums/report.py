"""Run configuration, checkpoint persistence with resume, the check
registry, and reports.

File formats
------------
Checkpoint file (format 6): the magic line, one json header line, the
table, and `end <crc32>` last, the CRC-32 of every byte before that line.
The header's keys: anS (a_n*S_{n-1} at the power-of-two n), config_hash
(of the accumulation-relevant config fields), created, csv (the byte
length and CRC-32 of the checkpoints.csv written beside it), grid_ratio,
grid_start, rows, segment_size, state (the accumulator's slots, the exact
sums as integers in units of 2**-120) and x_max.  The `x pi S M` table
(checkpoint_table derives the rest) follows as lines of the base64 of up
to _CHUNK binary _ROW records.  The records hold the doubles themselves,
and json the sums as integers, so a restored run continues bit-identically.

CSV: header row `x,pi,S,M,E,r_S,r_E_pi,r_E_x,mertens_remainder`, one row
per checkpoint, 17-digit reals.  No timestamps, so identical configs give
byte-identical bodies.  Rows are formatted by csvcodec.encode_rows, the
bytes of the _CSV_ROW template's `%` on whole numpy columns, _CHUNK rows
at a time; series_anS.csv goes through it too.  A resume or report copies
the rows it keeps from the stored CSV, when the checkpoint file's digest
vouches for its bytes, and formats only the others.

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
import operator
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .accumulate import (
    Checkpoint,
    RunResult,
    SumState,
    check_grid,
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
# accumulate.snapshot and verify.term_stream.  No command calls snapshot
# or term_stream: they stay only so that the tracer finds them.
from .calculus import (
    QUADRATURE_TOL_FLOOR,
    AbelDecomposition,
    abel_decompose,
    main_term_identity,
)
from .csvcodec import encode_rows
from .errors import CheckpointFormatError, ConfigError
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, prime_array
from .verify import (
    VerificationRecord,
    check_E_monotone,
    check_jump_identity,
    check_pair_identity,
    worst_record,
)

FORMAT_VERSION = 6  # of the checkpoint file
_MAGIC = f"primesums-checkpoints v{FORMAT_VERSION}"
BUNDLE_FORMAT_VERSION = 2  # of report.json

CSV_COLUMNS = tuple(f.name for f in fields(Checkpoint))
# one CSV line: x, pi as an integer, then the reals, each with 17 digits
_CSV_ROW = ",".join(["%.17g", "%d", *["%.17g"] * (len(CSV_COLUMNS) - 2)]).encode() + b"\n"
# a record of the checkpoint file's table, little-endian on every host:
# what checkpoint_table takes
_ROW = np.dtype([("x", "<f8"), ("pi", "<i8"), ("S", "<f8"), ("M", "<f8")])
# report.json keys that differ from the dataclass field names
_JSON_NAMES = {"passed": "pass", "lam": "lambda"}

# the jump scan and the Abel pass read the primes up to this x: beyond it
# they cost more than they inform, and the jump residual drifts toward its
# 1e-9 tolerance at 1e8-scale S values
SCAN_CAP = 10**6
PAIR_N_CAP = 5000
_CHUNK = 4096  # table rows encoded at a time
_BLOCK = 1 << 20  # bytes of a stored CSV read at a time


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_chunks(template: bytes, columns: list[np.ndarray]) -> Iterator[bytes]:
    """The CSV lines of the columns by the row template, each ended by a
    newline, as ASCII bytes, _CHUNK rows at a time (csvcodec.encode_rows).
    Memory holds one chunk's text, never the whole table."""
    for i in range(0, len(columns[0]), _CHUNK):
        yield encode_rows(template, [c[i : i + _CHUNK] for c in columns])


def _table_chunks(table: Checkpoint) -> Iterator[bytes]:
    """The checkpoint table's CSV lines by _CSV_ROW, _CHUNK rows at a time."""
    return _csv_chunks(_CSV_ROW, [getattr(table, name) for name in CSV_COLUMNS])


def _row_records(table: Checkpoint) -> Iterator[bytes]:
    """The checkpoint file's table, _CHUNK rows a line: the base64 of up to
    _CHUNK _ROW records, the columns' own bits, no value formatted."""
    for i in range(0, len(table), _CHUNK):
        records = np.empty(min(_CHUNK, len(table) - i), dtype=_ROW)
        for name in _ROW.names:
            records[name] = getattr(table, name)[i : i + _CHUNK]
        yield base64.b64encode(records.tobytes()) + b"\n"


def _json(record) -> dict:
    """A flat dataclass as its report.json object (a shallow asdict)."""
    return {_JSON_NAMES.get(k, k): v for k, v in vars(record).items()}


def _json_rows(table) -> list[dict]:
    """A column table (a dataclass of equal-length arrays) as report.json
    row objects, one per row, with the keys _json gives the columns."""
    cols = _json(table)
    return [dict(zip(cols, row)) for row in zip(*(v.tolist() for v in cols.values()))]


@contextmanager
def _replacing(path: Path, mode: str = "w") -> Iterator[IO]:
    """The one file writer: a sibling temporary file that replaces path when
    the block completes, and is removed, leaving path as it was, if it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # already gone after the replace


def _write_bytes(path: Path, blocks: Iterable[bytes], sealed: bool = False) -> tuple[int, int]:
    """Write blocks in turn to path (through _replacing), then, if sealed,
    `end <crc32>`: the CRC-32 of every byte before that line, as 8 hex
    digits.  Return the (byte length, CRC-32) of blocks.  A block is a line
    or a chunk of table rows, so memory never holds the whole file."""
    size = crc = 0
    with _replacing(path, "wb") as fh:
        for block in blocks:
            fh.write(block)
            size += len(block)
            crc = zlib.crc32(block, crc)
        if sealed:
            fh.write(b"end %08x\n" % crc)
    return size, crc


@dataclass
class RunConfig:
    """Everything a compute/verify/report invocation needs.  resume_from is
    the stored run, which compute continues and verify and report read; its
    header answers x_max, grid_start and grid_ratio where they are None."""

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
        if self.x_max is not None:
            try:  # an int, as the checkpoint file's header types it
                self.x_max = operator.index(self.x_max)
            except TypeError:
                raise ConfigError(f"x_max must be an integer, got {self.x_max!r}") from None
        if None not in (self.x_max, self.grid_start, self.grid_ratio):
            # else these run again once a header has answered the Nones
            check_grid(self.grid_start, self.x_max, self.grid_ratio)
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


def _typed(name: str, value, kind: type):
    """value, as json.loads typed it, refused unless it is a kind: no value
    is cast, so an exact sum is no float, a count no 1.5, the flag no 0/1."""
    if type(value) is not kind:
        raise TypeError(f"{name}={value!r} is not of type {kind.__name__}")
    return value


@dataclass
class StoredRun(RunResult):
    """A run read back from its checkpoint file: the file's path, and the
    (byte length, CRC-32) of the checkpoints.csv written beside it."""

    csv_digest: tuple[int, int]
    path: Path


def write_checkpoint_file(
    path: Path, cfg: RunConfig, result: RunResult, csv_digest: tuple[int, int]
) -> None:
    header = {
        "anS": result.power_samples,
        "config_hash": cfg.config_hash(),
        "created": datetime.now(timezone.utc).isoformat(),
        "csv": csv_digest,
        "grid_ratio": float(cfg.grid_ratio),
        "grid_start": float(cfg.grid_start),
        "rows": len(result.checkpoints),
        "segment_size": cfg.segment_size,
        # the exact sums as integers, which json writes and reads exactly
        "state": {name: getattr(result.state, name) for name in SumState.__slots__},
        "x_max": cfg.x_max,
    }
    head = f"{_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode("ascii")
    _write_bytes(path, chain([head], _row_records(result.checkpoints)), sealed=True)


def read_checkpoint_file(path: Path, cfg: RunConfig | None = None, *, extend=False) -> StoredRun:
    """Parse a checkpoint file, one line at a time: its header by json.loads,
    which types every value, and its records into columns.

    With cfg, the stored run is its own config: the header fills in, in
    place, what cfg leaves None of x_max, grid_start and grid_ratio, and
    refuses another grid (CheckpointFormatError, by the config hash) and,
    unless extend (x_max is a resume's target), another x_max (ConfigError).
    """
    try:
        with open(path, "rb") as fh:
            magic, head = fh.readline(), fh.readline()
            if magic.rstrip(b"\n") != _MAGIC.encode():
                raise CheckpointFormatError(
                    f"{path}: not a checkpoint file (expected header {_MAGIC!r})"
                )
            crc = zlib.crc32(head, zlib.crc32(magic))  # of every line before the end marker
            records = bytearray()
            for line in fh:
                if line.startswith(b"end "):
                    break
                crc = zlib.crc32(line, crc)
                records += base64.b64decode(line.rstrip(b"\n"), validate=True)
            else:
                raise CheckpointFormatError(f"{path}: truncated (no end marker)")
            if fh.readline():
                raise CheckpointFormatError(f"{path}: lines after the end marker")
        checksum = line[4:].rstrip(b"\n").decode("ascii")
        if checksum != f"{crc:08x}":
            raise CheckpointFormatError(
                f"{path}: checksum mismatch (crc32 {checksum} declared, "
                f"{crc:08x} computed): the file was altered or damaged"
            )
        header = json.loads(head)
        if len(records) != _typed("rows", header["rows"], int) * _ROW.itemsize:
            raise CheckpointFormatError(
                f"{path}: row count mismatch ({header['rows']} declared, "
                f"{len(records) / _ROW.itemsize:g} found)"
            )
        if not records:
            raise CheckpointFormatError(f"{path}: no checkpoint rows")
        state = SumState()
        for name in SumState.__slots__:
            setattr(state, name, _typed(name, header["state"][name], type(getattr(state, name))))
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
                    setattr(cfg, name, _typed(name, header[name], kind))
            cfg.__post_init__()  # the answered fields' own checks
            if header["config_hash"] != cfg.config_hash():
                raise CheckpointFormatError(
                    f"{path}: config hash {header['config_hash']} does not match "
                    f"current accumulation config {cfg.config_hash()} "
                    "(grid_start/grid_ratio changed; start a fresh run instead)"
                )
            if not extend and cfg.x_max != header["x_max"]:
                raise ConfigError(f"{path} holds a run to x_max={header['x_max']}, not "
                                  f"{cfg.x_max}: leave --x-max out to take the file's")
        table = checkpoint_table(*(cells[name] for name in _ROW.names))
        samples = [(_typed("anS", n, int), _typed("anS", v, float)) for n, v in header["anS"]]
        csv_size, csv_crc = header["csv"]  # of another type, they vouch for no CSV
        return StoredRun(table, state, samples, (csv_size, csv_crc), path)
    except (CheckpointFormatError, ConfigError):
        raise
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint file {path}: {exc}")
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint file: {exc}")


def _vouched_prefix(stored: StoredRun) -> int:
    """The byte length of the header and the rows of stored's table at the
    head of the checkpoints.csv beside its file, if that whole file has the
    bytes stored.csv_digest vouches for; else 0, also when there is none.
    Reads the whole file, _BLOCK bytes at a time."""
    rows = len(stored.checkpoints)
    size = crc = lines = end = 0  # lines: the newlines before this block
    try:
        with open(stored.path.with_name("checkpoints.csv"), "rb") as fh:
            while block := fh.read(_BLOCK):
                crc = zlib.crc32(block, crc)
                n = block.count(b"\n")
                if not end and lines + n > rows:  # the block holds newline number rows + 1
                    at = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
                    end = size + int(at[rows - lines]) + 1
                lines += n
                size += len(block)
    except OSError:
        return 0  # no stored CSV: every row is formatted
    return end if (size, crc) == stored.csv_digest else 0


def _csv_blocks(table: Checkpoint, stored: StoredRun | None) -> Iterator[bytes]:
    """The bytes of the table's CSV: the header and stored's rows copied
    from the CSV beside its file, if _vouched_prefix vouches for them, and
    every other row formatted by _table_chunks."""
    end = left = _vouched_prefix(stored) if stored is not None else 0
    if end:
        with open(stored.path.with_name("checkpoints.csv"), "rb") as fh:
            while left:
                block = fh.read(min(_BLOCK, left))
                if not block:
                    raise OSError(f"{fh.name} shrank while it was copied")
                left -= len(block)
                yield block
    else:
        yield (",".join(CSV_COLUMNS) + "\n").encode()
    yield from _table_chunks(table.select(slice(len(stored.checkpoints) if end else 0, None)))


def write_csv(path: Path, table: Checkpoint, stored: StoredRun | None = None) -> tuple[int, int]:
    """Write the table as CSV to path; return the (byte length, CRC-32) of
    what was written, which the checkpoint file's header records.

    stored is a run read back from its checkpoint file (or cut by resume)
    whose rows begin the table.  If the checkpoints.csv beside that file
    has exactly the bytes its digest vouches for, the header and those rows
    are copied, and only the rows after them formatted; if it is missing,
    truncated or altered, none is copied.  Either way the bytes written are
    the same."""
    return _write_bytes(path, _csv_blocks(table, stored))


def resume(path: Path, cfg: RunConfig) -> tuple[StoredRun, np.ndarray]:
    """Read a stored run into cfg (read_checkpoint_file, extend) and plan the
    continuation: the stored run cut to cfg's grid and the points left.

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
    return replace(stored, checkpoints=kept), remaining


def cmd_compute(cfg: RunConfig) -> RunResult:
    """Sieve to x_max, accumulate, and write the CSV, then the checkpoint
    file with the CSV's digest.

    Deterministic and idempotent for a fixed config; with resume_from the
    stored state continues bit-identically to an uninterrupted run, and the
    kept rows are copied from the stored CSV (see write_csv).  Both files
    are always written, so a completed run resumed in place gets the same
    bytes again.
    """
    stored, grid = (None, cfg.grid()) if cfg.resume_from is None else resume(cfg.resume_from, cfg)
    result = stored or RunResult(checkpoint_table([], [], [], []), SumState(), [])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if len(grid):
        new = run_stream(float(cfg.x_max), grid, segment_size=cfg.segment_size,
                         state=result.state, samples=result.power_samples)
        kept, added = vars(result.checkpoints).values(), vars(new.checkpoints).values()
        table = Checkpoint(*map(np.concatenate, zip(kept, added)))
        result = RunResult(table, new.state, new.power_samples)
    csv_digest = write_csv(cfg.csv_path(), result.checkpoints, stored)
    write_checkpoint_file(cfg.checkpoint_path(), cfg, result, csv_digest)
    return result


@dataclass
class RunContext:
    """What the checks over one run share: one prime array and its prefix
    sums, and the block and Abel passes, each computed on first use."""

    cfg: RunConfig
    result: RunResult

    def __post_init__(self) -> None:
        self.n_pair = min(PAIR_N_CAP, self.result.state.n)
        table = self.result.checkpoints
        self.abel_rows = table.select(table.x <= SCAN_CAP)

    @cached_property
    def primes(self) -> np.ndarray:
        """Every prime the pair, jump and Abel checks read: those up to
        min(x_max, SCAN_CAP), past every Abel row and, as SCAN_CAP is above
        the PAIR_N_CAP-th prime (48611), the pair check's n_pair primes."""
        return prime_array(min(self.cfg.x_max, SCAN_CAP), segment_size=self.cfg.segment_size)

    @cached_property
    def sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The weights of primes, and the accumulator's S_n and M_n after
        their first n: the pair and jump checks' input and Abel's M."""
        p = self.primes
        return weights(p), *SumState().extend_primes(p, marks=np.arange(len(p) + 1))

    @cached_property
    def blocks(self) -> Blocks:
        return block_sandwich(self.result.checkpoints, self.cfg.lambdas)

    @cached_property
    def abel(self) -> tuple[list[VerificationRecord], AbelDecomposition]:
        return _abel_records(self.cfg, self.abel_rows, self.primes, self.sums[2][1:])


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
    cfg: RunConfig, table: Checkpoint, primes: np.ndarray, M_primes: np.ndarray
) -> tuple[list[VerificationRecord], AbelDecomposition]:
    """The worst Abel identity record over the rows of table, its stored S
    against boundary - integral from its stored M, and the decomposition
    columns; primes must reach the last x, and M_primes holds the
    accumulator's M after each of them."""
    abel = abel_decompose(table.x, table.S, table.M, primes, M_primes)
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
        c.sums[0][: c.n_pair], *c.sums[1:], tol)),
    Check("jump_identity", 1e-9, _V, lambda c, tol: [check_jump_identity(*c.sums, tol)]),
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
    _write_bytes(path, chain(
        [b"check_id,location,lhs,rhs,residual,tolerance,pass\n"],
        (
            f"{r.check_id},{_fmt(r.location)},{_fmt(r.lhs)},{_fmt(r.rhs)},"
            f"{_fmt(r.residual)},{_fmt(r.tolerance)},{'1' if r.passed else '0'}\n".encode()
            for r in records
        ),
    ))


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


def cmd_report(cfg: RunConfig) -> Path:
    """Emit report.json, the run's checkpoints.csv (copied from the stored
    CSV where its digest vouches for it) and series_anS.csv, from the
    stored run in cfg.resume_from, which answers cfg's unset fields."""
    if cfg.resume_from is None:
        raise ConfigError("report reads a stored run: resume_from names no checkpoint file")
    stored = read_checkpoint_file(cfg.resume_from, cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    bundle = build_report_bundle(cfg, stored)
    out = cfg.out_dir / "report.json"
    with _replacing(out) as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    write_csv(cfg.csv_path(), stored.checkpoints, stored)
    samples = stored.an_sn_samples
    columns = [np.array([n for n, _ in samples], dtype=np.int64),
               np.array([v for _, v in samples], dtype=np.float64)]
    _write_bytes(cfg.out_dir / "series_anS.csv",
                 chain([b"n,value\n"], _csv_chunks(b"%d,%.17g\n", columns)))
    return out
