"""Run configuration, checkpoint persistence with resume, the check
registry, and reports.

Checks
------
Most checks read the stored table.  The pair, jump and Abel identities
also read every prime to min(x_max, SCAN_CAP), as folds over one block
pass (RunContext.scan), so verify and report hold one block of check
primes, never an array of them all.

File formats
------------
Checkpoint file (format 6): the magic line, one json header line, the
table, and `end <crc32>` last, the CRC-32 of every byte before that line.
The header's keys: anS (a_n*S_{n-1} at the power-of-two n), created, csv
(the byte length and CRC-32 of the checkpoints.csv written beside it),
grid_ratio, grid_start (GRID_START), rows, state (the accumulator's
slots, the exact sums as integers in units of 2**-120) and x_max; no
reader looks up another key, such as earlier writers' config_hash.  The
`x pi S M` table (Checkpoint derives the rest) follows as lines of the
base64 of _CHUNK binary _ROW records, the last line fewer.  The records
hold the doubles themselves, and json the sums as integers, so a restored
run continues bit-identically.  compute writes the records to
checkpoints.spill.tmp as it goes (a resume first copies there the record
lines it keeps from the stored file), then the file as the magic, the
header and a copy of the spill.

CSV: header row `x,pi,S,M,E,r_S,r_E_pi,r_E_x,mertens_remainder`, one row
per checkpoint, 17-digit reals.  No timestamps, so identical configs give
byte-identical bodies.  Rows are formatted by csvcodec.encode_rows, the
bytes of the _CSV_ROW template's `%` on whole numpy columns, _CSV_CHUNK rows
at a time; series_anS.csv goes through it too.  A resume or report copies
the rows it keeps from the stored CSV, when the checkpoint file's digest
vouches for its bytes, and formats only the others.

JSON bundle (format 2): config echo, verification records, ratio bands,
block stats, abel decompositions, and run metadata.  No checkpoint table:
report writes that as checkpoints.csv beside it.

Tables stay columns (a dataclass of equal-length arrays) from the code
that computes them to the writers; rows exist only inside the writers.
compute holds no table: each slice of stream_rows goes to the CSV and to
the spill (_Spill) as it comes, so it holds the grid's x and one slice.
E and the ratios are formed where they are read, by the CSV writer a
chunk at a time.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .accumulate import (
    BLOCK,
    Checkpoint,
    RunResult,
    SumState,
    check_grid,
    checkpoint_table,
    grid_points,
    run_stream,
    stream_rows,
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
# accumulate.snapshot and verify.term_stream.  The folds call
# check_jump_identity and abel_decompose once a block of the check pass,
# its closing empty block included, and check_pair_identity once.  No
# command calls snapshot or term_stream: they stay only so that the tracer
# finds them.
from .calculus import AbelDecomposition, abel_decompose, main_term_identity
from .csvcodec import encode_rows
from .errors import CheckpointFormatError, ConfigError
from .sieve import SieveConfig, stream_segments
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

CSV_COLUMNS = ("x", "pi", "S", "M", "E", "r_S", "r_E_pi", "r_E_x", "mertens_remainder")
# one CSV line: x, pi as an integer, then the reals, each with 17 digits
_CSV_ROW = ",".join(["%.17g", "%d", *["%.17g"] * (len(CSV_COLUMNS) - 2)]).encode() + b"\n"
# a record of the checkpoint file's table, little-endian on every host:
# the columns a Checkpoint holds
_ROW = np.dtype([("x", "<f8"), ("pi", "<i8"), ("S", "<f8"), ("M", "<f8")])
# report.json keys that differ from the dataclass field names
_JSON_NAMES = {"passed": "pass", "lam": "lambda"}

# the jump scan and the Abel pass read the primes up to this x: beyond it
# they cost more than they inform, and the jump residual drifts toward its
# 1e-9 tolerance at 1e8-scale S values
SCAN_CAP = 10**6
PAIR_N_CAP = 5000
_CHUNK = 4096  # records a line of the checkpoint file's table
# CSV rows formatted at a time: a chunk's text, and its parts before they
# are joined, stay near 0.2 MB each
_CSV_CHUNK = 1 << 10
# the largest x_max accepted: sieve windows sampled across a run to it on a 2-vCPU
# box project about 19 h at 200 ns a prime (compute 1e11 took 99 ns a prime there)
MAX_X_MAX = 10**13
_NS_PER_PRIME = 200
_BLOCK = 1 << 20  # bytes of a stored CSV read at a time
# the first point of every grid, where ratio_positive and the Mertens windows begin
GRID_START = 100.0
# the block ratios of the lower-bound check and of the sandwiches, which
# report.json echoes as config.A and config.lambdas
LOWER_BOUND_A = 8.0
SANDWICH_LAMBDAS = (2.0, 4.0, 8.0)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_chunks(template: bytes, columns: list[np.ndarray]) -> Iterator[bytes]:
    """The CSV lines of the columns by the row template, each ended by a
    newline, as ASCII bytes, _CSV_CHUNK rows at a time (csvcodec.encode_rows).
    Memory holds one chunk's text, never the whole table."""
    for i in range(0, len(columns[0]), _CSV_CHUNK):
        yield encode_rows(template, [c[i : i + _CSV_CHUNK] for c in columns])


def _table_chunks(table: Checkpoint) -> Iterator[bytes]:
    """The checkpoint table's CSV lines by _CSV_ROW, _CSV_CHUNK rows at a time:
    each chunk's derived columns are formed with it, unless the table
    already holds them."""
    for i in range(0, len(table), _CSV_CHUNK):
        chunk = table.select(slice(i, i + _CSV_CHUNK))
        yield encode_rows(_CSV_ROW, [getattr(chunk, name) for name in CSV_COLUMNS])


def _records(table: Checkpoint) -> np.ndarray:
    """The table's rows as _ROW records: the columns' own bits."""
    records = np.empty(len(table), dtype=_ROW)
    for name in _ROW.names:
        records[name] = getattr(table, name)
    return records


def _line(records: np.ndarray) -> bytes:
    """A record line of the checkpoint file: the base64 of the records."""
    return base64.b64encode(records.tobytes()) + b"\n"


def _decoded(line: bytes) -> np.ndarray:
    """The records of a record line of the checkpoint file."""
    return np.frombuffer(base64.b64decode(line.rstrip(b"\n"), validate=True), dtype=_ROW)


def _line_rows(line: bytes) -> int:
    """The records a record line holds, from its length, not decoded."""
    text = line.rstrip(b"\n")
    return (len(text) // 4 * 3 - (len(text) - len(text.rstrip(b"=")))) // _ROW.itemsize


def _row_records(table: Checkpoint) -> Iterator[bytes]:
    """The checkpoint file's table, _CHUNK rows a line: the base64 of up to
    _CHUNK _ROW records, no value formatted."""
    for i in range(0, len(table), _CHUNK):
        yield _line(_records(table.select(slice(i, i + _CHUNK))))


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
    header answers x_max and grid_ratio where they are None (a fresh run's
    ratio is 2**0.25).  out_dir None is primesums_out."""

    x_max: int | None
    grid_ratio: float | None = None
    out_dir: Path | None = None
    resume_from: Path | None = None

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir or "primesums_out")
        if self.resume_from is not None:
            self.resume_from = Path(self.resume_from)
        elif self.grid_ratio is None:
            self.grid_ratio = 2.0**0.25
        if self.x_max is not None:
            try:  # an int, as the checkpoint file's header types it
                self.x_max = operator.index(self.x_max)
            except TypeError:
                raise ConfigError(f"x_max must be an integer, got {self.x_max!r}") from None
            if self.x_max > MAX_X_MAX:  # before any other check or allocation
                # x / (log x - 1) primes at _NS_PER_PRIME, in ints, which hold any x_max
                hours = (self.x_max // round(math.log(self.x_max) - 1) * _NS_PER_PRIME
                         // (3600 * 10**9))
                raise ConfigError(f"x_max must be <= {MAX_X_MAX:,}, got {self.x_max:,}: a "
                                  f"compute to it projects to about {hours:,} h at "
                                  f"{_NS_PER_PRIME} ns a prime")
        if None not in (self.x_max, self.grid_ratio):
            # else this runs again once a header has answered the Nones
            check_grid(GRID_START, self.x_max, self.grid_ratio)

    def grid(self) -> np.ndarray:
        return grid_points(GRID_START, float(self.x_max), self.grid_ratio)

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
    """A run as its checkpoint file stores it: the file's path, the (byte
    length, CRC-32) of the checkpoints.csv written beside it, and rows, the
    rows of the file's table that the run keeps, its first.  checkpoints is
    that table where read_checkpoint_file reads it whole, and None where it
    stays on disk: in the run resume cuts and in the run compute wrote."""

    csv_digest: tuple[int, int]
    path: Path
    rows: int


class _Spill:
    """The record lines of the checkpoint file that compute is writing, in
    a temporary file (_spilled), _CHUNK records a line and the last line
    shorter, until the header, which states the row count and the final
    state, can go before them.  Memory holds one line's records."""

    def __init__(self, fh: IO[bytes]) -> None:
        self.fh, self.rows = fh, 0  # rows: the records of the lines written
        self.pending, self.fill = np.empty(_CHUNK, dtype=_ROW), 0

    def add(self, item: bytes | np.ndarray) -> None:
        """Records, or a record line of a stored run: copied as it is if it
        holds _CHUNK records and would start a line here, else decoded."""
        if isinstance(item, bytes):
            if not self.fill and _line_rows(item) == _CHUNK:
                self.fh.write(item)
                self.rows += _CHUNK
                return
            item = _decoded(item)
        i = 0
        while i < len(item):  # the records may fill several lines
            part = item[i : i + _CHUNK - self.fill]
            self.pending[self.fill : self.fill + len(part)] = part
            self.fill += len(part)
            i += len(part)
            if self.fill == _CHUNK:
                self.flush()

    def tee(self, table: Checkpoint) -> Checkpoint:
        """The table, once its records are added."""
        self.add(_records(table))
        return table

    def flush(self) -> None:
        """Write the pending records as a line, if there are any."""
        if self.fill:
            self.fh.write(_line(self.pending[: self.fill]))
            self.rows += self.fill
            self.fill = 0

    def blocks(self) -> Iterator[bytes]:
        """The lines written, _BLOCK bytes at a time."""
        self.fh.seek(0)
        while block := self.fh.read(_BLOCK):
            yield block


@contextmanager
def _spilled(path: Path) -> Iterator[_Spill]:
    """A _Spill for the checkpoint file at path, in <stem>.spill.tmp beside
    it, which is removed when the block ends, however it ends."""
    tmp = path.with_name(path.stem + ".spill.tmp")
    try:
        with open(tmp, "w+b") as fh:
            yield _Spill(fh)
    finally:
        tmp.unlink(missing_ok=True)


def write_checkpoint_file(
    path: Path, cfg: RunConfig, result: RunResult, csv_digest: tuple[int, int],
    spill: _Spill | None = None,
) -> None:
    """Write the run's checkpoint file to path (through _replacing): the
    magic, the header, the records of result's table, or if spill is given
    the lines in it, and the end line."""
    if spill is None:
        rows, lines = len(result.checkpoints), _row_records(result.checkpoints)
    else:
        spill.flush()
        rows, lines = spill.rows, spill.blocks()
    header = {
        "anS": result.power_samples,
        "created": datetime.now(timezone.utc).isoformat(),
        "csv": csv_digest,
        "grid_ratio": float(cfg.grid_ratio),
        "grid_start": GRID_START,
        "rows": rows,
        # the exact sums as integers, which json writes and reads exactly
        "state": {name: getattr(result.state, name) for name in SumState.__slots__},
        "x_max": cfg.x_max,
    }
    head = f"{_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode("ascii")
    _write_bytes(path, chain([head], lines), sealed=True)


def _stored_run(path: Path, head: bytes, cfg: RunConfig | None, extend: bool) -> StoredRun:
    """The run a checkpoint file's header line states, without its table,
    by json.loads, which types every value; with cfg, as read_checkpoint_file
    answers and checks it."""
    header = json.loads(head)
    rows = _typed("rows", header["rows"], int)
    state = SumState()
    for name in SumState.__slots__:
        setattr(state, name, _typed(name, header["state"][name], type(getattr(state, name))))
    if cfg is not None:
        for name, kind in (("x_max", int), ("grid_ratio", float)):
            if getattr(cfg, name) is None:
                setattr(cfg, name, _typed(name, header[name], kind))
        cfg.__post_init__()  # the answered fields' own checks
        grid = _typed("grid_start", header["grid_start"], float), header["grid_ratio"]
        if grid != (GRID_START, cfg.grid_ratio):
            raise CheckpointFormatError(
                f"{path} holds a grid from {grid[0]!r} at ratio {grid[1]!r}, not from "
                f"{GRID_START!r} at {cfg.grid_ratio!r}: start a fresh run instead")
        if not extend and cfg.x_max != header["x_max"]:
            raise ConfigError(f"{path} holds a run to x_max={header['x_max']}, not "
                              f"{cfg.x_max}: leave --x-max out to take the file's")
    samples = [(_typed("anS", n, int), _typed("anS", v, float)) for n, v in header["anS"]]
    csv_size, csv_crc = header["csv"]  # of another type, they vouch for no CSV
    return StoredRun(None, state, samples, (csv_size, csv_crc), path, rows)


def read_checkpoint_file(path: Path, cfg: RunConfig | None = None, *, extend=False,
                         each: Callable[[np.ndarray], None] | None = None) -> StoredRun:
    """Parse a checkpoint file, one line at a time: its header (_stored_run)
    as it is read, then its records into columns.

    With cfg, the stored run is its own config: the header fills in, in
    place, what cfg leaves None of x_max and grid_ratio, and refuses a grid
    other than cfg's, from GRID_START at cfg's ratio (CheckpointFormatError),
    and, unless extend (x_max is a resume's target), another x_max
    (ConfigError).  An error in the header is raised once the end marker's
    checksum has vouched for the bytes, so a damaged file reports the damage.

    each, if given, is handed the records of each line in turn, once the
    header has answered cfg, and the table is not kept: the run's
    checkpoints are None.
    """
    try:
        with open(path, "rb") as fh:
            magic, head = fh.readline(), fh.readline()
            if magic.rstrip(b"\n") != _MAGIC.encode():
                raise CheckpointFormatError(
                    f"{path}: not a checkpoint file (expected header {_MAGIC!r})"
                )
            crc = zlib.crc32(head, zlib.crc32(magic))  # of every line before the end marker
            run = error = None
            try:
                run = _stored_run(path, head, cfg, extend)
            except (CheckpointFormatError, ConfigError, IndexError, KeyError, TypeError,
                    ValueError) as exc:
                error = exc
            table, size = bytearray() if each is None else None, 0
            last, order = np.empty(0), None  # order: the first pair of rows out of order
            for line in fh:
                if line.startswith(b"end "):
                    break
                crc = zlib.crc32(line, crc)
                block = base64.b64decode(line.rstrip(b"\n"), validate=True)
                size += len(block)
                records = np.frombuffer(block, dtype=_ROW, count=len(block) // _ROW.itemsize)
                x = np.concatenate((last, records["x"]))
                bad = np.flatnonzero(~(x[:-1] < x[1:]))
                if order is None and len(bad):
                    order = float(x[bad[0]]), float(x[bad[0] + 1])
                last = x[-1:]
                if table is not None:
                    table += block
                elif run is not None:
                    each(records)
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
        if error is not None:
            raise error
        if size != run.rows * _ROW.itemsize:
            raise CheckpointFormatError(
                f"{path}: row count mismatch ({run.rows} declared, "
                f"{size / _ROW.itemsize:g} found)"
            )
        if not size:
            raise CheckpointFormatError(f"{path}: no checkpoint rows")
        if order is not None:
            raise CheckpointFormatError(
                f"{path}: checkpoint x={order[1]!r} does not follow "
                f"x={order[0]!r} in strictly ascending order"
            )
        if table is not None:
            cells = np.frombuffer(table, dtype=_ROW)  # the records, not copied
            run.checkpoints = checkpoint_table(*(cells[name] for name in _ROW.names))
        return run
    except (CheckpointFormatError, ConfigError):
        raise
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint file {path}: {exc}")
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint file: {exc}")


def _kept_records(stored: StoredRun) -> Iterator[bytes | np.ndarray]:
    """The records of stored's kept rows, its first stored.rows, as they lie
    in its file: each line wholly kept as it is read, base64 and newline, and
    the line the cut falls in, if any, decoded and cut."""
    left = stored.rows
    with open(stored.path, "rb") as fh:
        fh.readline(), fh.readline()  # the magic and the header
        while left:
            line = fh.readline()
            if not line or line.startswith(b"end "):
                raise CheckpointFormatError(f"{stored.path} changed while it was read")
            n = _line_rows(line)
            if n > left:
                yield _decoded(line)[:left]
                return
            left -= n
            yield line


def _vouched_prefix(stored: StoredRun) -> int:
    """The byte length of the header and of stored's kept rows at the head
    of the checkpoints.csv beside its file, if that whole file has the
    bytes stored.csv_digest vouches for; else 0, also when there is none.
    Reads the whole file, _BLOCK bytes at a time."""
    rows = stored.rows
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


def _kept_table(item: bytes | np.ndarray) -> Checkpoint:
    """The table of records of _kept_records: a line, or records."""
    records = _decoded(item) if isinstance(item, bytes) else item
    return checkpoint_table(*(records[name] for name in _ROW.names))


def _csv_blocks(tables: Iterable[Checkpoint], stored: StoredRun | None) -> Iterator[bytes]:
    """The bytes of the CSV: the header and stored's kept rows copied from
    the CSV beside its file, if _vouched_prefix vouches for them, else
    formatted from its records; then each table's rows, formatted by
    _table_chunks as it comes."""
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
        if stored is not None:
            tables = chain(map(_kept_table, _kept_records(stored)), tables)
    for table in tables:
        yield from _table_chunks(table)


def write_csv(path: Path, tables: Iterable[Checkpoint],
              stored: StoredRun | None = None) -> tuple[int, int]:
    """Write to path the CSV of stored's kept rows, then of the rows of each
    table in turn, as they come; return the (byte length, CRC-32) of what
    was written, which the checkpoint file's header records.

    stored is a run read back from its checkpoint file (or cut by resume)
    whose first stored.rows rows begin the CSV.  If the checkpoints.csv
    beside that file has exactly the bytes its digest vouches for, the
    header and those rows are copied; if it is missing, truncated or
    altered, they are formatted from the records of the checkpoint file.
    Either way the bytes written are the same."""
    return _write_bytes(path, _csv_blocks(tables, stored))


def resume(path: Path, cfg: RunConfig) -> tuple[StoredRun, np.ndarray]:
    """Read a stored run into cfg (read_checkpoint_file, extend) and plan the
    continuation: the stored run cut to the rows it shares with cfg's grid,
    which stay on disk, and the points left.

    Both grids are the points GRID_START * ratio**k below their x_max, then
    x_max, at one ratio (read_checkpoint_file compares it): the rows they
    share are a common prefix, which the stored records are compared with
    a line at a time; no stored table is built.  Refuses (ConfigError) an
    x_max below the stored state."""
    grid, shared, seen = None, 0, 0

    def count_shared(records: np.ndarray) -> None:
        nonlocal grid, shared, seen
        if grid is None:
            grid = cfg.grid()  # the header has answered cfg before the first line
        if shared == seen:  # every row so far on the grid
            on = records["x"][: len(grid) - shared] == grid[shared : shared + len(records)]
            shared += int(np.argmin(np.append(on, False)))  # the first row off it
        seen += len(records)

    # a file with no record line is refused, so grid is built
    stored = read_checkpoint_file(path, cfg, extend=True, each=count_shared)
    remaining = grid[shared:]
    last = stored.state.last_prime
    if cfg.x_max < last or (len(remaining) and remaining[0] < last):
        raise ConfigError(
            f"cannot resume to x_max={cfg.x_max}: stored state already covers "
            f"primes to {last}"
        )
    return replace(stored, rows=shared), remaining


def cmd_compute(cfg: RunConfig) -> StoredRun:
    """Sieve to x_max, accumulate, and stream the rows to disk a slice at a
    time; return the run as written, without its table.

    Each slice of stream_rows goes to the CSV as it comes (write_csv), and
    its records to checkpoints.spill.tmp beside the checkpoint file (_Spill);
    the checkpoint file is then written as its header followed by a copy of
    the spill, with the CSV's digest.  A resume adds the stored run's kept rows first: their
    CSV bytes copied from the stored CSV (see write_csv), their record lines
    copied from the stored file, only the line holding the cut decoded.
    Memory holds the grid's x and one slice, not the table.

    Deterministic and idempotent for a fixed config; with resume_from the
    stored state continues bit-identically to an uninterrupted run.  Both
    files are always written, so a completed run resumed in place gets the
    same bytes again.  Each goes through _replacing, and the spill is
    removed however the run ends: a compute that fails leaves the old files
    as they were, and one that is killed leaves them whole, with at most
    stray .tmp files beside them.
    """
    stored, grid = (None, cfg.grid()) if cfg.resume_from is None else resume(cfg.resume_from, cfg)
    run = stored or StoredRun(None, SumState(), [], (0, 0), cfg.checkpoint_path(), 0)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with _spilled(cfg.checkpoint_path()) as spill:
        if stored is not None:
            for item in _kept_records(stored):
                spill.add(item)
        rows = stream_rows(float(cfg.x_max), grid, run.state, run.power_samples) if len(grid) else ()
        csv_digest = write_csv(cfg.csv_path(), map(spill.tee, rows), stored)
        write_checkpoint_file(cfg.checkpoint_path(), cfg, run, csv_digest, spill)
    return replace(run, csv_digest=csv_digest, path=cfg.checkpoint_path(), rows=spill.rows)


@dataclass
class RunContext:
    """What the checks over one run share: the Abel rows, the folds of the
    checks that read every check prime (folds, by check id, which run_checks
    makes and scan feeds), and the block stats, formed on first use.

    scan is the one block pass.  It streams the primes up to min(x_max,
    SCAN_CAP) through the sieve and hands them BLOCK at a time to one
    SumState.extend_primes, with every prefix of the block as a mark, so a
    block's S and M begin at the previous block's last value.  Each fold
    takes each block as (n0, p, w, S, M): the n0 primes before it, its
    primes p and weights w, and S and M after n0 + 0..len(p) primes; an
    empty block at the end closes the pass.  Memory holds one segment's
    primes and one block's arrays, plus the rows, whatever the cap.
    """

    cfg: RunConfig
    result: RunResult

    def __post_init__(self) -> None:
        self.n_pair = min(PAIR_N_CAP, self.result.state.n)
        table = self.result.checkpoints
        self.abel_rows = table.select(table.x <= SCAN_CAP)
        self.folds: dict[str, _PairFold | _JumpFold | _AbelFold] = {}

    def scan(self, folds: Iterable) -> None:
        """Feed every fold each block of the check primes, then the empty
        block at their count."""
        state = SumState()
        segments = stream_segments(SieveConfig(min(self.cfg.x_max, SCAN_CAP)))
        blocks = (s.primes[b : b + BLOCK] for s in segments for b in range(0, len(s.primes), BLOCK))
        for p in chain(blocks, [np.empty(0, dtype=np.int64)]):
            n0 = state.n
            block = p, weights(p), *state.extend_primes(p, marks=np.arange(len(p) + 1))
            for fold in folds:
                fold.step(n0, *block)

    @cached_property
    def blocks(self) -> Blocks:
        return block_sandwich(self.result.checkpoints, SANDWICH_LAMBDAS)


class _PairFold:
    """pair_identity over the first n primes: their weights and sums are
    kept as the blocks pass (all from the first, as BLOCK is above
    PAIR_N_CAP), and checked once."""

    def __init__(self, n: int, tol: float) -> None:
        self.n, self.tol = n, tol
        self.w, self.S, self.M = [np.empty(0)], [np.zeros(1)], [np.zeros(1)]

    def step(self, n0, p, w, S, M) -> None:
        k = self.n - n0
        if k > 0:
            self.w.append(w[:k])
            self.S.append(S[1 : k + 1])
            self.M.append(M[1 : k + 1])

    def records(self) -> list[VerificationRecord]:
        return check_pair_identity(*map(np.concatenate, (self.w, self.S, self.M)), self.tol)


class _JumpFold:
    """jump_identity: the worst record so far.  A block's record replaces
    it only if strictly worse, so the first of equal residuals stays."""

    def __init__(self, tol: float) -> None:
        self.tol, self.worst = tol, None

    def step(self, n0, p, w, S, M) -> None:
        record = check_jump_identity(w, S, M, self.tol, n0)
        if self.worst is None or record.residual > self.worst.residual:
            self.worst = record

    def records(self) -> list[VerificationRecord]:
        return [self.worst]


class _AbelFold:
    """abel_identity at the rows: a block decomposes the rows up to its
    last prime (the closing empty block, the rest), with abel_decompose's
    carry from the block before, into the columns of every row (abel); the
    record is the worst row's."""

    def __init__(self, rows: Checkpoint, tol: float) -> None:
        self.rows, self.tol = rows, tol
        self.carry, self.done = (0, 0.0, 0.0), 0
        self.abel = AbelDecomposition(rows.x, rows.S, *np.empty((3, len(rows))))

    def step(self, n0, p, w, S, M) -> None:
        end = int(np.searchsorted(self.rows.x, p[-1], side="right")) if len(p) else len(self.rows)
        at = slice(self.done, end)
        rows = self.rows.select(at)
        part, self.carry = abel_decompose(rows.x, rows.S, rows.M, p, w, M[1:], self.carry)
        for name in ("boundary_term", "integral_term", "residual"):
            getattr(self.abel, name)[at] = getattr(part, name)
        self.done = end

    def records(self) -> list[VerificationRecord]:
        abel = self.abel
        if not len(abel.x):
            return []
        rhs = abel.boundary_term - abel.integral_term
        return [worst_record("abel_identity", abel.x, abel.direct_S, rhs, self.tol)]


@dataclass(frozen=True)
class Check:
    """One registry entry: a check id, its tolerance (None for an exact
    check, whose records carry 0.0), the commands that run it, and either
    its records given the run and the tolerance (run), or its fold given
    the same (fold), whose records follow the block pass."""

    check_id: str
    tolerance: float | None
    commands: tuple[str, ...]
    run: Callable[[RunContext, float | None], list[VerificationRecord]] | None = None
    fold: Callable[[RunContext, float | None], _PairFold | _JumpFold | _AbelFold] | None = None


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
    Check("pair_identity", 1e-10, _V, fold=lambda c, tol: _PairFold(c.n_pair, tol)),
    Check("jump_identity", 1e-9, _V, fold=lambda c, tol: _JumpFold(tol)),
    Check("e_monotone", None, _VR, lambda c, tol: [check_E_monotone(c.result.checkpoints)]),
    Check("scale_identity", 1e-12, _VR, lambda c, tol: [scale_identity_record(
        c.result.checkpoints, tol)]),
    Check("ratio_positive", None, _VR, lambda c, tol: [ratio_positivity_record(
        c.result.checkpoints, c.result.an_sn_samples)]),
    Check("mertens_contraction", None, _VR, _mertens_contraction),
    Check("abel_identity", 1e-8, _VR, fold=lambda c, tol: _AbelFold(c.abel_rows, tol)),
    Check("main_term", 1e-8, _V, _main_term),
    Check("block_sandwich", 1e-12, _VR, lambda c, tol: sandwich_records(c.blocks, tol)),
    Check("lower_bound", 1e-12, _VR, lambda c, tol: lower_bound_check(
        c.result.checkpoints, LOWER_BOUND_A, tol)),
)


def run_checks(ctx: RunContext, command: str) -> list[VerificationRecord]:
    """The records of every check that command runs, in registry order: the
    folds of those checks are made, fed by one block pass (ctx.scan) and
    left in ctx.folds, then every check gives its records."""
    checks = [c for c in CHECKS if command in c.commands]
    ctx.folds = {c.check_id: c.fold(ctx, c.tolerance) for c in checks if c.fold}
    ctx.scan(ctx.folds.values())
    return [
        record
        for c in checks
        for record in (ctx.folds[c.check_id].records() if c.fold else c.run(ctx, c.tolerance))
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
        result = run_stream(float(cfg.x_max), cfg.grid())
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
            "grid_start": GRID_START,
            "grid_ratio": cfg.grid_ratio,
            "A": LOWER_BOUND_A,
            "lambdas": list(SANDWICH_LAMBDAS),
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
        "abel_decompositions": _json_rows(ctx.folds["abel_identity"].abel),
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
    write_csv(cfg.csv_path(), (), stored)
    samples = stored.an_sn_samples
    columns = [np.array([n for n, _ in samples], dtype=np.int64),
               np.array([v for _, v in samples], dtype=np.float64)]
    _write_bytes(cfg.out_dir / "series_anS.csv",
                 chain([b"n,value\n"], _csv_chunks(b"%d,%.17g\n", columns)))
    return out
