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
Checkpoint file (format 7): the magic line, one json header line and
`end <crc32>`, the CRC-32 of every byte before that line.  The header's
keys: anS (a_n*S_{n-1} at the power-of-two n), created, csv (the byte
length and CRC-32 of the checkpoints.csv beside it, which holds the
table), grid_ratio, grid_start (GRID_START), rows, state (the
accumulator's slots, the exact sums as integers in units of 2**-120, so
a restored run continues bit-identically) and x_max; no reader looks up
another key, such as earlier writers' config_hash.  The table is stored
once, in the CSV, whose digest the header vouches for: a CSV it does not
vouch for is refused, and a fresh compute is the cure.  A format-6 file,
whose base64 record lines held a second copy of the table, still reads.

CSV: header row `x,pi,S,M,E,r_S,r_E_pi,r_E_x,mertens_remainder`, one row
per checkpoint, 17-digit reals, which read back as the doubles they were
written from.  No timestamps, so identical configs give byte-identical
bodies.  Rows are formatted by csvcodec.encode_rows, the bytes of the
_CSV_ROW template's `%` on whole numpy columns, _CSV_CHUNK rows at a
time; series_anS.csv goes through it too.  A resume or report copies the
rows it keeps from the stored CSV and formats only the others; verify
and report parse its x, pi, S and M columns (Checkpoint derives the
rest).

JSON bundle (format 2): config echo, verification records, ratio bands,
block stats, abel decompositions, and run metadata.  No checkpoint table:
report writes that as checkpoints.csv beside it.

Tables stay columns (a dataclass of equal-length arrays) from the code
that computes them to the writers; rows exist only inside the writers.
compute holds no table: each slice of stream_rows goes to the CSV as it
comes, so it holds the grid's x and one slice.
E and the ratios are formed where they are read, by the CSV writer a
chunk at a time.
"""

from __future__ import annotations

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

FORMAT_VERSION = 7  # of the checkpoint file
_MAGIC = f"primesums-checkpoints v{FORMAT_VERSION}"
# the magic lines read: format 6 is format 7 with a second copy of the table
_MAGICS = (_MAGIC.encode(), b"primesums-checkpoints v6")
BUNDLE_FORMAT_VERSION = 2  # of report.json

CSV_COLUMNS = ("x", "pi", "S", "M", "E", "r_S", "r_E_pi", "r_E_x", "mertens_remainder")
# one CSV line: x, pi as an integer, then the reals, each with 17 digits
_CSV_ROW = ",".join(["%.17g", "%d", *["%.17g"] * (len(CSV_COLUMNS) - 2)]).encode() + b"\n"
# report.json keys that differ from the dataclass field names
_JSON_NAMES = {"passed": "pass", "lam": "lambda"}

# the jump scan and the Abel pass read the primes up to this x: beyond it
# they cost more than they inform, and the jump residual drifts toward its
# 1e-9 tolerance at 1e8-scale S values
SCAN_CAP = 10**6
PAIR_N_CAP = 5000
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
    """A run as its checkpoint file states it: the file's path, the (byte
    length, CRC-32) of the checkpoints.csv beside it, which holds the
    table, rows, the rows of that table the run keeps, its first, and the
    x_max the file states.  checkpoints is the table where
    read_checkpoint_file parses it, and None where it stays on disk: in
    the run resume cuts and in the run compute wrote."""

    csv_digest: tuple[int, int]
    path: Path
    rows: int
    x_max: int


def write_checkpoint_file(path: Path, cfg: RunConfig, run: StoredRun) -> None:
    """Write run's checkpoint file to path (through _replacing): the magic,
    the header and the end line.  The header vouches for the table: the
    run.rows rows of the CSV whose (byte length, CRC-32) is run.csv_digest."""
    header = {
        "anS": run.power_samples,
        "created": datetime.now(timezone.utc).isoformat(),
        "csv": run.csv_digest,
        "grid_ratio": float(cfg.grid_ratio),
        "grid_start": GRID_START,
        "rows": run.rows,
        # the exact sums as integers, which json writes and reads exactly
        "state": {name: getattr(run.state, name) for name in SumState.__slots__},
        "x_max": run.x_max,
    }
    head = f"{_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode("ascii")
    _write_bytes(path, [head], sealed=True)


def _stored_run(path: Path, head: bytes, cfg: RunConfig | None, extend: bool) -> StoredRun:
    """The run a checkpoint file's header line states, without its table,
    by json.loads, which types every value; with cfg, as read_checkpoint_file
    answers and checks it."""
    header = json.loads(head)
    rows = _typed("rows", header["rows"], int)
    x_max = _typed("x_max", header["x_max"], int)
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
        if not extend and cfg.x_max != x_max:
            raise ConfigError(f"{path} holds a run to x_max={x_max}, not "
                              f"{cfg.x_max}: leave --x-max out to take the file's")
    samples = [(_typed("anS", n, int), _typed("anS", v, float)) for n, v in header["anS"]]
    # the table's one vouch: exactly two ints, else the file is malformed
    size, crc = (_typed("csv", v, int) for v in header["csv"])
    return StoredRun(None, state, samples, (size, crc), path, rows, x_max)


def read_checkpoint_file(path: Path, cfg: RunConfig | None = None, *, extend=False) -> StoredRun:
    """Parse a checkpoint file, one line at a time, and, unless extend, the
    table in the checkpoints.csv beside it (_stored_table).

    With cfg, the stored run is its own config: the header fills in, in
    place, what cfg leaves None of x_max and grid_ratio, and refuses a grid
    other than cfg's, from GRID_START at cfg's ratio (CheckpointFormatError),
    and, unless extend (x_max is a resume's target, which reads no row),
    another x_max (ConfigError).  An error in the header is raised once the
    end marker's checksum has vouched for the bytes, so a damaged file
    reports the damage.  A format-6 file, whose record lines held a second
    copy of the table, is read as format 7: those lines go into the
    checksum and are otherwise skipped.
    """
    try:
        with open(path, "rb") as fh:
            magic, head = fh.readline(), fh.readline()
            if magic.rstrip(b"\n") not in _MAGICS:
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
            for line in fh:
                if line.startswith(b"end "):
                    break
                crc = zlib.crc32(line, crc)  # a format-6 record line
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
        if run.rows < 1:
            raise CheckpointFormatError(f"{path}: no checkpoint rows")
        if not extend:
            run.checkpoints = _stored_table(run)
        return run
    except (CheckpointFormatError, ConfigError):
        raise
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint file {path}: {exc}")
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint file: {exc}")


def _stored_csv(run: StoredRun) -> Iterator[bytes]:
    """The checkpoints.csv beside run's file, _BLOCK bytes at a time.  Once
    the last block is handed out, refuse (CheckpointFormatError) a CSV of
    another byte length or CRC-32 than run.csv_digest, or none: that digest
    is the table's one vouch, and a fresh compute is the cure."""
    csv = run.path.with_name("checkpoints.csv")
    size = crc = 0
    try:
        with open(csv, "rb") as fh:
            while block := fh.read(_BLOCK):
                size += len(block)
                crc = zlib.crc32(block, crc)
                yield block
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read {csv}, the table of {run.path}: {exc}")
    if (size, crc) != run.csv_digest:
        raise CheckpointFormatError(
            f"{csv}: not the table {run.path} vouches for ({size} bytes, crc32 {crc:08x}; "
            f"vouched: {run.csv_digest[0]} bytes, crc32 {run.csv_digest[1]:08x}): it was "
            f"altered or damaged, and a fresh compute writes it again")


def _stored_table(run: StoredRun) -> Checkpoint:
    """run's table: the x, pi, S and M columns of its CSV's rows, parsed
    (np.loadtxt, which reads each %.17g field back as the double it was
    written from) a block at a time from the bytes _stored_csv checks.
    Memory holds the columns and one block.  Refuses a CSV of other than
    run.rows rows, or whose x do not ascend strictly; a parse error is
    raised once the digest has vouched for the bytes."""
    columns = np.empty((4, run.rows))
    found, head, tail = 0, 1, b""  # found: the rows read; head: the header line to skip
    blocks = _stored_csv(run)
    try:
        for block in blocks:
            text, newline, tail = (tail + block).rpartition(b"\n")
            if newline:
                lines, head = text.split(b"\n")[head:], 0
                n = min(len(lines), run.rows - found)  # the rows past run.rows are counted
                if n:
                    columns[:, found : found + n] = np.loadtxt(
                        lines[:n], delimiter=",", usecols=(0, 1, 2, 3), ndmin=2,
                        encoding="ascii").T
                found += len(lines)
    except ValueError:
        for _ in blocks:  # the digest first: damage is reported as damage
            pass
        raise
    if found != run.rows or tail:
        raise CheckpointFormatError(
            f"{run.path}: row count mismatch ({run.rows} declared, {found} in its CSV)")
    x = columns[0]
    bad = np.flatnonzero(~(x[:-1] < x[1:]))
    if len(bad):
        raise CheckpointFormatError(
            f"{run.path}: checkpoint x={float(x[bad[0] + 1])!r} does not follow "
            f"x={float(x[bad[0]])!r} in strictly ascending order")
    return checkpoint_table(*columns)


def _kept_csv(stored: StoredRun) -> Iterator[bytes]:
    """The header line and stored's kept rows, its first stored.rows, of the
    CSV beside its file, byte for byte, from the blocks _stored_csv checks,
    which are read to the end: a CSV the header does not vouch for is
    refused before any row after them is formatted."""
    left = stored.rows + 1  # the lines to copy
    for block in _stored_csv(stored):
        if left:
            n = block.count(b"\n")
            if n >= left:  # the block holds the last line to copy
                end = -1
                for _ in range(left):
                    end = block.index(b"\n", end + 1)
                block = block[: end + 1]
            left -= min(n, left)
            yield block
    if left:
        raise CheckpointFormatError(f"{stored.path}: row count mismatch (its CSV is short)")


def write_csv(path: Path, tables: Iterable[Checkpoint],
              stored: StoredRun | None = None) -> tuple[int, int]:
    """Write to path the CSV of stored's kept rows, then of the rows of each
    table in turn, as they come; return the (byte length, CRC-32) of what
    was written, which the checkpoint file's header records.

    stored is a run read back from its checkpoint file (or cut by resume)
    whose first stored.rows rows begin the CSV: the header line and those
    rows are copied from the checkpoints.csv beside that file (_kept_csv),
    which is refused, and nothing written, unless it has exactly the bytes
    the digest vouches for.  Each table's rows are formatted by
    _table_chunks as they come."""
    head = _kept_csv(stored) if stored is not None else [(",".join(CSV_COLUMNS) + "\n").encode()]
    return _write_bytes(path, chain(head, chain.from_iterable(map(_table_chunks, tables))))


def resume(path: Path, cfg: RunConfig) -> tuple[StoredRun, np.ndarray]:
    """Read a stored run's header into cfg (read_checkpoint_file, extend) and
    plan the continuation: the stored run cut to the rows it shares with
    cfg's grid, which stay on disk, and the points left.

    Both grids are the points GRID_START * ratio**k below their x_max, then
    x_max, at one ratio (read_checkpoint_file compares it), so the stored
    table's x are grid_points to the file's x_max, and the rows the two
    grids share are their common prefix: the lattice points below both
    x_max, then one more if the next points are equal.  No stored number is
    parsed.  Refuses a file whose rows are not its grid's in number
    (CheckpointFormatError), and an x_max below the stored state
    (ConfigError)."""
    stored = read_checkpoint_file(path, cfg, extend=True)
    old = grid_points(GRID_START, float(stored.x_max), cfg.grid_ratio)
    if len(old) != stored.rows:
        raise CheckpointFormatError(
            f"{path}: row count mismatch ({stored.rows} declared, {len(old)} in its grid)")
    k = int(np.searchsorted(old[:-1], cfg.x_max))  # the stored lattice points below x_max
    at = old[k]
    del old  # memory holds one grid at a time
    grid = cfg.grid()
    shared = k + int(grid[k] == at)
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

    Each slice of stream_rows goes to the CSV's .tmp file as it comes
    (write_csv), and the checkpoint file, the header that vouches for the
    CSV, is written once the CSV is in place.  A resume copies the stored
    run's kept rows first, byte for byte, from the stored CSV (see
    write_csv).  Memory holds the grid's x and one slice, not the table.

    Deterministic and idempotent for a fixed config; with resume_from the
    stored state continues bit-identically to an uninterrupted run.  Both
    files are always written, so a completed run resumed in place gets the
    same bytes again.  Each goes through _replacing: a compute that fails
    leaves the old files as they were, and one that is killed leaves them
    whole, with at most stray .tmp files beside them; but one killed in
    place between the two replaces leaves a header that no longer vouches
    for the CSV, and the run is refused until a fresh compute.
    """
    stored, grid = (None, cfg.grid()) if cfg.resume_from is None else resume(cfg.resume_from, cfg)
    run = stored or StoredRun(None, SumState(), [], (0, 0), cfg.checkpoint_path(), 0, cfg.x_max)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    rows = stream_rows(float(cfg.x_max), grid, run.state, run.power_samples) if len(grid) else ()
    digest = write_csv(cfg.csv_path(), rows, stored)
    run = replace(run, csv_digest=digest, path=cfg.checkpoint_path(),
                  rows=run.rows + len(grid), x_max=cfg.x_max)
    write_checkpoint_file(run.path, cfg, run)
    return run


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
