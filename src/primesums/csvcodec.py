"""CSV rows of numpy columns, byte for byte those of a `%` row template.

encode_rows(template, columns) is `template * n % cells`: the template
applied to each of the n rows of the columns in turn, each field of the
comma-separated, newline-ended template "%.17g" (a float column) or "%d"
(an integer column).  It formats whole arrays at once, _SUB rows at a
time, on a domain that holds every value of a valid run's
checkpoints.csv; given any value off that domain, it formats the call by
the template itself (percent_rows).  The bytes are the template's either
way.

The fast path for "%.17g", after Adams, "Ryu revisited: printf floating
point conversion" (OOPSLA 2019): fixed-precision digits by exact integer
multiplication.

Domain: +-0, and finite v with 1e-5 <= |v| < 1e17 whose decimal exponent
X, after rounding to 17 digits, lies in [-4, 16], where %g prints fixed
notation.  NaN, inf, subnormals and every value that %g prints in
e-notation are off it, and so is a value where a check below fails.  A
zero takes the slot of 1 (X = 0) with its leading digit 0: "0" or "-0".

Digits: np.frexp splits |v| exactly into m * 2**e, m < 2**61 an integer
(the 53 significant bits shifted up by 8).  With k a guess of
floor(log10|v|) and q = 16 - k in [0, 21], x = |v| * 10**q = P / 2**t for
P = m * 5**q and t = -(e + q).  P < 2**61 * 5**21 < 2**110 is formed
exactly as a (hi, lo) pair of uint64 from 32-bit limb products, each below
2**64.  Shifting the pair by s = t - 1 gives floor(2x) if s is in [0, 63]
and floor(2x) < 2**64 (both checked; with the guess at most one decade
off, s <= 59 and floor(2x) < 2**61).  Its low bit is the guard bit of x,
and the bits shifted out are the sticky bits.

Rounding: D = floor(x) + 1 iff guard and (sticky or floor(x) odd): half
to even on the exact value, as the C library's printf rounds.

Decade: the guess is right iff 10**16 <= floor(x) < 10**17, decided on
the floor and not on the rounded value.  The double 1e-07 is
9.99999999999999954748e-08: its float log10 is exactly -7, its decade -8.
A guess off by one is moved and its digits formed again; a floor still
out of range puts the call off the path.  A floor of 17 nines that rounds
up carries to D = 10**16 and X = k + 1.

Layout: a field is a slot of 24 bytes, built as three little-endian
uint64 words: the 16 low digits come from four 4-digit groups through
_QUAD, a 10**4-entry table of ASCII quads, and the leading digit alone.
Masks from tables indexed by (X, sign) keep the digits before the point,
move those after it one byte on, and add the point and the prefix ("-",
"0.", "0.000").  The bytes shown are one run of the slot, which ends at
the last digit kept: %g drops the fraction's trailing zeros, and the
point when none is left.

"%d": exact for integers 0 <= n < 10**16, by the same groups; other values
are off the path.

A row is a line of slots, each followed by its separator, and a keep mask
picks the bytes of the row from it.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

_SUB = 512  # rows formatted at a time: bounds the temporaries
_U = np.uint64  # uint64 scalars throughout: numpy 1.x casts uint64 op int64 to float64
_M32, _S32, _ONE, _BYTE = _U(0xFFFFFFFF), _U(32), _U(1), _U(8)
_E16, _E17 = _U(10**16), _U(10**17)
_POW5 = np.array([5**q for q in range(22)], dtype=np.uint64)  # 5**21 < 2**49
_TENS = np.array([10**j for j in range(1, 16)], dtype=np.uint64)


# Slots are built as rows of little-endian uint64 words, 8 bytes a word.
# _QUAD[g]: the four ASCII digits of 0 <= g < 10**4, zero-padded, as the
# low half of a word; _TZ[g]: its trailing zeros, 4 for g = 0.
_ascii = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).reshape(10**4, 4)
_QUAD = _ascii.view("<u4")[:, 0].astype(np.uint64)
_TZ = np.zeros(10**4, dtype=np.int8)
_zero = np.ones(10**4, dtype=bool)
for _j in (3, 2, 1, 0):
    _zero &= _ascii[:, _j] == ord("0")
    _TZ += _zero

# A "%.17g" slot is 24 bytes: the prefix ("-", "0.", "0.0", ..., ending at
# byte 5), the 17 digits from byte 6, and a point after the units digit
# (none for X < 0 or X = 16).  The bytes shown are one run of it, from
# _START to the last digit kept.  By the pattern p = (X + 4) * 2 + neg:
# _LOW[p] keeps the digits before the point, _HIGH[p] those after it,
# moved one byte on, and _CONST[p] adds the prefix and the point.
_SLOT = 24
_low, _high, _const, _start = [], [], [], []
for _x in range(-4, 17):
    for _neg in (0, 1):
        _int = _x + 1 if 0 <= _x < 16 else 17  # digits before the point
        _prefix = b"-" * _neg + (b"0." + b"0" * (-_x - 1) if _x < 0 else b"")
        _start.append(6 - len(_prefix))
        _low.append(bytes(6) + b"\xff" * _int + bytes(18 - _int))
        _high.append(bytes(7 + _int) + b"\xff" * (17 - _int))
        _const.append((bytes(6 - len(_prefix)) + _prefix + bytes(_int) + b"." * (_int < 17))
                      .ljust(_SLOT, b"\0"))
_LOW, _HIGH, _CONST = (np.frombuffer(b"".join(t), dtype="<u8").reshape(42, 3).astype(np.uint64)
                       for t in (_low, _high, _const))
_START = np.array(_start)
# _RUNS[start * 25 + end]: the mask of the bytes [start, end) of a slot
_b = np.arange(25)
_RUNS = ((_b[:, None, None] <= _b[:24]) & (_b[:24] < _b[None, :, None])).reshape(25 * 25, 24)
del _ascii, _zero, _j, _low, _high, _const, _start, _x, _neg, _int, _prefix, _b


def _chars(words: np.ndarray) -> np.ndarray:
    """Rows of words, (n, w), as their little-endian bytes, (n, 8 * w)."""
    return np.ascontiguousarray(words, dtype="<u8").view(np.uint8)


def _run(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The mask, (n, _SLOT), of the bytes [start, end) of each row."""
    return _RUNS.take(start * 25 + end, axis=0)


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For d < 10**17: its leading digit d // 10**16, the 4-digit groups of
    the 16 below it, high first, (4, n), and their ASCII as two words, (2,
    n).  In int64, by which take indexes without a cast; remainders are
    d - q * c, as numpy's % is far slower than its // by a constant."""
    d = d.view(np.int64)  # < 2**63
    g = np.empty((4, len(d)), dtype=np.int64)
    g[1] = d // 10**8
    g[3] = d - g[1] * 10**8
    lead = g[1] // 10**8
    g[1] -= lead * 10**8
    g[0::2] = g[1::2] // 10**4
    g[1::2] -= g[0::2] * 10**4
    quads = _QUAD.take(g)
    quads[0::2] |= quads[1::2] << _S32
    return lead, g, quads[0::2]


def _twice_scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """(floor(2x), sticky, ok) for x = m * 2**e * 10**(16 - k): sticky
    where 2x is not an integer, ok where the shift was exact."""
    q = 16 - k
    s = -(e + q) - 1
    ok = (q >= 0) & (q <= 21) & (s >= 0) & (s <= 63)
    c = _POW5.take(q, mode="clip")
    s = (s & 63).astype(np.uint64)  # as is where ok
    # P = m * c < 2**110 as hi * 2**64 + lo, from 32-bit limbs: each
    # product < 2**64, and mid < 2**49 + 2**61
    lo = (m & _M32) * (c & _M32)
    mid = (m & _M32) * (c >> _S32) + (m >> _S32) * (c & _M32)
    hi = (m >> _S32) * (c >> _S32) + (mid >> _S32)
    mid <<= _S32
    lo += mid  # mod 2**64, and its carry:
    hi += (lo < mid).astype(np.uint64)
    twice = lo >> s
    up = _U(63) - s  # two shifts by up and 1: a shift by 64 - s, also for s = 0
    lo <<= up
    sticky = (lo << _ONE) != 0
    ok &= (hi >> s) == 0
    hi <<= up
    twice |= hi << _ONE
    return twice, sticky, ok


def _decimal(a: np.ndarray):
    """(D, X) for each |v| of a: its 17 digits, 10**16 <= D < 10**17, and
    the decimal exponent of the rounded value; None if any is off the
    path."""
    if not np.all((a >= 1e-5) & (a < 1e17)):  # NaN fails both
        return None
    f, exp = np.frexp(a)
    m = (f * 2.0**61).astype(np.uint64)
    e = exp.astype(np.int64) - 61
    k = np.minimum(np.maximum(np.floor(np.log10(a)), -5), 16).astype(np.int64)
    twice, sticky, ok = _twice_scaled(m, e, k)
    x = twice >> _ONE
    move = (x >= _E17).astype(np.int64) - (x < _E16).astype(np.int64)
    redo = np.flatnonzero(move)
    if len(redo):
        k[redo] += move[redo]
        twice[redo], sticky[redo], ok[redo] = _twice_scaled(m[redo], e[redo], k[redo])
        x = twice >> _ONE
    if not np.all(ok & (x >= _E16) & (x < _E17)):
        return None
    x += twice & (sticky.astype(np.uint64) | x) & _ONE
    carry = x == _E17
    x[carry] = _E16
    k += carry
    return (x, k) if np.all((k >= -4) & (k <= 16)) else None


def _real_slots(v: np.ndarray):
    """(chars, keep) of b"%.17g" % x for each x of v: two (n, _SLOT) arrays,
    row i's bytes being chars[i][keep[i]]; None if any x is off the path."""
    zero = v == 0.0
    got = _decimal(np.where(zero, 1.0, np.abs(v)))
    if got is None:
        return None
    X = got[1]
    lead, g, digits = _digits(got[0])
    lead = (lead - zero).astype(np.uint64) + _U(ord("0"))
    a, b = digits  # d1-d8, d9-d16
    # the 17 digits at bytes 6-22, and moved one byte on, to 7-23
    words, moved = np.empty((2, len(v), 3), dtype=np.uint64)
    words[:, 0] = (lead << _U(48)) | (a << _U(56))
    words[:, 1] = (a >> _BYTE) | (b << _U(56))
    words[:, 2] = b >> _BYTE
    moved[:, 0] = lead << _U(56)
    moved[:, 1:] = digits.T
    p = (X + 4) * 2 + np.signbit(v)
    words &= _LOW.take(p, axis=0)
    moved &= _HIGH.take(p, axis=0)
    words |= moved
    words |= _CONST.take(p, axis=0)
    z = _TZ.take(g[3])  # the trailing zeros of the 17 digits
    run = g[3] == 0
    for j in (2, 1, 0):
        z += run * _TZ.take(g[j])
        run &= g[j] == 0
    last = 16 - z  # the last digit shown: the first is not 0
    end = 7 + np.maximum(last, X) + ((X >= 0) & (last > X))
    return _chars(words), _run(_START.take(p), end)


def _int_slots(n: np.ndarray):
    """(chars, keep) of b"%d" % i for each i of n, as _real_slots."""
    if not np.all((n >= 0) & (n < 10**16)):
        return None
    d = n.astype(np.uint64)
    nd = np.searchsorted(_TENS, d, side="right") + 1  # its digits
    return _chars(_digits(d)[2].T), _run(16 - nd, 16)[:, :16]


_SLOTS = {b"%.17g": _real_slots, b"%d": _int_slots}


def _fast_rows(fields: list[bytes], columns: Sequence[np.ndarray]) -> bytes | None:
    """The rows of columns, of a template of these fields, by the fast
    path; None if any value is off it."""
    n = len(columns[0])
    line = np.empty((n, len(fields), _SLOT + 1), dtype=np.uint8)
    keep = np.zeros((n, len(fields), _SLOT + 1), dtype=bool)
    for kind, slotter in _SLOTS.items():
        idx = [j for j, f in enumerate(fields) if f == kind]
        if idx:
            got = slotter(np.column_stack([columns[j] for j in idx]).ravel())
            if got is None:
                return None
            w = got[0].shape[1]
            line[:, idx, :w] = got[0].reshape(n, len(idx), w)
            keep[:, idx, :w] = got[1].reshape(n, len(idx), w)
    line[:, :, _SLOT] = ord(",")
    line[:, -1, _SLOT] = ord("\n")
    keep[:, :, _SLOT] = True
    return line[keep].tobytes()


def percent_rows(template: bytes, columns: Sequence[np.ndarray]) -> bytes:
    """The rows of columns by the template itself, one C-level % call."""
    cells = chain.from_iterable(zip(*(c.tolist() for c in columns)))
    return template * len(columns[0]) % tuple(cells)


def encode_rows(template: bytes, columns: Sequence[np.ndarray]) -> bytes:
    """`template * n % cells` for the n rows of columns, each field of the
    template "%.17g" or "%d": by the fast path _SUB rows at a time, or, if
    any value is off it, by percent_rows.  Either way the same bytes."""
    fields = template.rstrip(b"\n").split(b",")
    if not template.endswith(b"\n") or not set(fields) <= set(_SLOTS):
        raise ValueError(f"not a row template of %.17g and %d fields: {template!r}")
    blocks = []
    for i in range(0, len(columns[0]), _SUB):
        block = _fast_rows(fields, [c[i : i + _SUB] for c in columns])
        if block is None:
            return percent_rows(template, columns)
        blocks.append(block)
    return b"".join(blocks)
