"""Independent reference computations used to pin expected test values.

The first part deliberately avoids the library under test: primes come
from trial division (not a sieve), sums are accumulated in mpmath working
precision (not compensated doubles), and integrals use fixed-grid Romberg
(not adaptive Simpson).  Run as a script to regenerate the frozen fixture
constants quoted in the test modules:

    python3 tests/oracles.py [limit]

The second part keeps the scalar forms of the accumulation and of the
checks, one term or one grid point at a time, as references that the
column forms in primesums must match bit for bit: make_term and push
(with JumpState's telescoped jump sum, which the accumulator does not
keep), and a one-row snapshot at each grid point for the checkpoint table, the
brute-force pair sum, and the row loops of the pair, jump, Abel, block,
E-monotone, positivity, band and Mertens-width checks, and the per-value
row codec of the checkpoint table.  Their signatures match the calls
primesums makes, so a test can swap them in.  Each takes numpy's log of
one value at a time (np_log), which equals numpy's log of the whole array
bit for bit, so w is the accumulator's own.  The third part keeps
quantities no command computes: the sampled a_n * S_{n-1} series, the
growth of the main-term integral, h' and w'.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import namedtuple
from dataclasses import fields
from typing import Iterable, Iterator, Sequence

import mpmath
import numpy as np

from primesums.accumulate import (
    _SCALE,
    _UNIT,
    Checkpoint,
    SumState,
    WeightedPrimeTerm,
    _limbs,
    _round_prefixes,
    run_stream,
    weights,
)
from primesums.asymptotics import AN_SN_SERIES, BAND_SERIES, Blocks, RatioBand
from primesums.calculus import AbelDecomposition, _check_domain, _u_integral, eval_h
from primesums.errors import DomainError, SequencingError, SizeError
from primesums.sieve import DEFAULT_SEGMENT_SIZE, prime_array
from primesums.verify import (
    _BRUTEFORCE_CAP,
    PAIR_CHUNK,
    VerificationRecord,
    _log_subsample,
    identity_record,
    relative_residual,
)

mpmath.mp.dps = 40


def trial_division_primes(limit: int) -> list[int]:
    """All primes <= limit, each certified by trial division only."""
    if limit < 2:
        return []
    primes = [2]
    for n in range(3, limit + 1, 2):
        is_prime = True
        for p in primes:
            if p * p > n:
                break
            if n % p == 0:
                is_prime = False
                break
        if is_prime:
            primes.append(n)
    return primes


def trial_division_pi(limit: int) -> int:
    return len(trial_division_primes(limit))


def reference_sums(primes: list[int]) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(S, M, E) over the given primes at 40 decimal digits."""
    s = mpmath.mpf(0)
    m = mpmath.mpf(0)
    for p in primes:
        w2 = mpmath.log(p) / p
        s += mpmath.sqrt(w2)
        m += w2
    return s, m, s * s - m


def reference_weight(p: int) -> mpmath.mpf:
    return mpmath.sqrt(mpmath.log(p) / p)


def romberg(f, a: float, b: float, levels: int = 18) -> float:
    """Fixed-grid Romberg integration in double precision.

    Independent cross-check for the adaptive Simpson quadrature; `levels`
    halvings of the step are always performed (no early exit), so the
    result is a deterministic function of (f, a, b, levels).
    """
    h = b - a
    rows = [[0.5 * h * (f(a) + f(b))]]
    for k in range(1, levels + 1):
        h *= 0.5
        n_new = 2 ** (k - 1)
        interior = math.fsum(f(a + (2 * i - 1) * h) for i in range(1, n_new + 1))
        row = [0.5 * rows[-1][0] + h * interior]
        for j in range(1, k + 1):
            factor = 4.0**j
            row.append((factor * row[j - 1] - rows[-1][j - 1]) / (factor - 1.0))
        rows.append(row)
    return rows[-1][-1]


Row = namedtuple("Row", "x pi S M E r_S r_E_pi r_E_x mertens_remainder")
BlockRow = namedtuple("BlockRow", "x lam x_lower delta_S delta_pi lower upper")


def rows(table) -> list:
    """The rows of a column table as namedtuples of Python numbers, as the
    row objects of the per-point forms held them."""
    kind = BlockRow if isinstance(table, Blocks) else Row
    return [kind(*row) for row in zip(*(getattr(table, f).tolist() for f in kind._fields))]


def table_of(row_list: Sequence, kind=Checkpoint):
    """The column table of rows (namedtuples or per-point dataclasses)."""
    return kind(*(np.array([getattr(r, f.name) for r in row_list]) for f in fields(kind)))


def assert_same_table(mine, ref) -> None:
    """Equal column dtypes, and equal values by repr, naming the first row
    that differs rather than diffing the whole table."""
    assert len(mine.x) == len(ref.x)
    for f in fields(mine):
        a, b = getattr(mine, f.name), getattr(ref, f.name)
        assert a.dtype == b.dtype, f.name
        i = next((i for i, (u, v) in enumerate(zip(a.tolist(), b.tolist()))
                  if repr(u) != repr(v)), None)
        assert i is None, (f.name, i, a[i], b[i])


def make_term(index: int, prime: int) -> WeightedPrimeTerm:
    """Build the weighted term for the index-th prime."""
    if prime < 2:
        raise DomainError(f"prime must be >= 2, got {prime}")
    if index < 1:
        raise DomainError(f"index must be >= 1, got {index}")
    w = float(weights(np.array([prime], dtype=np.int64))[0])
    return WeightedPrimeTerm(index=index, prime=prime, weight=w, weight_sq=w * w)


class JumpState(SumState):
    """A SumState that push also adds each jump 2*a_n*S_{n-1} to, exactly,
    in units of 2**-120 (S_{n-1} the prefix rounded to a double): the
    telescoped sum must reproduce S^2 - M.  The accumulator keeps no such
    sum; this one is the scalar reference of that fact."""

    __slots__ = ("E_incremental",)

    def __init__(self) -> None:
        super().__init__()
        self.E_incremental = 0

    @property
    def E_total(self) -> float:
        return float(self.E_incremental) * _UNIT


def push(state: SumState, term: WeightedPrimeTerm) -> SumState:
    """SumState.extend_primes one term at a time: absorb term into state
    and return state; primes must arrive strictly ascending.  A JumpState
    also adds the jump to its own sum."""
    if term.prime <= state.last_prime:
        raise SequencingError(
            f"prime {term.prime} not above last absorbed {state.last_prime}"
        )
    if term.index != state.n + 1:
        raise SequencingError(
            f"term index {term.index} does not follow count {state.n}"
        )
    w = term.weight
    half_jump = w * (float(state.S) * _UNIT)
    # scaling by a power of two is exact, and so is int() of the result
    state.S += int(w * _SCALE)
    state.M += int(term.weight_sq * _SCALE)
    if isinstance(state, JumpState):
        state.E_incremental += int(half_jump * (2.0 * _SCALE))
    state.n += 1
    if state.n >= 3 and w >= state.last_weight:
        state.weights_decreasing = False
    state.last_weight = w
    state.last_anS = half_jump
    state.last_prime = term.prime
    return state


def pair_sum_bruteforce(terms: Sequence[WeightedPrimeTerm]) -> float:
    """2 * sum_{i<j} a_i a_j by direct double loop; the independent oracle
    for S_n^2 - M_n.  Row sums are exactly rounded via fsum."""
    if len(terms) > _BRUTEFORCE_CAP:
        raise SizeError(
            f"brute-force pair sum capped at n={_BRUTEFORCE_CAP}, got {len(terms)}"
        )
    weights = [t.weight for t in terms]
    rows = []
    for i in range(len(weights) - 1):
        wi = weights[i]
        rows.append(math.fsum(wi * wj for wj in weights[i + 1 :]))
    return 2.0 * math.fsum(rows)


def pair_row_sums_limbs(w: np.ndarray, ns: np.ndarray) -> list[float]:
    """2 * fsum of the rows fsum(w_i * w_j for j in i+1..n-1), i < n - 1,
    for each sample n in ns (ascending, at most len(w)).

    Rows are taken PAIR_CHUNK at a time over the upper triangle.  Each
    product is split into exact limbs, np.add.reduceat sums them between
    consecutive samples, and a cumsum gives every row's exact sum up to
    each sample, which is rounded once: the same double fsum gives.

    verify._pair_row_sums over exact int64 limbs instead of a float64
    split: the reference its float sums must equal bit for bit.
    """
    n = int(ns[-1]) if len(ns) else 0
    values, owners = [], []
    for r0 in range(0, n - 1, PAIR_CHUNK):
        r1 = min(r0 + PAIR_CHUNK, n - 1)
        c0 = r0 + 1  # the first column of row r0
        k0 = int(np.searchsorted(ns, c0, side="right"))
        prod = w[r0:r1, None] * w[None, c0:n]
        m = r1 - r0
        prod[:, :m] = np.triu(prod[:, :m])  # keeps j > i only
        starts = np.concatenate(([0], ns[k0:-1] - c0))
        sums = np.cumsum(np.add.reduceat(_limbs(prod), starts, axis=2), axis=2)
        # row i has terms below sample n only when n >= i + 2
        live = ns[None, k0:] >= np.arange(r0 + 2, r1 + 2)[:, None]
        values.append(_round_prefixes(0, sums[:, live]))
        owners.append(np.nonzero(live)[1] + k0)
    values = np.concatenate(values) if values else np.empty(0)
    owners = np.concatenate(owners) if owners else np.empty(0, dtype=np.int64)
    return [2.0 * math.fsum(values[owners == k].tolist()) for k in range(len(ns))]


def np_log(t: float) -> float:
    """numpy's log of one value, as primesums takes it of whole arrays."""
    return float(np.log(t))


def eval_w(t: float) -> float:
    """w(t) = sqrt(log(t)/t), one value of accumulate.weights."""
    _check_domain(t)
    return math.sqrt(np_log(t) / t)


def snapshot_scalar(state: SumState, x: float) -> Row:
    """The checkpoint row at x from the state, one Python float at a time."""
    if x < state.last_prime:
        raise SequencingError(
            f"snapshot at x={x} behind last absorbed prime {state.last_prime}"
        )
    s = state.S_total
    m = state.M_total
    e = s * s - m
    if x >= 3.0:
        lx = np_log(x)
        r_s = s / math.sqrt(x / lx)
        r_e_pi = e / state.n
        r_e_x = e * lx / x
        remainder = m - lx
    else:
        r_s = r_e_pi = r_e_x = remainder = math.nan
    return Row(x, state.n, s, m, e, r_s, r_e_pi, r_e_x, remainder)


def checkpoints_scalar(x_max: float, grid, state: SumState | None = None) -> Checkpoint:
    """run_stream's checkpoint table by pushing one prime at a time and
    taking snapshot_scalar at each grid point; state continues a run."""
    state = state if state is not None else SumState()
    primes = prime_array(int(math.floor(x_max))).tolist()
    i = bisect.bisect_right(primes, state.last_prime)
    out = []
    for x in grid:
        while i < len(primes) and primes[i] <= x:
            push(state, make_term(state.n + 1, primes[i]))
            i += 1
        out.append(snapshot_scalar(state, x))
    return table_of(out)


def check_E_monotone_scalar(checkpoints) -> VerificationRecord:
    """verify.check_E_monotone as a loop over the rows."""
    cps = rows(checkpoints)
    violation = 0.0
    location = cps[-1].x if cps else 0.0
    prev = 0.0
    for cp in cps:
        drop = max(prev - cp.E, -cp.E, 0.0)
        if drop > violation:
            violation = drop
            location = cp.x
        prev = cp.E
    return VerificationRecord(
        "e_monotone", location, violation, 0.0, violation, 0.0, violation <= 0.0
    )


def ratio_positivity_scalar(checkpoints, an_sn_samples=(), x_min: float = 100.0):
    """asymptotics.ratio_positivity_record as a loop over the rows, then
    over the samples."""
    worst = math.inf
    location = x_min
    for cp in rows(checkpoints):
        if cp.x < x_min:
            continue
        low = min(cp.r_S, cp.r_E_pi, cp.r_E_x)
        if math.isnan(low):
            low = -math.inf
        if low < worst:
            worst, location = low, cp.x
    for n, value in an_sn_samples:
        if n >= 2 and value < worst:
            worst, location = value, float(n)
    passed = worst > 0.0 and math.isfinite(worst)
    return VerificationRecord(
        "ratio_positive", location, worst, 0.0, 0.0 if passed else 1.0, 0.0, passed
    )


def series_band_scalar(name: str, samples) -> RatioBand:
    """asymptotics.series_band over (location, value) pairs, as a loop."""
    inf_at, inf_value = samples[0]
    sup_at, sup_value = samples[0]
    for at, value in samples:
        if value < inf_value:
            inf_value, inf_at = value, at
        if value > sup_value:
            sup_value, sup_at = value, at
    return RatioBand(
        name, min(at for at, _ in samples), max(at for at, _ in samples),
        inf_value, inf_at, sup_value, sup_at,
    )


def empirical_constants_scalar(checkpoints, x_min: float, x_max: float = math.inf):
    """asymptotics.empirical_constants over the rows in the window."""
    selected = [cp for cp in rows(checkpoints) if x_min <= cp.x <= x_max]
    return [
        series_band_scalar(name, [(cp.x, getattr(cp, name)) for cp in selected])
        for name in BAND_SERIES
    ]


def an_sn_band_scalar(samples, n_min: int = 2) -> RatioBand:
    """asymptotics.an_sn_band over the samples with n >= n_min."""
    return series_band_scalar(
        AN_SN_SERIES, [(float(n), v) for n, v in samples if n >= n_min])


def mertens_width_scalar(checkpoints, lo: float, hi: float) -> float:
    """asymptotics.mertens_width over the rows in [lo, hi]."""
    values = [cp.mertens_remainder for cp in rows(checkpoints) if lo <= cp.x <= hi]
    return max(values) - min(values)


def pair_prime_bound(n: int) -> int:
    """An x with at least n primes below it: p_n < n(log n + log log n) for
    n >= 6, with a generous floor for small n."""
    return 100 + int(n * (math.log(max(n, 6)) + 3.0))


def weight_arrays(primes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, S, M) of primes: their weights, and S_n and M_n after the first
    n of them, n = 0..len(primes), from SumState.extend_primes: the arrays
    the check registry passes to the pair and jump checks."""
    primes = np.asarray(primes, dtype=np.int64)
    return weights(primes), *SumState().extend_primes(primes, marks=np.arange(len(primes) + 1))


def running_fsum(values: Iterable[float]) -> Iterator[float]:
    """math.fsum of each prefix of values, in one pass: the exact partials
    of Shewchuk's algorithm, which fsum keeps, are carried from one prefix
    to the next, and each prefix's are rounded once by fsum."""
    partials: list[float] = []
    for v in values:
        i = 0
        for y in partials:
            if abs(v) < abs(y):
                v, y = y, v
            hi = v + y
            lo = y - (hi - v)
            if lo:
                partials[i] = lo
                i += 1
            v = hi
        partials[i:] = [v]
        yield math.fsum(partials)


def pair_records_scalar(
    w: np.ndarray, S: np.ndarray, M: np.ndarray, tolerance: float
) -> list[VerificationRecord]:
    """check_pair_identity one term at a time: S_n^2 - M_n against the
    brute-force pair sum over the terms seen so far, at each sampled n."""
    sample = set(_log_subsample(len(w)))
    S, M = S.tolist(), M.tolist()
    seen: list[WeightedPrimeTerm] = []
    records = []
    for n, a in enumerate(w.tolist(), start=1):
        seen.append(WeightedPrimeTerm(index=n, prime=n, weight=a, weight_sq=a * a))
        if n in sample:
            lhs = S[n] * S[n] - M[n]
            rhs = pair_sum_bruteforce(seen)
            records.append(identity_record("pair_identity", float(n), lhs, rhs, tolerance))
    return records


def jump_record_scalar(
    w: np.ndarray, S: np.ndarray, M: np.ndarray, tolerance: float
) -> VerificationRecord:
    """check_jump_identity as a scan over one n at a time that keeps the
    first strictly worst residual."""
    S, M = S.tolist(), M.tolist()
    prev_e = 0.0
    worst, worst_at, worst_lhs, worst_rhs = -1.0, 0, 0.0, 0.0
    for n, a in enumerate(w.tolist(), start=1):
        predicted = 2.0 * a * S[n - 1]
        e = S[n] * S[n] - M[n]
        lhs = e - prev_e
        prev_e = e
        residual = relative_residual(lhs, predicted)
        if residual > worst:
            worst, worst_at, worst_lhs, worst_rhs = residual, n, lhs, predicted
    if worst < 0.0:
        worst, worst_at, worst_lhs, worst_rhs = 0.0, 0, 0.0, 0.0
    return VerificationRecord(
        check_id="jump_identity",
        location=float(worst_at),
        lhs=worst_lhs,
        rhs=worst_rhs,
        residual=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def abel_decompose_scalar(x: float, primes: Iterable[int]) -> AbelDecomposition:
    """calculus.abel_decompose at one x as a loop over the primes <= x,
    with its own direct_S and M: math.fsum of their weights and of the
    squares w * w, which the S and M a run stores must equal.

    The integral of M(t) h'(t) is the fsum over the cells [t_k, t_{k+1})
    of M(t_k) * (h(t_{k+1}) - h(t_k)), where the t_k are the primes <= x
    followed by x itself, w is eval_w, h = 1/w, and M(t_k) is the fsum of
    the w * w of the primes up to t_k (running_fsum).  The fields are
    floats: one row of the columns.
    """
    if x < 2.0:
        raise DomainError(f"abel decomposition needs x >= 2, got {x}")
    ws = [eval_w(float(p)) for p in primes if p <= x]
    if not ws:
        raise DomainError(f"no primes supplied at or below x={x}")
    h_x = 1.0 / eval_w(x)
    cells = []
    for i, (w, m_run) in enumerate(zip(ws, running_fsum(a * a for a in ws))):
        h_next = 1.0 / ws[i + 1] if i + 1 < len(ws) else h_x
        cells.append(m_run * (h_next - 1.0 / w))
    direct = math.fsum(ws)
    integral = math.fsum(cells)
    boundary = h_x * m_run
    residual = abs(direct - (boundary - integral)) / direct
    return AbelDecomposition(x, direct, boundary, integral, residual)


def abel_records_scalar(cfg, table, *_primes) -> tuple[list, AbelDecomposition]:
    """report._abel_records with abel_decompose_scalar run afresh at every
    x of the table, each with its own direct_S and M."""
    xs = table.x.tolist()
    if not xs:
        return [], table_of([], AbelDecomposition)
    primes = prime_array(int(math.floor(xs[-1]))).tolist()
    tol = cfg.tolerance("abel_identity")
    decomps = []
    worst = None
    for x in xs:
        dec = abel_decompose_scalar(x, primes[: bisect.bisect_right(primes, x)])
        decomps.append(dec)
        rec = identity_record(
            "abel_identity", x, dec.direct_S, dec.boundary_term - dec.integral_term, tol
        )
        if worst is None or rec.residual > worst.residual:
            worst = rec
    return [worst], table_of(decomps, AbelDecomposition)


def bound_record(
    check_id: str, location: float, value: float, bound: float, tolerance: float,
    *, direction: str = "ge",
) -> VerificationRecord:
    """Record for 'value >= bound' (direction='ge') or 'value <= bound'."""
    if direction == "ge":
        violation = max(0.0, bound - value)
    else:
        violation = max(0.0, value - bound)
    residual = violation / max(1.0, abs(bound))
    return VerificationRecord(
        check_id=check_id,
        location=location,
        lhs=value,
        rhs=bound,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
    )


def _worst(records: Iterable[VerificationRecord]) -> list[VerificationRecord]:
    """The record with the largest residual (the first of equals) of each
    check id, in order of first appearance, holding no other record."""
    worst: dict[str, VerificationRecord] = {}
    for rec in records:
        cur = worst.get(rec.check_id)
        if cur is None or rec.residual > cur.residual:
            worst[rec.check_id] = rec
    return list(worst.values())


def _edge(xs: list[float], x: float, ratio: float) -> int | None:
    """The index of the grid point x/ratio snaps down to, when x/ratio >= 3
    and a grid point lies at or below it."""
    i = bisect.bisect_right(xs, x / ratio)
    return i - 1 if x / ratio >= 3.0 and i else None


def block_sandwich_scalar(checkpoints, lambdas) -> Blocks:
    """asymptotics.block_sandwich one (x, lam) at a time, with eval_w at
    both edges; the block rows are packed into columns."""
    cps = rows(checkpoints)
    xs = [cp.x for cp in cps]
    stats = []
    for hi in cps:
        for lam in lambdas:
            j = _edge(xs, hi.x, lam)
            if j is not None:
                lo = cps[j]
                delta_pi = hi.pi - lo.pi
                stats.append(BlockRow(
                    hi.x, lam, lo.x, hi.S - lo.S, delta_pi,
                    delta_pi * eval_w(hi.x), delta_pi * eval_w(lo.x),
                ))
    return table_of(stats, Blocks)


def sandwich_records_scalar(blocks: Blocks, tolerance: float) -> list:
    """asymptotics.sandwich_records as the worst of two records per block."""
    return _worst(
        rec
        for s in rows(blocks)
        for rec in (
            bound_record("block_sandwich_lower", s.x, s.delta_S, s.lower, tolerance),
            bound_record("block_sandwich_upper", s.x, s.delta_S, s.upper, tolerance,
                         direction="le"),
        )
    )


def lower_bound_scalar(checkpoints, A: float, tolerance: float) -> list:
    """asymptotics.lower_bound_check as the worst of one record per grid
    point, with eval_w at the lower edge."""
    cps = rows(checkpoints)
    xs = [cp.x for cp in cps]
    records = []
    for hi in cps:
        j = _edge(xs, hi.x, A)
        if j is not None:
            lo = cps[j]
            bound = (hi.M - lo.M) / eval_w(lo.x)
            records.append(bound_record("lower_bound", hi.x, hi.S, bound, tolerance))
    return _worst(records)


def scale_identity_scalar(checkpoints, tolerance: float) -> VerificationRecord:
    """asymptotics.scale_identity_record one checkpoint at a time."""
    worst = None
    for cp in rows(checkpoints):
        if cp.x >= 3.0:
            rhs = cp.pi * np_log(cp.x) / cp.x
            rec = identity_record("scale_identity", cp.x, cp.r_E_x / cp.r_E_pi, rhs, tolerance)
            if worst is None or rec.residual > worst.residual:
                worst = rec
    return worst


def block_records_scalar(checkpoints, lambdas, A: float, tolerance: float):
    """The reference for the block checks over a run: its block rows, the
    sandwich records and the lower-bound records."""
    blocks = block_sandwich_scalar(checkpoints, lambdas)
    return (
        rows(blocks),
        sandwich_records_scalar(blocks, tolerance),
        lower_bound_scalar(checkpoints, A, tolerance),
    )


def table_lines_scalar(table, columns: Sequence[str], sep: str) -> Iterator[str]:
    """The rows of a checkpoint table as text lines, its columns (x, pi,
    then reals) joined by sep: pi through str and each real through its
    own f"{v:.17g}" call, one value at a time."""
    cols = [getattr(table, name).tolist() for name in columns]
    for x, pi, *reals in zip(*cols):
        yield sep.join([f"{x:.17g}", str(pi), *(f"{v:.17g}" for v in reals)])


def an_Sn_series(
    x_max: float, *, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> list[tuple[int, float]]:
    """The products a_n * S_{n-1} sampled at power-of-two n (plus the final
    n) over all primes <= x_max; a_1 * S_0 = 0 by convention."""
    if x_max < 3:
        raise DomainError(f"x_max must be >= 3, got {x_max}")
    return run_stream(x_max, [], segment_size=segment_size).an_sn_samples


def main_term_growth(x: float, tol: float = 1e-10) -> float:
    """(integral_2^x dt/sqrt(t log t)) / sqrt(x/log x), the normalized size
    of the main-term integral; tends to 0 as x -> 2+ and is reported
    alongside r_S at scale."""
    if not x > 2.0:
        raise DomainError(f"growth ratio needs x > 2, got {x}")
    # dt / sqrt(t log t) is 2 exp(u^2/2) du in u = sqrt(log t)
    return _u_integral(lambda u: 2.0, x, tol) / eval_h(x)


def eval_h_prime(t: float) -> float:
    """h'(t) = (log t - 1) / (2 sqrt(t) (log t)^{3/2})."""
    _check_domain(t)
    lt = math.log(t)
    return (lt - 1.0) / (2.0 * math.sqrt(t) * lt * math.sqrt(lt))


def eval_w_prime(t: float) -> float:
    """w'(t) = (1 - log t) / (2 t^{3/2} sqrt(log t))."""
    _check_domain(t)
    lt = math.log(t)
    return (1.0 - lt) / (2.0 * t * math.sqrt(t) * math.sqrt(lt))


def _fmt(x: mpmath.mpf) -> str:
    return f"{float(x):.17g}"


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 10**6
    small = [2, 3, 5, 7]

    print("# single weights sqrt(log p / p)")
    for p in (2, 3, 5, 7, 11):
        print(f"w({p}) = {_fmt(reference_weight(p))}")
    a1 = reference_weight(2)
    a2 = reference_weight(3)
    print(f"2*w(2)*w(3) = {_fmt(2 * a1 * a2)}")
    print(f"w(3)*S_1    = {_fmt(a2 * a1)}")

    s4, m4, e4 = reference_sums(small)
    print("\n# sums over primes {2,3,5,7}")
    print(f"S = {_fmt(s4)}\nM = {_fmt(m4)}\nE = {_fmt(e4)}")
    x = mpmath.mpf(10)
    print(f"r_S(10)    = {_fmt(s4 / mpmath.sqrt(x / mpmath.log(x)))}")
    print(f"r_E_pi(10) = {_fmt(e4 / 4)}")

    print("\n# quadrature oracle")
    val = romberg(lambda t: 1.0 / math.sqrt(t * math.log(t)), 2.0, 10.0)
    print(f"int_2^10 dt/sqrt(t log t) = {val:.17g}")

    print(f"\n# trial-division run to {limit}")
    primes = trial_division_primes(limit)
    print(f"pi({limit}) = {len(primes)}")
    s, m, e = reference_sums(primes)
    print(f"S({limit}) = {_fmt(s)}")
    print(f"M({limit}) = {_fmt(m)}")
    print(f"E({limit}) = {_fmt(e)}")


if __name__ == "__main__":
    main()
