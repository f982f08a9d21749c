"""Weighted prime sums at scale.

Computes S(x) = sum of sqrt(log p / p) over primes p <= x, the companion
sum M(x) = sum of log(p)/p, and the derived pair sum E(x) = S(x)^2 - M(x),
alongside exact pi(x) counts.  Ships the structural-identity checks, block
inequalities, and calculus identities that tie the three together, plus a
deterministic CLI with resumable checkpoints.
"""

__version__ = "0.1.0"

from .accumulate import (
    Checkpoint,
    RunResult,
    SumState,
    WeightedPrimeTerm,
    an_Sn_series,
    grid_points,
    make_term,
    run_stream,
    snapshot,
)
from .asymptotics import (
    BlockStat,
    CheckpointSeries,
    RatioBand,
    an_sn_band,
    block_sandwich,
    compute_ratios,
    empirical_constants,
    lower_bound_check,
    mertens_contraction_record,
    mertens_width,
    scale_identity_record,
)
from .calculus import (
    AbelDecomposition,
    abel_decompose,
    abel_decompose_grid,
    eval_h,
    eval_h_prime,
    eval_w,
    eval_w_prime,
    main_term_growth,
    main_term_identity,
    quadrature,
)
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DomainError,
    QuadratureError,
    SequencingError,
    SizeError,
)
from .report import RunConfig, cmd_compute, cmd_report, cmd_verify, resume
from .sieve import (
    PrimeSegment,
    SieveConfig,
    base_primes,
    prime_array,
    prime_count,
    stream_segments,
)
from .verify import (
    VerificationRecord,
    check_E_monotone,
    check_jump_identity,
    check_pair_identity,
    pair_sum_bruteforce,
    term_stream,
)

__all__ = [
    "__version__",
    "AbelDecomposition",
    "BlockStat",
    "Checkpoint",
    "CheckpointFormatError",
    "CheckpointSeries",
    "ConfigError",
    "DomainError",
    "PrimeSegment",
    "QuadratureError",
    "RatioBand",
    "RunConfig",
    "RunResult",
    "SequencingError",
    "SieveConfig",
    "SizeError",
    "SumState",
    "VerificationRecord",
    "WeightedPrimeTerm",
    "abel_decompose",
    "abel_decompose_grid",
    "an_Sn_series",
    "an_sn_band",
    "base_primes",
    "block_sandwich",
    "check_E_monotone",
    "check_jump_identity",
    "check_pair_identity",
    "cmd_compute",
    "cmd_report",
    "cmd_verify",
    "compute_ratios",
    "empirical_constants",
    "eval_h",
    "eval_h_prime",
    "eval_w",
    "eval_w_prime",
    "grid_points",
    "lower_bound_check",
    "main_term_growth",
    "main_term_identity",
    "make_term",
    "mertens_contraction_record",
    "mertens_width",
    "pair_sum_bruteforce",
    "prime_array",
    "prime_count",
    "quadrature",
    "resume",
    "run_stream",
    "scale_identity_record",
    "snapshot",
    "stream_segments",
    "term_stream",
]
