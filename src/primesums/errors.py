"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value (bad grid ratio, x_max, thread count, ...)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class SequencingError(ValueError):
    """Out-of-order or duplicate prime, or a snapshot outside its window."""


class SizeError(ValueError):
    """Input too large for an intentionally quadratic operation."""


class CheckpointFormatError(ValueError):
    """Checkpoint file is missing, truncated, or from an incompatible config."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge within its depth budget."""
