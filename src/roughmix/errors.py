"""Exception types shared across the package."""


class ConfigurationError(Exception):
    """A request that is structurally invalid (bad sizes, caps exceeded, ...)."""


class CompositionError(ValueError):
    """Two objects cannot be composed (shape, grid, or time mismatch)."""


class NumericsError(RuntimeError):
    """A numerical failure: blow-up, non-finite values, failed factorization."""


class NonPositiveDefiniteError(NumericsError):
    """Cholesky failed on a covariance matrix, even after a jitter retry."""
