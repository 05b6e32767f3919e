"""Exception types shared across the package.

The CLI maps these onto exit codes, so anything user-facing should raise
one of them rather than a bare ValueError.
"""


class MarketStatesError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MarketStatesError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(MarketStatesError, ValueError):
    """Input data violates a structural or numeric requirement."""


class EstimationError(MarketStatesError, RuntimeError):
    """A per-cluster parameter estimate could not be produced."""


class SingularSubmatrixError(EstimationError):
    """A clique or separator sub-covariance is not positive definite."""

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"singular sub-covariance on vertex set {self.vertices}: not positive definite")


class FitError(MarketStatesError, RuntimeError):
    """The fit loop failed to produce a usable set of cluster models."""
