"""Exception taxonomy shared by all modules."""

__all__ = [
    "BoltzsphereError",
    "ParameterError",
    "DegenerateProjectionError",
    "SupportError",
    "CoverageError",
    "CapacityError",
    "DegenerateVarianceError",
    "ConfigError",
]


class BoltzsphereError(Exception):
    """Base class for all package errors."""


class ParameterError(BoltzsphereError, ValueError):
    """Invalid parameters (bad N, d, marginal order, regime violations)."""


class DegenerateProjectionError(BoltzsphereError):
    """Projection target undefined: the hyperplane projection vanished."""


class SupportError(BoltzsphereError):
    """Evaluation outside the support (empty sphere, vanishing measure)."""


class CoverageError(BoltzsphereError):
    """Grid window too small: truncated or wrapped mass above tolerance."""


class CapacityError(BoltzsphereError):
    """Problem size above a hard limit (transport pairs, sample counts)."""


class DegenerateVarianceError(BoltzsphereError):
    """Energy fluctuation scale is zero; asymptotics are undefined."""


class ConfigError(BoltzsphereError):
    """Malformed experiment configuration."""
