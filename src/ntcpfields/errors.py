"""Exception hierarchy shared across the package.

Everything derives from ValueError so callers that do not care about the
finer distinctions can catch a single type; the CLI maps these to exit
code 1, and ConfigError and genuine I/O problems to exit code 2.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(DomainError):
    """A model was constructed with invalid parameters."""


class UnattainableTargetError(DomainError):
    """A requested target value cannot be reached within the search cap."""


class DegenerateError(DomainError):
    """A distribution or normalizer is degenerate (zero variance)."""


class ShapeError(ValueError):
    """Array / region dimensions do not match."""


class CapacityError(ValueError):
    """A requested allocation exceeds the configured cell cap."""


class ConfigError(ValueError):
    """A config or sample-file field is malformed or has the wrong type."""
