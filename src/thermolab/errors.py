"""Semantic exception hierarchy shared across the package."""


class ThermolabError(Exception):
    """Base class for all package errors."""


class UsageError(ThermolabError, ValueError):
    """Caller violated an operation's contract (shapes, kinds, ranges)."""


class DataError(ThermolabError, ValueError):
    """Input data is malformed: non-finite values, empty samples."""


class DomainError(ThermolabError):
    """Evaluation point lies outside the sampled domain."""


class ResourceError(ThermolabError):
    """Requested problem size exceeds the configured dimension cap."""


class InfeasibleConstraintError(ThermolabError):
    """Constraint cannot be met by any state in the family.

    Carries ``reachable``: {component index: (lo, hi)} of attainable ranges.
    """

    def __init__(self, message, reachable=None):
        super().__init__(message)
        self.reachable = dict(reachable or {})


class QuadratureError(ThermolabError):
    """Step-halving disagreement revealed an under-resolved quadrature."""


class NumericRangeError(ThermolabError):
    """A guarded exponential or trace left the representable range."""


class ConfigError(UsageError):
    """Experiment config could not be parsed or validated: a misuse, so a
    ``UsageError`` too."""

    def __init__(self, message, key=None, line=None):
        detail = message
        if key is not None:
            detail += f" (key {key!r}"
            detail += f", line {line})" if line is not None else ")"
        elif line is not None:
            detail += f" (line {line})"
        super().__init__(detail)
        self.key = key
        self.line = line
