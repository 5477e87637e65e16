"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`MrsiCsError`,
and each class declares the exit code that ends a CLI command it
escapes from.
"""

import numbers


class MrsiCsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ShapeError(MrsiCsError):
    """Array dimensions are inconsistent with the acquisition geometry."""

    exit_code = 3


class ScheduleError(MrsiCsError):
    """A sampling schedule refers to indices outside the grid."""

    exit_code = 3


class ParameterError(MrsiCsError, ValueError):
    """A scalar parameter is outside its admissible range."""

    exit_code = 2


class ConfigError(MrsiCsError):
    """A configuration document is malformed or self-inconsistent."""

    exit_code = 2


class DivergenceError(MrsiCsError):
    """The iterative solver produced non-finite values.

    ``iteration`` records the outer iteration at which the breakdown was
    detected, 0 when the normal-matrix factor breaks down before the
    first.
    """

    exit_code = 4

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


def check_count(name: str, value) -> None:
    """Refuse ``value`` unless it is an integer >= 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
