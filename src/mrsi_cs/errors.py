"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`MrsiCsError` so
callers (in particular the CLI) can map failure classes to exit codes.
"""


class MrsiCsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MrsiCsError):
    """Array dimensions are inconsistent with the acquisition geometry."""


class ScheduleError(MrsiCsError):
    """A sampling schedule refers to indices outside the grid."""


class ParameterError(MrsiCsError, ValueError):
    """A scalar parameter is outside its admissible range."""


class ConfigError(MrsiCsError):
    """A configuration document is malformed or self-inconsistent."""


class DivergenceError(MrsiCsError):
    """The iterative solver produced non-finite values.

    ``iteration`` records the outer iteration at which the breakdown was
    detected.
    """

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration
