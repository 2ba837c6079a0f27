"""Exception hierarchy shared by the library and the command line tool.

The CLI maps these onto exit codes: usage errors exit 1, data errors exit 2
and numerical failures exit 3.
"""

__all__ = [
    "RelsysError",
    "UsageError",
    "DataError",
    "NumericalError",
    "UnsolvableError",
    "ConvergenceError",
]


class RelsysError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RelsysError):
    """Invalid arguments or configuration (caller mistake)."""


class DataError(RelsysError):
    """Malformed input data; message names the offending file/line."""


class NumericalError(RelsysError):
    """A computation produced a non-finite or otherwise unusable result."""


class UnsolvableError(NumericalError):
    """Moment inversion has no solution in the searched bracket."""


class ConvergenceError(NumericalError):
    """An iterative solver failed to converge (e.g. optimum pinned at a bound)."""
