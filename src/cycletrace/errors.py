"""Exception types shared across the package.

Every error a caller is expected to handle derives from CycleTraceError so
command-line entry points can map exception class to exit code in one place.
"""

from __future__ import annotations


class CycleTraceError(Exception):
    """Base class for all errors raised by this package."""


class TraceParseError(CycleTraceError):
    """Malformed trace, program, region, or report text.

    line is 1-based when the input came from line-oriented text.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ModelError(CycleTraceError):
    """Machine model file failed to parse or validate.

    Validation failures name the offending entity (resource, class, table)
    in the message; parse failures carry line/column positions.
    """


class ProtocolError(CycleTraceError):
    """Wire-protocol violation on a socket trace stream."""


class TruncatedTraceError(CycleTraceError):
    """The instruction stream ended before its natural end.

    Raised when a producer disconnects without an end-of-stream frame or
    when the toy interpreter exhausts its step budget.
    """


class ProgramError(CycleTraceError):
    """The toy program performed an impossible operation at run time."""


class AnalysisError(CycleTraceError):
    """The trace cannot be analyzed under the given model.

    Examples: a class name the model does not define, a context value with
    no latency-table entry, summarizing a pipeline that is not drained.
    """


class UndefinedRatioError(AnalysisError):
    """Differential throughput against a zero-cycle baseline."""
