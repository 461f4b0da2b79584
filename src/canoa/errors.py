"""Exception types shared across the package."""


class CanoaError(Exception):
    """Base class for all package errors."""


class EmptyTrace(CanoaError):
    """A sampled trace with no samples where samples are required."""


class DuplicateId(CanoaError):
    """Two simultaneous bus requesters share the same frame ID."""


class DegenerateTrace(CanoaError):
    """Calibration sample has zero variance."""


class EmptyInput(CanoaError):
    """An operation requiring a non-empty input received an empty one."""


class RankDeficient(CanoaError):
    """Fewer nonzero-variance directions than requested components."""


class OutOfBounds(CanoaError):
    """Requested time window falls outside the trace."""


class SingleClass(CanoaError):
    """Training data contains only one class."""


class LengthMismatch(CanoaError):
    """Paired sequences have different lengths."""


class ConfigError(CanoaError):
    """Malformed run configuration.

    ``line`` carries the 1-based line number when the problem is tied to a
    specific config line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingChannel(CanoaError):
    """An expected per-ECU power channel is absent from the trace directory."""


class BundleMismatch(CanoaError):
    """Model bundle does not match the traces it is applied to."""


class FileFormatError(CanoaError):
    """A persisted trace or bundle file fails validation on read."""
