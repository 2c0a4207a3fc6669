"""Exception hierarchy shared across the package."""


class MascError(Exception):
    """Base class for all package errors."""


class ConfigError(MascError):
    """Invalid configuration or incompatible component wiring."""


class DataError(MascError):
    """Input data violates a precondition (empty, degenerate, unlabeled...)."""


class TraceParseError(DataError):
    """Malformed trace line. Carries the byte offset of the failure and the
    message without it (``reason``)."""

    def __init__(self, message: str, byte_offset: int | None = None):
        self.reason = message
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)


class TraceValidationError(DataError):
    """Well-formed JSON that violates the trace schema."""


class TransportError(MascError):
    """Remote call failed after the configured number of attempts."""


class CheckpointError(MascError):
    """Unreadable, corrupt, or version-incompatible checkpoint file."""


class DivergenceError(MascError):
    """Training produced non-finite values."""
