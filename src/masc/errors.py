"""Exception hierarchy shared across the package, and the two field checks
(``check_int``, ``check_number``) that the record types share."""

import math


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
    """Training or scoring produced non-finite values."""


def check_int(value, name: str, low: float = -math.inf, high: float = math.inf) -> None:
    """ConfigError unless ``value`` is an int in [low, high]; a bool is not
    an int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    check_number(value, name, low, high)


def check_number(
    value, name: str, low: float = -math.inf, high: float = math.inf, strict: bool = False
) -> None:
    """ConfigError unless ``value`` is a finite int or float in [low, high],
    or in (low, high) when ``strict``. A bool is not a number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not -math.inf < value < math.inf:  # an int too large for a float is finite
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if (not low < value < high) if strict else (not low <= value <= high):
        bounds = f"({low}, {high})" if strict else f"[{low}, {high}]"
        raise ConfigError(f"{name} must be in {bounds}, got {value!r}")
