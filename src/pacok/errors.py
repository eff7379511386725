"""Exception hierarchy shared by all pacok modules.

The CLI maps these onto process exit codes: configuration problems exit
with 2, violated runtime invariants with 3, numerical blowup with 4.
"""

from contextlib import contextmanager


class PacokError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2   # a configuration problem, unless a subclass says otherwise


class ConfigError(PacokError):
    """Invalid configuration: bad key, out-of-range value, malformed input file."""


class GridMismatchError(PacokError):
    """Two fields that must share a grid do not."""


class FieldValueError(PacokError):
    """A grid field contains non-finite values."""

    exit_code = 4


class InvariantViolationError(PacokError):
    """A guaranteed runtime invariant failed while its condition was certified."""

    exit_code = 3


class MppViolationError(InvariantViolationError):
    """Solution left [0, 1] beyond tolerance although the bound was certified."""


class EnergyIncreaseError(InvariantViolationError):
    """Discrete energy increased beyond tolerance although decay was certified."""


class BlowupError(PacokError):
    """Non-finite values appeared during time stepping."""

    exit_code = 4

    def __init__(self, step_index: int, message: str | None = None):
        self.step_index = step_index
        super().__init__(message or f"non-finite values at step {step_index}")


@contextmanager
def reading(path):
    """A file that cannot be opened, or is not UTF-8 text, as a ConfigError naming it."""
    try:
        yield
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {path}: not UTF-8 text") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
