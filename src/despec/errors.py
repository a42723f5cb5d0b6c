"""Exception types shared across the package.

Each class carries a stable ``exit_code`` so the CLI can map error
categories to distinct process exit codes (documented in the CLI help).
"""


class DespecError(Exception):
    """Base class for all despec errors."""

    exit_code = 1


# --- file I/O (exit code 3) ---

class UnsupportedFormatError(DespecError):
    exit_code = 3


class CorruptHeaderError(DespecError):
    exit_code = 3


class TruncatedDataError(DespecError):
    exit_code = 3


class IoFailureError(DespecError):
    """Underlying OS read/write failure."""

    exit_code = 3


# --- scenes and configuration (exit code 4) ---

class UnknownSceneError(DespecError):
    exit_code = 4


class InvalidSceneError(DespecError):
    exit_code = 4


class ConfigError(DespecError):
    exit_code = 4


# --- processing (exit code 5) ---

class InvalidIlluminantError(DespecError):
    exit_code = 5


class TooFewPixelsError(DespecError):
    exit_code = 5


class EmptyClusterError(DespecError):
    exit_code = 5


# --- evaluation (exit code 6) ---

class DimensionMismatchError(DespecError):
    exit_code = 6


class NoConvergenceWarning(UserWarning):
    """Adaptive clustering hit its iteration cap with failing clusters left."""
