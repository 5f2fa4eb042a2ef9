"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes: 2 for usage/input problems, 3 for runtime aborts.
"""


class ChangeDetError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ShapeError(ChangeDetError):
    """Tensor extents incompatible with the requested operation."""


class ConfigError(ChangeDetError):
    """Invalid configuration value (widths, strides, enum keys, ...)."""


class GraphError(ChangeDetError):
    """Misuse of the gradient tape (double backward, foreign tensor, ...)."""


class FormatError(ChangeDetError):
    """Malformed on-disk file (checkpoint or netpbm image)."""


class DataError(ChangeDetError):
    """An input file missing (checkpoint, image, config file, manifest), or dataset files inconsistent."""


class GenerationError(ChangeDetError):
    """Synthetic data generation could not satisfy its constraints."""


class NumericError(ChangeDetError):
    """An op produced non-finite values from finite inputs."""

    exit_code = 3

