"""Exception hierarchy shared by all usvclust modules.

Each class carries the exit code the CLI returns for it: ParameterError 2
(usage), FormatError and ValidationError 3 (invalid data), NumericalError 4.
"""


class UsvClustError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ParameterError(UsvClustError):
    """An argument or configuration value is out of range or inconsistent."""

    exit_code = 2


class ValidationError(UsvClustError):
    """Input data violates an invariant (negative energy, duplicate id, ...)."""


class FormatError(UsvClustError):
    """A file does not parse under its declared format."""


class NumericalError(UsvClustError):
    """A numerical routine failed to produce a usable result."""

    exit_code = 4
