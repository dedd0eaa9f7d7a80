"""Exception hierarchy shared across the package.

Each class's exit_code is the CLI's exit status for it, the one statement
of that table: ConfigError 2, DataError 3, DivergenceError 4.
"""


class UwboccError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ConfigError(UwboccError, ValueError):
    """Invalid configuration, parameters, or usage."""

    exit_code = 2


class DataError(UwboccError, RuntimeError):
    """Missing, corrupt, or inconsistent data on disk or in a manifest."""

    exit_code = 3


class DivergenceError(UwboccError, ArithmeticError):
    """Training or inference produced non-finite values."""

    exit_code = 4
