"""Exception types shared across the package; each subclass carries the
exit code that ``frugal`` ends with when the error escapes a subcommand.

The ``json_*`` checks read one value of a parsed JSON document (a rig
config or a model file) as the JSON type it must have; a wrong type raises
TypeError, which the loader turns into its own error type."""


class FrugalError(Exception):
    """Base class for all package errors."""


class DatasetError(FrugalError):
    """Malformed input data: parse failures, schema mismatches, bad values."""
    exit_code = 2


class TrainingError(FrugalError):
    """A learner's training preconditions were not met."""
    exit_code = 3


class UnsupportedScoreError(FrugalError):
    """The requested score function cannot be computed on this data."""
    exit_code = 4


class ConfigError(FrugalError):
    """Invalid experiment or CLI configuration."""
    exit_code = 5


def json_integer(value) -> int:
    # int() would round 4.7 down and read true as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected a JSON integer")
    return value


def json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a JSON number")
    return float(value)


def json_string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a JSON string")
    return value


def json_boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected a JSON boolean")
    return value
