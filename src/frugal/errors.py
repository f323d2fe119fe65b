"""Exception types shared across the package; each subclass carries the
exit code that ``frugal`` ends with when the error escapes a subcommand."""


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
