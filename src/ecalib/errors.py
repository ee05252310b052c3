"""Exception types shared across the package."""

from __future__ import annotations


class EcalibError(Exception):
    """Base class for all package errors."""


class InvalidConfig(EcalibError):
    """Raised by validate_config with the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class OutOfRange(EcalibError):
    """A numeric input fell outside its documented domain."""


class BetOutOfBounds(EcalibError):
    """A bet mu violated 0 <= mu < mu_max."""


class InvalidOrder(EcalibError):
    """A testing order is not a permutation of the candidate ids."""


class SourceFailure(EcalibError):
    """A risk source returned a malformed or out-of-range batch."""


class OracleError(EcalibError):
    """Base class for oracle subprocess protocol aborts."""


class OracleTimeout(OracleError):
    """Oracle did not answer within the response deadline."""


class OracleMalformed(OracleError):
    """Oracle sent a line that is not the expected protocol message."""


class OracleOutOfRangeRisk(OracleError):
    """Oracle reported a risk outside [0, 1]."""


class OracleProcessExit(OracleError):
    """Oracle process terminated while answers were still owed."""
