"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One violated feasibility inequality, machine readable.

    ``name`` is the inequality itself (e.g. ``"ell2 > 2"``), ``value`` the
    offending number, ``bound`` the limit it was checked against and
    ``subject`` identifies which gain set / train pair it belongs to.
    """

    name: str
    value: float
    bound: float
    subject: str = ""

    def __str__(self):
        where = f" [{self.subject}]" if self.subject else ""
        return f"violated: {self.name}{where} (value={self.value!r}, bound={self.bound!r})"


class ConfigurationError(ValueError):
    """Raised when a scenario configuration is structurally or numerically infeasible."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class BarrierDomainError(ValueError):
    """Barrier transform evaluated at or beyond its open-interval boundary."""

    def __init__(self, value, low, high):
        super().__init__(f"barrier argument {value!r} outside open interval ({low!r}, {high!r})")
        self.value = value
        self.low = low
        self.high = high


class TimeseriesFormatError(ValueError):
    """A time-series CSV whose header or rows are not a record's column layout."""


class PlacementError(RuntimeError):
    """Observer gain synthesis failed (unobservable pair or ill-conditioned transform)."""


class IntegrationFault(RuntimeError):
    """Non-finite derivative or state encountered during fixed-step integration."""

    def __init__(self, time, labels=(), message=None):
        self.time = time
        self.labels = list(labels)
        msg = message or f"non-finite value at t={time!r}"
        if self.labels:
            msg += " in " + ", ".join(self.labels)
        super().__init__(msg)
