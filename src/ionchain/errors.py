"""Exception and warning types used across the package, and the rule for counts."""

from __future__ import annotations

import operator


class IonChainError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IonChainError, ValueError):
    """An argument violates a documented precondition or invariant."""


class DomainError(InputError):
    """A coordinate lies outside the domain of a potential or beam profile."""


class ConfigError(InputError):
    """A run configuration file is malformed or fails schema validation."""


class SolverError(IonChainError, RuntimeError):
    """An iterative solver failed to converge.

    Carries the final gradient residual (dimensionless force units) and the
    best positions found so far.
    """

    def __init__(self, message, residual=None, positions=None):
        super().__init__(message)
        self.residual = residual
        self.positions = positions


class DegenerateChainError(IonChainError, ValueError):
    """Two or more ion positions coincide, so Coulomb terms diverge."""


class UnstableChainError(IonChainError, RuntimeError):
    """The mode matrix has a non-positive eigenvalue at the given positions."""


class FitError(IonChainError, RuntimeError):
    """A least-squares fit failed."""


class LowOccupancyWarning(UserWarning):
    """Thermal occupancy too low for the classical high-temperature model."""


def _integer_at_least(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int, read as :func:`operator.index` reads it (numpy
    integers pass; a bool, 1e5 and 2.0 do not), and >= ``minimum`` if one is
    given; else InputError naming it."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if minimum is not None and count < minimum:
        raise InputError(f"{name} must be >= {minimum}")
    return count
