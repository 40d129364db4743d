"""Exception and warning types used across the package."""

from __future__ import annotations


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
