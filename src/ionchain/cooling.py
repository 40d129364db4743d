"""Crosstalk bound for sympathetic cooling with interspersed coolant isotopes.

Coolant ions of another isotope, sideband-cooled on a narrow line, scatter
repump photons that qubit ions can reabsorb off-resonantly.  For coolant
fraction r, ion spacing d, repump wavelength lambda, excited-state linewidth
Gamma and isotope splitting Delta, the per-qubit excitation rate in an
arbitrarily long chain at unity repump saturation is bounded by

    R = r * lambda^2 * (Gamma/2)^3 / (16 d^2 Delta^2).

This is an upper bound: dark-state sideband cooling scatters less than the
saturated rate, and a sizable fraction of the scattering is elastic, so the
true qubit error rate is expected to be at least an order of magnitude
smaller.  The bound is reported as-is; no correction factor is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class CoolingConfig:
    """Inputs of the sympathetic-cooling crosstalk bound (SI units)."""

    coolant_fraction: float
    spacing: float
    wavelength: float
    linewidth: float
    isotope_splitting: float

    def __post_init__(self):
        if not 0.0 <= self.coolant_fraction <= 1.0:
            raise InputError("coolant fraction must lie in [0, 1]")
        for name in ("spacing", "wavelength", "linewidth", "isotope_splitting"):
            if not 0 < getattr(self, name) < math.inf:
                raise InputError(f"{name} must be positive and finite")


def crosstalk_rate(cfg: CoolingConfig) -> float:
    """Upper bound on the per-qubit photon-scattering rate, in 1/s."""
    return (
        cfg.coolant_fraction
        * cfg.wavelength**2
        * (cfg.linewidth / 2.0) ** 3
        / (16.0 * cfg.spacing**2 * cfg.isotope_splitting**2)
    )
