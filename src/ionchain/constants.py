"""Physical constants and ion species definitions.

CODATA 2018 values, written out to 10 significant figures where the value is
not exact by SI definition.  This module is the single source of truth for
constants; nothing else in the package hard-codes them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InputError

HBAR = 1.054571817e-34
"""Reduced Planck constant (J s), exact to the digits shown."""

ECHARGE = 1.602176634e-19
"""Elementary charge (C), exact by SI definition."""

EPSILON0 = 8.8541878128e-12
"""Vacuum permittivity (F/m), CODATA 2018."""

AMU = 1.66053906660e-27
"""Atomic mass constant (kg), CODATA 2018."""

K_COULOMB = 1.0 / (4.0 * math.pi * EPSILON0)
"""Coulomb constant 1/(4 pi eps0) (m/F)."""


@dataclass(frozen=True)
class IonSpecies:
    """A trapped-ion species: mass in kg, charge in elementary charges.

    Parameters
    ----------
    mass : float
        Ion mass in kg, positive and finite.
    charge : int, optional
        Charge state in units of the elementary charge: an integer >= 1
        (not a bool) whose q^2/(4 pi eps0) is finite.
    label : str, optional
        Human-readable name, e.g. ``"171Yb+"``.
    """

    mass: float
    charge: int = 1
    label: str = ""

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise InputError(f"ion mass must be positive and finite, got {self.mass}")
        charge = self.charge
        if isinstance(charge, bool) or not isinstance(charge, numbers.Integral) or charge < 1:
            raise InputError(f"ion charge must be an integer >= 1, got {charge!r}")
        try:
            finite = math.isfinite(self.coulomb_energy_scale)
        except OverflowError:  # the charge itself does not fit in a float
            finite = False
        if not finite:
            raise InputError("ion charge is too large: q^2/(4 pi eps0) overflows")

    @classmethod
    def from_amu(cls, mass_amu: float, charge: int = 1, label: str = "") -> "IonSpecies":
        return cls(mass=mass_amu * AMU, charge=charge, label=label)

    @property
    def mass_amu(self) -> float:
        return self.mass / AMU

    @property
    def charge_coulomb(self) -> float:
        return self.charge * ECHARGE

    @property
    def coulomb_energy_scale(self) -> float:
        """q^2/(4 pi eps0) for this species' charge (J m)."""
        q = self.charge_coulomb
        return K_COULOMB * q * q


YB171 = IonSpecies.from_amu(170.9363302, label="171Yb+")
"""Singly charged ytterbium-171, the workhorse hyperfine qubit."""

KNOWN_SPECIES = {
    "171Yb+": YB171,
    "9Be+": IonSpecies.from_amu(9.012183065, label="9Be+"),
    "25Mg+": IonSpecies.from_amu(24.98583696, label="25Mg+"),
    "40Ca+": IonSpecies.from_amu(39.96259086, label="40Ca+"),
    "43Ca+": IonSpecies.from_amu(42.95876828, label="43Ca+"),
    "88Sr+": IonSpecies.from_amu(87.90561226, label="88Sr+"),
    "138Ba+": IonSpecies.from_amu(137.9052472, label="138Ba+"),
}
"""Masses from AME2020 atomic-mass evaluation (neutral-atom masses; the
electron-mass difference is negligible at the accuracy used here)."""
