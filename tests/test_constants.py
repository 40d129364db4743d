import numpy as np
import pytest
import scipy.constants

from ionchain import AMU, ECHARGE, EPSILON0, HBAR, YB171, IonSpecies
from ionchain.errors import InputError


def test_constants_match_scipy_codata():
    assert HBAR == pytest.approx(scipy.constants.hbar, rel=1e-9)
    assert ECHARGE == pytest.approx(scipy.constants.e, rel=1e-12)
    assert EPSILON0 == pytest.approx(scipy.constants.epsilon_0, rel=1e-9)
    assert AMU == pytest.approx(scipy.constants.atomic_mass, rel=1e-9)


def test_species_fields():
    assert YB171.mass == pytest.approx(170.9363302 * AMU)
    assert YB171.charge == 1
    assert YB171.mass_amu == pytest.approx(170.9363302)
    assert YB171.charge_coulomb == ECHARGE


def test_species_validation():
    with pytest.raises(InputError):
        IonSpecies(mass=-1e-25)
    with pytest.raises(InputError):
        IonSpecies(mass=1e-25, charge=0)


def test_coulomb_energy_scale_quadratic_in_charge():
    single = IonSpecies(mass=1e-25, charge=1)
    double = IonSpecies(mass=1e-25, charge=2)
    assert double.coulomb_energy_scale == pytest.approx(4 * single.coulomb_energy_scale)
