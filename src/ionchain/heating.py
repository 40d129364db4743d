"""Electric-field-noise heating and growth of decay parameters with wait time.

Trap electric-field noise follows an empirical power law in frequency,
S_E ~ omega^(-alpha) with 0 <= alpha <= 2.  Converting field noise to quanta
per second adds one more inverse power of omega, so a single ion heats at

    nbar_rate(omega) = nbar_rate_ref * (omega_ref / omega)^(1 + alpha).

A spatially uniform noise field drives mode m of an N-ion chain in
proportion to (sum_i b_im)^2, which is N for a center-of-mass mode and zero
for any mode whose participation sums to zero.  Because the decay parameter
is linear in nbar, heating makes theta grow linearly in the wait time; only
the lowest (in-phase) axial mode contributes appreciably, since higher modes
both heat less and contribute as omega_m^(-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .decoherence import BeamProfile, GaussianBeam, _beam_coupling
from .errors import InputError

if TYPE_CHECKING:
    from .chain import ModeDecomposition


@dataclass(frozen=True)
class NoiseModel:
    """Power-law electric-field noise anchored to a measured heating rate.

    Parameters
    ----------
    alpha : float
        Spectral exponent of the field noise, in [0, 2].
    nbar_rate_ref : float
        Measured single-ion heating rate (quanta/s) at ``omega_ref``.
    omega_ref : float
        Angular frequency of the reference measurement (rad/s).
    offset : float, optional
        Constant additive rate (1/s) applied to decay-parameter growth,
        representing heating that does not scale with the axial frequency.
        Fitted empirically; zero by default.
    """

    alpha: float
    nbar_rate_ref: float
    omega_ref: float
    offset: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 2.0:
            raise InputError(f"noise exponent must be in [0, 2], got {self.alpha}")
        if not 0 <= self.nbar_rate_ref < np.inf:
            raise InputError("reference heating rate must be finite and >= 0")
        if not 0 < self.omega_ref < np.inf:
            raise InputError("reference frequency must be positive and finite")
        if not 0 <= self.offset < np.inf:
            raise InputError("rate offset must be finite and >= 0")


def _positive_frequency(omega) -> np.ndarray:
    """Angular frequencies as a float array, checked to be positive and
    finite."""
    omega = np.asarray(omega, dtype=float)
    if not ((omega > 0) & (omega < np.inf)).all():
        raise InputError("frequency must be positive and finite")
    return omega


def heating_rate_at(noise: NoiseModel, omega) -> np.ndarray | float:
    """Single-ion heating rate nbar_rate_ref * (omega_ref/omega)^(1+alpha)."""
    omega = _positive_frequency(omega)
    return noise.nbar_rate_ref * (noise.omega_ref / omega) ** (1.0 + noise.alpha)


def _mode_heating_rates(noise: NoiseModel, modes: ModeDecomposition) -> np.ndarray:
    """nbar_rate(omega_m) * (sum_i b_im)^2 for every mode."""
    return heating_rate_at(noise, modes.frequencies) * modes.uniform_drive_weights()


def theta_rate(
    noise: NoiseModel,
    modes: ModeDecomposition,
    beams: Mapping[int, BeamProfile],
    positions: Sequence[float],
    all_modes: bool = False,
) -> np.ndarray:
    """Growth rate of each ion's decay parameter with wait time (1/s).

    For ion i with beam curvature ratio c_i = (Omega''/Omega)(x_i),

        dtheta_i/dt = sum_m b_im^2 (sum_j b_jm)^2 xi_m^2 (-c_i)
                       * nbar_rate(omega_m) + offset,

    restricted to the lowest mode (m = 0) unless ``all_modes`` is set.  For a
    centered Gaussian beam, -c_i = 2/w^2, so a single ion reduces to
    ``2 (xi_0/w)^2 * nbar_rate(omega_0)``.  Ions without a beam get rate 0.
    The result depends only on b^2 and (sum b)^2, so it is invariant under
    any eigenvector sign convention.
    """
    used = slice(None) if all_modes else slice(1)
    coupling = _beam_coupling(modes, beams, positions, used)
    coupling *= _mode_heating_rates(noise, modes)[used]
    rates = coupling.sum(axis=1)
    rates[list(beams)] += noise.offset
    return rates


def addressed_theta_rates(
    noise: NoiseModel,
    modes: ModeDecomposition,
    positions: Sequence[float],
    beam: GaussianBeam,
    ions: Sequence[int],
) -> np.ndarray:
    """Theta rates (1/s) of the addressed ``ions``, in their order: each ion
    under its own copy of the gaussian ``beam``, centred at its position plus
    ``beam.center``, through :func:`theta_rate` (lowest mode, plus
    ``noise.offset``)."""
    if not isinstance(beam, GaussianBeam):
        raise InputError("addressed theta rates need a gaussian beam to centre on each ion")
    for i in ions:
        if not 0 <= i < len(positions):
            raise InputError(f"addressed ion {i} is outside 0..{len(positions) - 1}")
    beams = {i: GaussianBeam(beam.peak_rabi, positions[i] + beam.center, beam.waist) for i in ions}
    return theta_rate(noise, modes, beams, positions)[list(ions)]


def theta_rate_model(omega0, amplitude: float, alpha: float, offset: float = 0.0):
    """Empirical decay-parameter growth model A * omega0^(-2-alpha) + B.

    The -2-alpha exponent combines the heating power law (1+alpha) with the
    omega^(-1) scaling of the squared zero-point spread.  This is the target
    function for frequency-sweep fits; the fitted B absorbs frequency-
    independent contributions.
    """
    return amplitude * _positive_frequency(omega0) ** (-2.0 - alpha) + offset


def gate_error_scaling(n_ions: int, n_ref: int, alpha: float) -> float:
    """Two-qubit gate error of an ``n_ions`` chain relative to an ``n_ref`` one
    at the same wait time, (n_ions / n_ref)^(4 + 2 alpha).

    Valid when the lowest axial frequency scales roughly as 1/N.  For
    alpha = 1 the chain-size exponent is 6.
    """
    if n_ions < 1 or n_ref < 1:
        raise InputError("ion numbers must be >= 1")
    return (n_ions / n_ref) ** (4.0 + 2.0 * alpha)
