"""Two-qubit gate fidelity under thermal axial motion, plus SPAM handling.

The entangling (two-qubit) Rabi frequency is proportional to the product of
the two single-ion Rabi frequencies, so thermal axial motion perturbs the
accumulated gate angle through the joint decay parameter theta_im + theta_jm.
After N_g fully entangling gates (target angle chi = N_g pi/4), averaging
over exponentially distributed mode energies bounds the achievable fidelity:

    F = 1/2 + 1/2 * prod_m [1 + (N_g pi/2)^2 (theta_im + theta_jm)^2]^(-1/2).

This product form equals the fidelity extracted by the standard
population-plus-parity-contrast measurement on the thermal ensemble, and it
upper-bounds the plain state overlap <cos^2(angle error)> (which carries an
extra cosine of the mean phase).  The Monte-Carlo estimator below reports
both quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import _mode_energy_samples, _thermal_contrast
from .errors import InputError


def _gate_angle(n_gates: int) -> float:
    """k = n_gates pi/2, the Rabi-angle equivalent of ``n_gates`` entangling gates."""
    if n_gates < 1:
        raise InputError(f"gate count must be >= 1, got {n_gates}")
    return n_gates * math.pi / 2.0


def _joint_theta(theta_i, theta_j) -> np.ndarray:
    """theta_im + theta_jm of the two addressed ions, checked for equal length."""
    ti, tj = (np.atleast_1d(np.asarray(t, dtype=float)) for t in (theta_i, theta_j))
    if ti.shape != tj.shape:
        raise InputError("theta lists must have equal length")
    return ti + tj


def gate_fidelity_bound(theta_i, theta_j, n_gates: int = 1) -> float:
    """Fidelity bound after ``n_gates`` fully entangling gates.

    ``theta_i`` and ``theta_j`` are the per-mode decay parameters of the two
    addressed ions (equal length).  Modes with theta_im = -theta_jm cancel
    exactly; the bound is 1 at zero theta and decreases monotonically in
    |theta_im + theta_jm| and in the gate count.  The product is the thermal
    Rabi contrast of the joint decay parameters at Omega0 t = n_gates pi/2.
    """
    a = _gate_angle(n_gates) * _joint_theta(theta_i, theta_j)
    return 0.5 + 0.5 * float(_thermal_contrast(a.ravel()))  # product over every entry


def gate_fidelity_slope(joint_theta: float, n_gates: int = 1) -> float:
    """|dF/dtheta| of the single-mode bound at theta = theta_i + theta_j.

    With k = n_gates pi/2, F = 1/2 + 1/2 (1 + k^2 theta^2)^(-1/2), so
    |dF/dtheta| = k^2 |theta| (1 + k^2 theta^2)^(-3/2) / 2.  Multiplying by
    the standard deviation of theta propagates it to the bound.
    """
    k = _gate_angle(n_gates)
    return 0.5 * k * k * abs(joint_theta) * (1.0 + k * k * joint_theta * joint_theta) ** -1.5


@dataclass(frozen=True)
class GateFidelityEstimate:
    """Monte-Carlo thermal-ensemble gate fidelity.

    ``f_parity`` estimates the fidelity obtained from subspace population
    plus parity-fringe contrast on the thermal ensemble (the quantity the
    product-form bound reproduces exactly).  ``f_overlap`` is the plain
    thermally averaged state overlap <cos^2(angle error)>, which is lower
    because the ensemble also accumulates a mean phase.
    """

    f_parity: float
    f_parity_stderr: float
    f_overlap: float
    f_overlap_stderr: float


def gate_fidelity_monte_carlo(
    theta_i,
    theta_j,
    n_gates: int = 1,
    n_samples: int = 100_000,
    seed: int = 0,
) -> GateFidelityEstimate:
    """Sample the gate outcome over thermal mode energies.

    Per sample, each mode energy u_m ~ Exponential(1) (same per-mode stream
    rule as the Rabi oracle) shifts the accumulated angle error by
    ``2 chi (theta_im + theta_jm) u_m`` in the doubled (parity) rotation
    frame.  From the sample phasor e^(i y):

    - ``f_parity = (1 + |mean phasor|) / 2``; its modulus is the parity
      fringe contrast of the ensemble.
    - ``f_overlap = (1 + mean cos y) / 2 = <cos^2(y/2)>``.

    The phasor comes from one half-angle tangent t = tan(y/2): with
    w = 2 / (1 + t^2), cos y = w - 1 and sin y = t w (numpy's float64 ``tan``
    is SIMD on AVX-512 CPUs, its ``sin`` and ``cos`` scalar libm).  The
    estimate is bit-identical for any CPU count and fixed by the seed.

    Working set, in rows of ``n_samples`` doubles: the two phasor rows and
    the samples (one row per mode), which are reduced straight into the sine
    row and then freed.
    """
    k = _gate_angle(n_gates)
    if n_samples < 2:
        raise InputError("n_samples must be >= 2")
    joint = _joint_theta(theta_i, theta_j)
    cos_y, sin_y = phasors = np.empty((2, n_samples))
    np.matmul(joint, _mode_energy_samples(len(joint), n_samples, seed), out=sin_y)
    sin_y *= 0.5 * k
    np.tan(sin_y, out=sin_y)  # t = tan(y / 2)
    np.divide(2.0, np.add(np.square(sin_y, out=cos_y), 1.0, out=cos_y), out=cos_y)
    sin_y *= cos_y  # sin y = t w, w = 2 / (1 + t^2)
    cos_y -= 1.0  # cos y = w - 1
    # One centred pass: the same sums, gemm and divisions as .mean(), .var(ddof=1), np.cov.
    c, s = np.add.reduce(phasors, axis=1) / n_samples
    phasors -= [[c], [s]]
    dof = n_samples - 1
    cov_cs = np.dot(phasors, phasors.T)[0, 1] * (1.0 / dof) / n_samples
    var_c, var_s = np.add.reduce(np.square(phasors, out=phasors), axis=1) / dof / n_samples
    radius = math.hypot(c, s)
    if radius > 0:
        var_r = (c * c * var_c + s * s * var_s + 2 * c * s * cov_cs) / (radius * radius)
    else:
        var_r = var_c + var_s
    return GateFidelityEstimate(
        f_parity=0.5 * (1.0 + radius),
        f_parity_stderr=0.5 * math.sqrt(max(var_r, 0.0)),
        f_overlap=0.5 * (1.0 + c),
        f_overlap_stderr=0.5 * math.sqrt(var_c),
    )


def spam_adjust_prediction(fidelity: float, spam_error: float) -> float:
    """Scale a predicted fidelity down by a combined SPAM error fraction.

    Multiplicative convention F * (1 - spam_error); at fidelities near 1 and
    percent-level spam_error this is indistinguishable from subtracting the
    error outright.
    """
    if not 0.0 <= spam_error < 1.0:
        raise InputError("SPAM error fraction must lie in [0, 1)")
    return fidelity * (1.0 - spam_error)
