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
both quantities, and :func:`gate_fidelity_vs_wait` tables the bound by wait.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import _mode_energy_samples, _thermal_contrast
from .errors import InputError, _integer_at_least


def _gate_angle(n_gates: int) -> float:
    """k = n_gates pi/2, the Rabi-angle equivalent of ``n_gates`` entangling
    gates; a count not an integer >= 1, or whose k overflows, raises InputError."""
    n_gates = _integer_at_least("gate count", n_gates)
    if n_gates < 1:
        raise InputError(f"gate count must be >= 1, got {n_gates}")
    try:
        k = n_gates * math.pi / 2.0
    except OverflowError:  # the count itself does not fit in a float
        k = math.inf
    if k == math.inf:
        raise InputError("gate count is too large: n_gates pi/2 overflows")
    return k


def _joint_theta(theta_i, theta_j) -> np.ndarray:
    """theta_im + theta_jm of the two addressed ions as a 1-d array over every
    entry, checked for equal shape and finite entries; a sum that overflows
    is +-inf, with no warning."""
    ti, tj = (np.atleast_1d(np.asarray(t, dtype=float)) for t in (theta_i, theta_j))
    if ti.shape != tj.shape:
        raise InputError(f"theta lists must have equal shapes, got {ti.shape} and {tj.shape}")
    if not (np.isfinite(ti).all() and np.isfinite(tj).all()):
        raise InputError("decay parameters must be finite")
    with np.errstate(over="ignore"):
        return (ti + tj).ravel()


def gate_fidelity_bound(theta_i, theta_j, n_gates: int = 1) -> float:
    """Fidelity bound after ``n_gates`` fully entangling gates.

    ``theta_i`` and ``theta_j`` are the per-mode decay parameters of the two
    addressed ions (equal shape).  Modes with theta_im = -theta_jm cancel
    exactly; the bound is 1 at zero theta and decreases monotonically in
    |theta_im + theta_jm| and in the gate count.  The product is the thermal
    Rabi contrast of the joint decay parameters at Omega0 = 1, t = n_gates pi/2.
    An overflowing theta_im + theta_jm or a_m = n_gates pi/2 (theta_im + theta_jm)
    gives the contrast kernel's limit, with no warning: the bound is then 1/2.
    """
    k = _gate_angle(n_gates)
    joint = _joint_theta(theta_i, theta_j)  # product over every entry
    return 0.5 + 0.5 * float(_thermal_contrast(joint, 1.0, np.array([k]))[0][0])


def gate_fidelity_vs_wait(
    theta0, rates, rate_sigmas, waits, n_gates: int = 1, spam_error: float = 0.0
) -> np.ndarray:
    """One row (F_bound, F_spam, F_err) per wait t since cooling, in seconds.

    ``theta0``, ``rates`` and ``rate_sigmas`` are pairs (ion i, ion j): the
    single-mode decay parameters at t = 0, their growth rates in 1/s and the
    rates' 1-sigma uncertainties.  At theta = theta0 + rate t, F_bound is
    :func:`gate_fidelity_bound` ([theta_i], [theta_j], n_gates), F_spam =
    F_bound (1 - spam_error) counts SPAM as a multiplicative loss, and
    F_err = ((1 - spam_error) |dF/dtheta|) (hypot(sigma_i, sigma_j) t) is
    the first-order spread of F_spam.  With k = n_gates pi/2, the kernel's
    contrast C = (1 + a^2)^(-1/2) and drive angle a = |theta_i + theta_j| k,
    F = 1/2 + C/2, so |dF/dtheta| = (k C)(a C) C / 2, or 0 where C is 0.
    """
    k = _gate_angle(n_gates)
    try:
        pairs = np.array([theta0, rates, rate_sigmas], dtype=float)
    except (TypeError, ValueError):  # not numbers, or pairs of unequal lengths
        pairs = np.empty(0)
    if pairs.shape != (3, 2) or not np.isfinite(pairs).all() or (pairs[2] < 0).any():
        raise InputError("theta0, rates and rate_sigmas must be finite pairs, the sigmas >= 0")
    (theta_i, theta_j), (rate_i, rate_j), sigmas = pairs.tolist()
    if not 0.0 <= spam_error < 1.0:
        raise InputError(f"spam_error must lie in [0, 1), got {spam_error!r}")
    waits = np.asarray(waits, dtype=float)
    if waits.ndim != 1 or not ((waits >= 0) & (waits < math.inf)).all():
        raise InputError("waits must be a 1-d array of finite values >= 0")
    sigma, keep = math.hypot(*sigmas), 1.0 - spam_error
    rows = np.empty((len(waits), 3))
    for row, t in zip(rows, waits.tolist()):
        ti, tj = theta_i + rate_i * t, theta_j + rate_j * t
        f_bound = gate_fidelity_bound([ti], [tj], n_gates)
        contrast, a = _thermal_contrast(np.array([abs(ti + tj)]), 1.0, np.array([k]))
        c, a = float(contrast[0]), float(a[0, 0])
        slope = 0.5 * (k * c) * (a * c) * c if c else 0.0
        row[:] = f_bound, f_bound * keep, keep * slope * (sigma * t)
    return rows


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

    ``theta_i`` and ``theta_j`` are read as by :func:`gate_fidelity_bound`,
    each entry one mode.  Per sample, each mode energy u_m ~ Exponential(1)
    (same per-mode stream rule as the Rabi oracle) shifts the accumulated
    angle error by ``2 chi (theta_im + theta_jm) u_m`` in the doubled
    (parity) rotation frame.  From the sample phasor e^(i y):

    - ``f_parity = (1 + |mean phasor|) / 2``; its modulus is the parity
      fringe contrast of the ensemble.
    - ``f_overlap = (1 + mean cos y) / 2 = <cos^2(y/2)>``.

    The phasor comes from one half-angle tangent t = tan(y/2): with
    w = 2 / (1 + t^2), cos y = w - 1 and sin y = t w (numpy's float64 ``tan``
    is SIMD on AVX-512 CPUs, its ``sin`` and ``cos`` scalar libm).  The
    estimate runs on one thread and is fixed by the seed.  An
    angle that overflows raises InputError, found from the nan it leaves in
    the mean phasor, where :func:`gate_fidelity_bound` answers its limit.

    Working set, in rows of ``n_samples`` doubles: the two phasor rows and
    the samples (one row per mode), which are reduced straight into the sine
    row and then freed.
    """
    k = _gate_angle(n_gates)
    n_samples = _integer_at_least("n_samples", n_samples, 2)
    joint = _joint_theta(theta_i, theta_j)
    cos_y, sin_y = phasors = np.empty((2, n_samples))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite y makes the means nan
        np.matmul(joint, _mode_energy_samples(len(joint), n_samples, seed), out=sin_y)
        sin_y *= 0.5 * k
        np.tan(sin_y, out=sin_y)  # t = tan(y / 2)
    np.divide(2.0, np.add(np.square(sin_y, out=cos_y), 1.0, out=cos_y), out=cos_y)
    sin_y *= cos_y  # sin y = t w, w = 2 / (1 + t^2)
    cos_y -= 1.0  # cos y = w - 1
    # One centred pass: the sums and divisions of .mean() and np.cov, whose
    # gemm gives the variances on its diagonal and the covariance off it
    c, s = np.add.reduce(phasors, axis=1) / n_samples
    if math.isnan(c):
        raise InputError("the sampled gate angle n_gates pi/2 (theta_i + theta_j) . u overflows")
    phasors -= [[c], [s]]
    dof = n_samples - 1
    gram = np.dot(phasors, phasors.T)
    cov_cs = gram[0, 1] * (1.0 / dof) / n_samples
    var_c, var_s = np.diagonal(gram) / dof / n_samples
    radius = math.hypot(c, s)
    if radius > 0:
        var_r = (c * c * var_c + s * s * var_s + 2 * c * s * cov_cs) / (radius * radius)
    else:
        var_r = var_c + var_s
    return GateFidelityEstimate(
        f_parity=0.5 * (1.0 + radius),
        f_parity_stderr=0.5 * math.sqrt(max(var_r, 0.0)),
        f_overlap=0.5 * (1.0 + float(c)),
        f_overlap_stderr=0.5 * math.sqrt(var_c),
    )
