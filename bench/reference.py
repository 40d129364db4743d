"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``ionchain``: constants are CODATA 2018 written out
again, and every formula is evaluated directly in SI units, so a check
compares the program with a computation made apart from it.  No check
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 1.054571817e-34
ECHARGE = 1.602176634e-19
EPSILON0 = 8.8541878128e-12
AMU = 1.66053906660e-27
YB171_MASS = 170.9363302 * AMU
"""171Yb+ mass (kg), AME2020 neutral-atom mass."""
KQ2 = ECHARGE**2 / (4.0 * math.pi * EPSILON0)
"""q^2 / (4 pi eps0) for a singly charged ion (J m)."""

FORCE_TOL = 1e-9
"""Net force on each ion, relative to the sum of the force magnitudes on it."""
ORTHO_TOL = 1e-10
JAMES_TOL = 1e-8
"""Harmonic chains: omega_0 = trap frequency, omega_1 = sqrt(3) omega_0."""
KERNEL_TOL = 1e-10
"""theta_rate and decay_parameters against the direct sums."""
CLOSED_TOL = 1e-12
"""rabi_trace and gate_fidelity_bound against their closed forms."""
PRINT_TOL = 1e-9
"""CLI tables print 12 significant digits."""
MC_Z = 5.0
"""Monte-Carlo estimates lie within this many standard errors of exact."""
FIT_Z = 6.0
"""Fitted parameters lie within this many reported sigmas of the truth."""


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def require(ok, what: str):
    if not bool(ok):
        raise CheckError(what)


def close(actual, expected, rel: float, what: str, abs_tol: float = 0.0):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.abs(actual - expected)
    limit = rel * np.abs(expected) + abs_tol
    if actual.shape != expected.shape or not np.all(err <= limit):
        worst = float(np.max(err - limit)) if actual.shape == expected.shape else math.nan
        raise CheckError(f"{what}: off by {worst:.3g} beyond tolerance")


def zero_point_sq(omega):
    """xi^2 = hbar / (2 M omega) for 171Yb+."""
    return HBAR / (2.0 * YB171_MASS * np.asarray(omega, dtype=float))


# ----------------------------------------------------------------------
# chains
# ----------------------------------------------------------------------

def trap_gradient(potential: tuple, n_ions: int, x):
    """dV/dx (N) of the generator's potential spec at positions x (m)."""
    kind = potential[0]
    if kind == "harmonic":
        omega0 = 2.0 * math.pi * potential[1]
        return YB171_MASS * omega0**2 * x
    if kind == "quad_quartic":
        a2, a4 = potential[1], potential[2]
        return 2.0 * a2 * x + 4.0 * a4 * x**3
    if kind == "equispaced":
        d = potential[1]
        h2 = (0.5 * n_ions) ** 2
        u = x / d
        return (KQ2 / d**2) * 2.0 * u / (h2 - u * u)
    raise ValueError(kind)


def check_force_balance(potential: tuple, x):
    """Each ion's trap force cancels its Coulomb force from the others."""
    x = np.asarray(x, dtype=float)
    require(np.all(np.diff(x) > 0), "ions not in ascending order")
    r = x[:, None] - x[None, :]
    np.fill_diagonal(r, np.inf)
    pair = KQ2 / (r * r)
    coulomb = np.sum(np.sign(r) * pair, axis=1)  # push away from neighbours
    trap = trap_gradient(potential, len(x), x)
    net = trap - coulomb
    scale = np.sum(pair, axis=1) + np.abs(trap)
    worst = float(np.max(np.abs(net) / scale))
    require(worst <= FORCE_TOL, f"force balance off by {worst:.3g} (relative)")


def check_modes(potential: tuple, frequencies, b):
    """Orthonormal participation, ascending positive frequencies, James."""
    n = b.shape[0]
    gram = b.T @ b
    dev = float(np.max(np.abs(gram - np.eye(n))))
    require(dev <= ORTHO_TOL, f"participation vectors not orthonormal ({dev:.3g})")
    require(np.all(frequencies > 0) and np.all(np.diff(frequencies) >= 0),
            "mode frequencies not positive and ascending")
    if potential[0] == "harmonic" and n >= 2:
        omega0 = 2.0 * math.pi * potential[1]
        close(frequencies[0], omega0, JAMES_TOL, "harmonic COM mode")
        close(frequencies[1], math.sqrt(3.0) * omega0, JAMES_TOL, "harmonic stretch mode")


def theta_rate_direct(frequencies, b, waist, alpha, nbar_rate_ref, omega_ref):
    """sum_m b_im^2 (sum_j b_jm)^2 hbar/(2 M w_m) (2/w^2) G_ref (w_ref/w_m)^(1+alpha)."""
    heating = nbar_rate_ref * (omega_ref / frequencies) ** (1.0 + alpha)
    per_mode = b.sum(axis=0) ** 2 * zero_point_sq(frequencies) * heating
    return (b * b) @ per_mode * (2.0 / waist**2)


def decay_parameters_direct(frequencies, b, waist, nbar):
    """theta_im = b_im^2 hbar/(2 M w_m) (2/w^2) nbar for centred beams."""
    return b * b * zero_point_sq(frequencies)[None, :] * (2.0 / waist**2) * nbar


def rabi_closed(omega, thetas, t):
    """Thermal Rabi trace (p1, contrast, phase): p1 = (1 - C cos(omega t - phi))/2,
    C = prod (1 + a^2)^(-1/2), phi = sum arctan a, a = theta omega t."""
    t = np.asarray(t, dtype=float)
    a = np.outer(np.atleast_1d(thetas), omega * t)
    contrast = np.prod(1.0 / np.sqrt(1.0 + a * a), axis=0)
    phase = np.sum(np.arctan(a), axis=0)
    return 0.5 * (1.0 - contrast * np.cos(omega * t - phase)), contrast, phase


def gate_bound(theta_i, theta_j, n_gates: int) -> float:
    a = (n_gates * math.pi / 2.0) * (np.asarray(theta_i) + np.asarray(theta_j))
    return 0.5 + 0.5 * float(np.prod(1.0 / np.sqrt(1.0 + a * a)))


# ----------------------------------------------------------------------
# single-ion physics of the shipped CLI configs
# ----------------------------------------------------------------------

def single_ion_theta(axial_khz: float, waist_nm: float, nbar: float) -> float:
    """theta = 2 (xi/w)^2 nbar for an ion at the centre of a Gaussian beam."""
    omega = 2.0 * math.pi * axial_khz * 1e3
    return 2.0 * float(zero_point_sq(omega)) / (waist_nm * 1e-9) ** 2 * nbar


def theta_profile(x_m, center_m, axial_khz, waist_nm, nbar):
    """theta(x) = 2 (xi/w)^2 (1 - 2 (x-c)^2/w^2) nbar."""
    w = waist_nm * 1e-9
    d = np.asarray(x_m) - center_m
    return single_ion_theta(axial_khz, waist_nm, nbar) * (1.0 - 2.0 * d * d / (w * w))


def crosstalk_bound(fraction, spacing_um, wavelength_nm, linewidth_mhz, splitting_ghz):
    """R = r lambda^2 (Gamma/2)^3 / (16 d^2 Delta^2), angular Gamma and Delta."""
    gamma = 2.0 * math.pi * linewidth_mhz * 1e6
    delta = 2.0 * math.pi * splitting_ghz * 1e9
    lam = wavelength_nm * 1e-9
    d = spacing_um * 1e-6
    return fraction * lam**2 * (gamma / 2.0) ** 3 / (16.0 * d**2 * delta**2)


def check_fit(params: dict, truths: dict, what: str, log_scale=()):
    """Each fitted value lies within FIT_Z of its reported sigma of the truth.

    ``params`` maps name -> (value, sigma).  Names in ``log_scale`` are
    compared as ln(value/truth) against sigma/value.  The power-law
    amplitude needs this: it is defined at 1 rad/s, five decades below the
    data, so its estimate is log-normal and its linear pull reached 7.3 in
    2000 seeded fits, while its log pull stayed below 3.5."""
    for name, truth in truths.items():
        value, sigma = params[name]
        require(math.isfinite(value) and math.isfinite(sigma) and sigma > 0,
                f"{what} {name}: no finite uncertainty")
        if name in log_scale:
            require(value > 0, f"{what} {name}: not positive")
            pull = abs(math.log(value / truth)) / (sigma / value)
        else:
            pull = abs(value - truth) / sigma
        require(pull <= FIT_Z, f"{what} {name}: {pull:.2f} sigma from truth")


def check_mc(estimate, stderr, exact, what: str):
    """Monte-Carlo estimate within MC_Z standard errors of the exact value."""
    dev = np.abs(np.asarray(estimate) - np.asarray(exact))
    ok = dev <= MC_Z * np.asarray(stderr) + 1e-12
    require(np.all(ok), f"{what}: Monte Carlo off the closed form by > {MC_Z} stderr")
