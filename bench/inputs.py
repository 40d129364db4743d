"""Seeded input generator for the three workloads.

Everything the program receives is drawn here from the workload seed, and
nothing else: the fit data sets (from known truths with stated Gaussian
noise), the chain-size and potential list of ``chain_sweep`` and the
per-op physics parameters.  The same seed always gives the same inputs.
This module imports numpy only, never ``ionchain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reference import rabi_closed

TWO_PI = 2.0 * math.pi

# ----------------------------------------------------------------------
# fit data sets: one synthetic experiment = four data sets from one truth
# ----------------------------------------------------------------------

BEAM_NOISE = 0.01
"""Absolute noise on the normalised beam-scan signal."""
RABI_NOISE = 0.01
"""Absolute noise on the Rabi-trace population."""
GROWTH_NOISE = 0.002
"""Absolute noise on each decay parameter of the growth series."""
POWER_NOISE = 0.03
"""Relative noise on each decay-parameter growth rate of the sweep."""

BEAM_X_UM = np.linspace(-2.5, 2.5, 41)
RABI_T_US = np.linspace(0.0, 200.0, 101)
GROWTH_TW_MS = np.linspace(0.0, 10.0, 11)
POWER_F_KHZ = np.geomspace(50.0, 500.0, 12)
GATE_WAIT_MS = 5.0
"""Wait time at which the calibrated growth feeds the gate Monte Carlo."""


@dataclass(frozen=True)
class Experiment:
    """Known truths and the noisy data sets drawn from them.

    Units follow the CLI's CSV columns: micrometres, microseconds,
    milliseconds and kHz.  ``power_amp`` is in (rad/s)^(2+alpha)/s.
    """

    beam_amp: float
    beam_center_um: float
    beam_waist_um: float
    rabi_khz: float
    rabi_theta: float
    growth_theta0: float
    growth_rate: float
    power_amp: float
    power_alpha: float
    power_offset: float
    n_gates: int
    mc_seed: int
    beam_signal: np.ndarray
    rabi_p1: np.ndarray
    growth_theta: np.ndarray
    power_rate: np.ndarray
    power_sigma: np.ndarray


def make_experiment(seed: int, index: int) -> Experiment:
    """Draw the truths of experiment ``index`` and its four noisy data sets."""
    rng = np.random.default_rng([seed, 7, index])
    amp = rng.uniform(0.8, 1.2)
    center = rng.uniform(-0.2, 0.2)
    waist = rng.uniform(0.8, 1.0)
    rabi_khz = rng.uniform(40.0, 60.0)
    theta = rng.uniform(0.02, 0.06)
    theta0 = rng.uniform(0.005, 0.02)
    growth = rng.uniform(5.0, 15.0)
    alpha = rng.uniform(0.6, 1.4)
    rate_100k = rng.uniform(5.0, 20.0)
    offset = rng.uniform(0.2, 1.0)
    n_gates = int(rng.integers(1, 4))
    mc_seed = int(rng.integers(0, 2**31))

    s = (BEAM_X_UM - center) / waist
    signal = amp * np.exp(-s * s) + rng.normal(0.0, BEAM_NOISE, BEAM_X_UM.size)
    omega = TWO_PI * rabi_khz * 1e3
    p1, _, _ = rabi_closed(omega, [theta], RABI_T_US * 1e-6)
    p1 = p1 + rng.normal(0.0, RABI_NOISE, RABI_T_US.size)
    th = theta0 + growth * GROWTH_TW_MS * 1e-3
    th = th + rng.normal(0.0, GROWTH_NOISE, GROWTH_TW_MS.size)
    power_amp = rate_100k * (TWO_PI * 100e3) ** (2.0 + alpha)
    w = TWO_PI * POWER_F_KHZ * 1e3
    rates = power_amp * w ** (-2.0 - alpha) + offset
    sigma = POWER_NOISE * rates
    rates = rates + sigma * rng.standard_normal(POWER_F_KHZ.size)
    return Experiment(
        beam_amp=amp,
        beam_center_um=center,
        beam_waist_um=waist,
        rabi_khz=rabi_khz,
        rabi_theta=theta,
        growth_theta0=theta0,
        growth_rate=growth,
        power_amp=power_amp,
        power_alpha=alpha,
        power_offset=offset,
        n_gates=n_gates,
        mc_seed=mc_seed,
        beam_signal=signal,
        rabi_p1=p1,
        growth_theta=th,
        power_rate=rates,
        power_sigma=sigma,
    )


def _csv(header, columns) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def fit_csvs(exp: Experiment) -> dict:
    """The experiment's four data sets as CSV text, keyed by CLI fit recipe."""
    n_b, n_r, n_g = BEAM_X_UM.size, RABI_T_US.size, GROWTH_TW_MS.size
    return {
        "beam": _csv(
            ("x_um", "signal", "sigma"),
            (BEAM_X_UM, exp.beam_signal, np.full(n_b, BEAM_NOISE)),
        ),
        "rabi": _csv(
            ("t_us", "p1", "sigma"), (RABI_T_US, exp.rabi_p1, np.full(n_r, RABI_NOISE))
        ),
        "theta-growth": _csv(
            ("tw_ms", "theta", "sigma"),
            (GROWTH_TW_MS, exp.growth_theta, np.full(n_g, GROWTH_NOISE)),
        ),
        "power-law": _csv(
            ("freq_khz", "rate_per_s", "sigma"),
            (POWER_F_KHZ, exp.power_rate, exp.power_sigma),
        ),
    }


def fit_truths(exp: Experiment) -> dict:
    """Generating truths under the CLI's fit-output parameter names."""
    return {
        "beam": {
            "amplitude": exp.beam_amp,
            "center_um": exp.beam_center_um,
            "waist_um": exp.beam_waist_um,
        },
        "rabi": {"rabi_freq_khz": exp.rabi_khz, "theta": exp.rabi_theta},
        "theta-growth": {"theta0": exp.growth_theta0, "rate_per_s": exp.growth_rate},
        "power-law": {
            "amplitude_rad_s": exp.power_amp,
            "alpha": exp.power_alpha,
            "offset_per_s": exp.power_offset,
        },
    }


# ----------------------------------------------------------------------
# chain_sweep: potentials, sizes and per-op parameters
# ----------------------------------------------------------------------

HARMONIC = ("harmonic", 100e3)
"""171Yb+ in a 100 kHz harmonic trap (frequency in Hz)."""
QQ_MODES = ("quad_quartic", 1e-14, 2e-3)
"""The quadratic-plus-quartic example of configs/modes.yaml (J/m^2, J/m^4)."""
QQ_PURE = ("quad_quartic", 0.0, 1e-3)
"""Pure quartic confinement."""
EQUISPACED = ("equispaced", 4.4e-6)
"""Uniform-spacing potential at 4.4 um, designed for each N."""

SMALL_MAX = 25

CHAIN_ROUND = (
    # paper-size chains, N <= 25
    (HARMONIC, 2),
    (HARMONIC, 5),
    (QQ_MODES, 8),
    (QQ_PURE, 10),
    (HARMONIC, 12),
    (EQUISPACED, 15),
    (QQ_MODES, 20),
    (HARMONIC, 25),
    (EQUISPACED, 25),
    (QQ_MODES, 25),
    (QQ_PURE, 25),
    (HARMONIC, 25),
    (EQUISPACED, 25),
    # long chains, N >= 100, inside each potential's converging range
    (HARMONIC, 100),
    (EQUISPACED, 120),
    (HARMONIC, 130),
    (EQUISPACED, 200),
    (EQUISPACED, 300),
    (EQUISPACED, 300),
    (EQUISPACED, 300),
)
"""One round of chain_sweep, 20 ops.  In cost order, ranks 8-13 are the six
25-ion chains, so the median op (rank 10.5) is one of them; ranks 18-20 are
the three 300-ion chains, so the p90 tail sits inside that band."""

WAIT_MS = (0.0, 1.0, 2.5, 5.0, 10.0)
"""Wait times of the gate-fidelity bound in every chain_sweep op."""
RABI_TIMES_S = np.linspace(0.0, 200e-6, 101)


@dataclass(frozen=True)
class ChainOp:
    potential: tuple
    n_ions: int
    waist: float
    peak_rabi: float
    nbar: float
    alpha: float
    nbar_rate_ref: float
    n_gates: int

    @property
    def size_class(self) -> str:
        return "small" if self.n_ions <= SMALL_MAX else "large"


def chain_round(seed: int, round_index: int) -> list:
    """Round ``round_index``: every entry of CHAIN_ROUND once, in seeded order."""
    rng = np.random.default_rng([seed, 11, round_index])
    ops = []
    for k in rng.permutation(len(CHAIN_ROUND)):
        potential, n = CHAIN_ROUND[k]
        ops.append(
            ChainOp(
                potential=potential,
                n_ions=n,
                waist=rng.uniform(0.8e-6, 1.0e-6),
                peak_rabi=TWO_PI * rng.uniform(30e3, 70e3),
                nbar=rng.uniform(100.0, 400.0),
                alpha=rng.uniform(0.5, 1.5),
                nbar_rate_ref=rng.uniform(50.0, 150.0),
                n_gates=int(rng.integers(1, 4)),
            )
        )
    return ops
