"""scipy as an independent oracle for the package's own numerics.

The package solves its fits, the Chebyshev line fit of ``spacing_deviation``
and the tabulated-beam spline with numpy alone; each test here recomputes
the same quantity with the scipy routine the package used to call and
compares the two.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import least_squares, linprog

from ionchain import (
    EquispacedLogPotential,
    HarmonicPotential,
    QuadQuarticPotential,
    TabulatedBeam,
    YB171,
    find_equilibrium,
    fit_beam_profile,
    fit_rabi_trace,
    fit_theta_power_law,
    spacing_deviation,
)
from ionchain.fitting import damped_rabi_model, gaussian_beam_model
from ionchain.heating import theta_rate_model

DATA = Path(__file__).resolve().parent / "golden" / "data"
SIGMA_AGREEMENT = 1e-6
"""Largest parameter difference from scipy, in units of the fitted sigma.

Both solvers stop once a step lowers the cost by less than 1e-14 of it, so
each stops within about sqrt(1e-14 chi^2) ~ 1e-7..1e-6 sigma of the exact
minimum."""


def read(name):
    rows = np.loadtxt(DATA / name, delimiter=",", skiprows=1)
    return rows[:, 0], rows[:, 1], rows[:, 2] if rows.shape[1] > 2 else None


def scipy_refit(model, x, y, sigma, result, lo, hi):
    """scipy's trust-region solver, started 3 sigma from ``result``."""
    sigma = np.ones_like(y) if sigma is None else sigma
    start = np.clip(result.params + 3.0 * result.uncertainties, lo, hi)
    return least_squares(
        lambda p: (model(p, x) - y) / sigma,
        start,
        bounds=(lo, hi),
        method="trf",
        x_scale="jac",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )


def assert_agrees(result, oracle, sigma):
    """Same parameters to SIGMA_AGREEMENT, same uncertainties to 1e-5."""
    assert oracle.status > 0
    pulls = np.abs(result.params - oracle.x) / result.uncertainties
    assert np.all(pulls <= SIGMA_AGREEMENT), pulls
    oracle_cov = np.linalg.inv(oracle.jac.T @ oracle.jac)
    if sigma is None:
        oracle_cov = oracle_cov * result.reduced_chisq
    np.testing.assert_allclose(result.uncertainties, np.sqrt(np.diag(oracle_cov)), rtol=1e-5)


def beam_case(x, y, sigma):
    result = fit_beam_profile(x, y, sigma)
    assert_agrees(
        result, scipy_refit(gaussian_beam_model, x, y, sigma, result,
                            [0.0, -np.inf, 1e-9], [np.inf, np.inf, np.inf]),
        sigma,
    )


def rabi_case(t, p1, sigma):
    result = fit_rabi_trace(t, p1, sigma=sigma)
    assert_agrees(
        result, scipy_refit(damped_rabi_model, t, p1, sigma, result,
                            [0.0, -np.inf], [np.inf, np.inf]),
        sigma,
    )


def power_case(omega, rates, sigma):
    result = fit_theta_power_law(omega, rates, sigma)
    assert_agrees(
        result, scipy_refit(lambda p, w: theta_rate_model(w, *p), omega, rates, sigma,
                            result, [0.0, 0.0, 0.0], [np.inf, 2.0, np.inf]),
        sigma,
    )


class TestFitsAgainstLeastSquares:
    def test_golden_beam(self):
        beam_case(*read("beam.csv"))

    def test_golden_rabi(self):
        t_us, p1, sigma = read("rabi.csv")
        rabi_case(t_us * 1e-6, p1, sigma)

    def test_golden_power_law(self):
        f_khz, rates, sigma = read("power_law.csv")
        power_case(2 * np.pi * 1e3 * f_khz, rates, sigma)

    @pytest.mark.parametrize("k", range(6))
    def test_seeded_sweep(self, k):
        rng = np.random.default_rng([2718, k])
        x = np.linspace(-2.5, 2.5, 41)
        truth = [rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.0)]
        beam_case(x, gaussian_beam_model(truth, x) + rng.normal(0, 0.01, x.size),
                  np.full(x.size, 0.01))

        t = np.linspace(0.0, 200e-6, 101)
        truth = [2 * np.pi * rng.uniform(40e3, 60e3), rng.uniform(0.02, 0.06)]
        rabi_case(t, damped_rabi_model(truth, t) + rng.normal(0, 0.01, t.size),
                  np.full(t.size, 0.01))

        omega = 2 * np.pi * np.geomspace(50e3, 500e3, 12)
        alpha = rng.uniform(0.6, 1.4)
        amplitude = rng.uniform(5.0, 20.0) * (2 * np.pi * 100e3) ** (2 + alpha)
        rates = theta_rate_model(omega, amplitude, alpha, rng.uniform(0.2, 1.0))
        sigma = 0.03 * rates
        power_case(omega, rates + sigma * rng.standard_normal(omega.size), sigma)


def linprog_deviation(chain):
    """min over (a, s) of max_i |x_i - a - s i|, as a linear program."""
    x = chain.positions / chain.unit_length
    idx = np.arange(len(x), dtype=float)
    ones = np.ones(len(x))
    a_ub = np.vstack([np.column_stack([-ones, -idx, -ones]),
                      np.column_stack([ones, idx, -ones])])
    result = linprog([0.0, 0.0, 1.0], A_ub=a_ub, b_ub=np.concatenate([-x, x]),
                     bounds=[(None, None)] * 3, method="highs")
    assert result.success
    return result.x[2]


@pytest.mark.parametrize(
    "potential, n",
    [(HarmonicPotential(2 * np.pi * 1e6), n) for n in (3, 4, 10, 50, 130)]
    + [(EquispacedLogPotential(n, 4.4e-6), None) for n in (3, 25, 100, 400)]
    + [(QuadQuarticPotential(0.0, 1e-3), n) for n in (5, 30, 70)],
)
def test_spacing_deviation_matches_linprog(potential, n):
    chain = find_equilibrium(YB171, potential, n)
    assert spacing_deviation(chain) == pytest.approx(linprog_deviation(chain), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "x",
    [
        np.linspace(-2.0, 2.0, 41),
        np.linspace(-1.5, 1.5, 4),
        np.linspace(-3.0, 3.0, 30) + 0.03 * np.sin(np.arange(30.0)),
        np.geomspace(0.1, 5.0, 25) - 2.5,
    ],
)
def test_tabulated_beam_matches_cubic_spline(x):
    rabi = 2.0 * np.exp(-((x - 0.3) ** 2)) + 0.7 * np.exp(-((x + 1.0) ** 2) / 0.2) + 0.1
    beam = TabulatedBeam(x, rabi)
    spline = CubicSpline(x, rabi)
    query = np.concatenate([x, np.linspace(x[0], x[-1], 997)])
    np.testing.assert_allclose(beam.rabi_at(query), spline(query), rtol=1e-12)
    inner = query[(query >= x[1]) & (query <= x[-2])]
    second = spline(inner, 2)
    np.testing.assert_allclose(
        beam.curvature_ratio(inner) * beam.rabi_at(inner), second,
        rtol=1e-12, atol=1e-12 * np.max(np.abs(second)),
    )
