"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test records a PASS/FAIL line (printed in the terminal summary) with
the measured numbers, then asserts.  Criterion 3 is split: the 25-ion
frequency window is exercised separately because the idealized equal-spacing
potential predicts 150.6 kHz where the quoted experimental reference is
123 kHz, 22.5% apart and outside the stated 20% window (the 15-ion case
passes at 18.7%).  That check is left failing deliberately rather than
loosened; see the test docstring for the verification trail.
"""

import time

import numpy as np
import pytest

from conftest import record_acceptance
from helpers import chain_hessian_fd, theta_profile_gaussian

from ionchain import (
    CoolingConfig,
    EquispacedLogPotential,
    GaussianBeam,
    HarmonicPotential,
    NoiseModel,
    ThermalState,
    YB171,
    addressed_theta_rates,
    crosstalk_rate,
    decay_parameters,
    find_equilibrium,
    fit_beam_profile,
    fit_rabi_trace,
    fit_theta_growth,
    fit_theta_power_law,
    gate_fidelity_bound,
    gate_fidelity_monte_carlo,
    normal_modes,
    rabi_trace,
    rabi_trace_monte_carlo,
    single_ion_modes,
    spacing_deviation,
    theta_rate,
    zero_point_spread,
)
from ionchain.cli import main as cli_main
from ionchain.fitting import damped_rabi_model, gaussian_beam_model
from ionchain.heating import theta_rate_model

SPACING = 4.4e-6


@pytest.fixture(scope="module")
def equispaced_sweep():
    """Solve every uniform-spacing chain once: N -> (deviation, f0_khz)."""
    t0 = time.perf_counter()
    deviations = {}
    f0_khz = {}
    for n in range(2, 251):
        chain = find_equilibrium(YB171, EquispacedLogPotential(n, SPACING))
        if n < 250:
            deviations[n] = spacing_deviation(chain)
        f0_khz[n] = normal_modes(chain).frequencies[0] / (2 * np.pi) / 1e3
    return deviations, f0_khz, time.perf_counter() - t0


def test_c01_zero_point_spread():
    xi = zero_point_spread(YB171, 2 * np.pi * 100e3)
    rel = abs(xi - 17e-9) / 17e-9
    record_acceptance(
        "1 zero-point spread 171Yb+ at 100 kHz",
        rel < 0.03,
        f"xi = {xi * 1e9:.3f} nm, {100 * rel:.2f}% from 17 nm (limit 3%)",
    )
    assert rel < 0.03


def test_c02_mode_spectra_and_orthonormality():
    t0 = time.perf_counter()
    omega0 = 2 * np.pi * 1e6
    pot = HarmonicPotential(omega0)
    freq2 = normal_modes(find_equilibrium(YB171, pot, 2)).frequencies
    freq3 = normal_modes(find_equilibrium(YB171, pot, 3)).frequencies
    err2 = np.max(np.abs(freq2 / (omega0 * np.array([1, np.sqrt(3)])) - 1))
    err3 = np.max(
        np.abs(freq3 / (omega0 * np.array([1, np.sqrt(3), np.sqrt(29 / 5)])) - 1)
    )
    worst_ortho = 0.0
    for n in range(2, 51):
        b = normal_modes(find_equilibrium(YB171, pot, n)).participation
        worst_ortho = max(worst_ortho, float(np.max(np.abs(b @ b.T - np.eye(n)))))
    elapsed = time.perf_counter() - t0
    ok = err2 < 1e-9 and err3 < 1e-9 and worst_ortho < 1e-10 and elapsed < 1.0
    record_acceptance(
        "2 harmonic mode spectra and orthonormality",
        ok,
        f"freq err N=2: {err2:.1e}, N=3: {err3:.1e} (limit 1e-9); "
        f"orthonormality N<=50: {worst_ortho:.1e} (limit 1e-10); {elapsed:.2f} s (<1 s)",
    )
    assert err2 < 1e-9 and err3 < 1e-9
    assert worst_ortho < 1e-10
    assert elapsed < 1.0


def test_c03a_equispaced_deviation_exponent_and_n15(equispaced_sweep):
    deviations, f0_khz, elapsed = equispaced_sweep
    worst_dev = max(deviations.values())
    ns = np.arange(10, 251)
    slope, _ = np.polyfit(np.log(ns), np.log([f0_khz[n] for n in ns]), 1)
    rel15 = abs(f0_khz[15] - 193.0) / 193.0
    ok = worst_dev <= 0.02 and abs(slope + 0.856) <= 0.02 and rel15 < 0.20
    record_acceptance(
        "3a equispaced chains: deviation, frequency scaling, N=15 window",
        ok and elapsed < 60.0,
        f"max deviation {worst_dev:.4f} d (limit 0.02 d); "
        f"exponent {slope:+.4f} (want -0.856 +- 0.02); "
        f"f0(15) = {f0_khz[15]:.1f} kHz, {100 * rel15:.1f}% from 193 kHz (limit 20%); "
        f"{elapsed:.1f} s (<60 s)",
    )
    assert worst_dev <= 0.02
    assert abs(slope + 0.856) <= 0.02
    assert rel15 < 0.20
    assert elapsed < 60.0


def test_c03b_equispaced_n25_frequency_window(equispaced_sweep):
    """Known-failing check, kept at its stated tolerance.

    The model value is robust: the equilibrium solver is validated against
    finite-difference gradients and an independent quasi-Newton minimizer,
    and the curvature eigenvalue against a finite-difference Hessian; all
    agree on f0(25) = 150.6 kHz at 4.4 um spacing.  The 123 kHz reference is
    an experimental value from a quadratic-plus-quartic trap, not from this
    idealized potential, and sits 22.5% away, outside the 20% window (the
    same comparison at N=15 passes at 18.7%).
    """
    _, f0_khz, _ = equispaced_sweep
    rel25 = abs(f0_khz[25] - 123.0) / 123.0
    record_acceptance(
        "3b equispaced N=25 frequency window",
        rel25 < 0.20,
        f"f0(25) = {f0_khz[25]:.1f} kHz, {100 * rel25:.1f}% from 123 kHz reference "
        f"(limit 20%); model value cross-validated, see test docstring",
    )
    assert rel25 < 0.20, (
        f"f0(25) = {f0_khz[25]:.2f} kHz differs from the 123 kHz reference by "
        f"{100 * rel25:.1f}% > 20%; the model value is verified by independent "
        "oracles (finite-difference Hessian, quasi-Newton equilibrium), so this "
        "tolerance cannot be met by this idealized potential"
    )


def test_c04_closed_form_vs_monte_carlo():
    t0 = time.perf_counter()
    omega0 = 2 * np.pi * 50e3
    times = np.linspace(0.0, 20 * np.pi / omega0, 201)
    worst = {}
    for i, theta in enumerate((0.02, 0.05, 0.2)):
        closed = rabi_trace(omega0, [theta], times)
        mc = rabi_trace_monte_carlo(omega0, [theta], times, 100_000, seed=101 + i)
        worst[theta] = float(np.max(np.abs(closed.p1 - mc.p1)))
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 5e-3 and elapsed < 30.0
    record_acceptance(
        "4 thermal Rabi trace: closed form vs Monte Carlo",
        ok,
        "max |dp1| = "
        + ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
        + f" (limit 5e-3, 1e5 samples); {elapsed:.1f} s (<30 s)",
    )
    assert max(worst.values()) < 5e-3
    assert elapsed < 30.0


def test_c05_harmonic_chain_identity():
    """Each addressed ion of a harmonic chain gains theta at one ion's rate
    at the trap frequency; theta after a wait is the rate times the wait, so
    the chain's decay parameters equal the single ion's too."""
    omega0 = 2 * np.pi * 140e3
    noise = NoiseModel(alpha=1.0, nbar_rate_ref=88.0, omega_ref=2 * np.pi * 3e6)
    beam = GaussianBeam(1.0, 0.0, 870e-9)
    chain = find_equilibrium(YB171, HarmonicPotential(omega0), 10)
    rates = addressed_theta_rates(noise, normal_modes(chain), chain.positions, beam, range(10))
    single = theta_rate(noise, single_ion_modes(YB171, omega0), {0: beam}, [0.0])[0]
    worst = float(np.max(np.abs(rates / single - 1.0)))
    record_acceptance(
        "5 uniform-mode chain reduces to the single-ion decay parameter",
        worst < 1e-12,
        f"max relative deviation {worst:.1e} (limit 1e-12)",
    )
    assert worst < 1e-12


def test_c06_gaussian_theta_profile():
    waist = 870e-9
    omega0 = 2 * np.pi * 140e3
    nbar = 280.0
    xi = zero_point_spread(YB171, omega0)
    center = theta_profile_gaussian(0.0, waist, xi, nbar)
    expected_center = 2.0 * (xi / waist) ** 2 * nbar
    crossing = abs(theta_profile_gaussian(waist / np.sqrt(2.0), waist, xi, nbar))
    modes = single_ion_modes(YB171, omega0)
    beam = GaussianBeam(1.0, 0.0, waist)
    xs = np.linspace(-1.5e-6, 1.5e-6, 61)
    profile = theta_profile_gaussian(xs, waist, xi, nbar)
    matrix_route = np.array(
        [decay_parameters(modes, ThermalState([nbar]), {0: beam}, [x])[0, 0] for x in xs]
    )
    route_gap = float(np.max(np.abs(profile - matrix_route)))
    ok = (
        center == pytest.approx(expected_center, rel=1e-14)
        and crossing < 1e-15 * center
        and route_gap < 1e-12 * center
    )
    record_acceptance(
        "6 spatial decay-parameter profile",
        ok,
        f"center {center:.5f} (= 2(xi/w)^2 nbar), zero crossing residual "
        f"{crossing:.1e}, two-route gap {route_gap:.1e} (limit 1e-12 relative)",
    )
    assert center == pytest.approx(expected_center, rel=1e-14)
    assert crossing < 1e-15 * center
    assert route_gap < 1e-12 * center


def test_c07_gate_bound_vs_monte_carlo():
    details = []
    ok = True
    for n_gates in (1, 3):
        for theta_sum in (0.0, 0.1, 0.3):
            ti = [theta_sum / 2.0]
            tj = [theta_sum / 2.0]
            bound = gate_fidelity_bound(ti, tj, n_gates)
            est = gate_fidelity_monte_carlo(
                ti, tj, n_gates, n_samples=100_000, seed=300 + n_gates
            )
            if theta_sum == 0.0:
                good = bound == 1.0 and est.f_parity == 1.0
            else:
                gap = abs(est.f_parity - bound)
                good = gap < 3.0 * est.f_parity_stderr
                # the bound exceeds the plain state-overlap average
                good &= bound >= est.f_overlap - 3.0 * est.f_overlap_stderr
            ok &= good
            details.append(f"Ng={n_gates},sum={theta_sum}: {'ok' if good else 'BAD'}")
    record_acceptance(
        "7 gate-fidelity bound vs thermal Monte Carlo (parity protocol)",
        ok,
        "; ".join(details) + " (3 sigma at 1e5 samples)",
    )
    assert ok


def test_c08_fit_round_trips_and_calibration(rng):
    t0 = time.perf_counter()

    # noiseless round trips, 1e-6 relative
    x = np.linspace(-2.0, 2.0, 41)
    beam_fit = fit_beam_profile(x, gaussian_beam_model([1.3, 0.05, 0.87], x))
    beam_rel = abs(beam_fit["waist"] / 0.87 - 1.0)

    omega0 = 2 * np.pi * 50e3
    t = np.linspace(0.0, 120e-6, 240)
    rabi_fit = fit_rabi_trace(t, damped_rabi_model([omega0, 0.08], t))
    rabi_rel = max(
        abs(rabi_fit["rabi_frequency"] / omega0 - 1.0), abs(rabi_fit["theta"] / 0.08 - 1.0)
    )

    tw = np.linspace(0.0, 10e-3, 9)
    growth_fit = fit_theta_growth(tw, 0.02 + 11.0 * tw)
    growth_rel = max(
        abs(growth_fit["intercept"] / 0.02 - 1.0), abs(growth_fit["slope"] / 11.0 - 1.0)
    )

    omega = 2 * np.pi * np.geomspace(80e3, 1000e3, 12)
    amp_true = 22.0 * (2 * np.pi * 140e3) ** 2.8
    power_fit = fit_theta_power_law(omega, theta_rate_model(omega, amp_true, 0.8, 0.9))
    power_rel = max(
        abs(power_fit["amplitude"] / amp_true - 1.0),
        abs(power_fit["alpha"] / 0.8 - 1.0),
        abs(power_fit["offset"] / 0.9 - 1.0),
    )
    noiseless_ok = max(beam_rel, rabi_rel, growth_rel, power_rel) < 1e-6

    # noisy recovery at measurement-like noise
    rates = theta_rate_model(omega, amp_true, 0.8, 0.9)
    sigma_r = 0.08 * rates
    noisy_fit = fit_theta_power_law(omega, rates + rng.normal(0, sigma_r), sigma_r)
    alpha_err = abs(noisy_fit["alpha"] - 0.8)

    x_nm = np.linspace(-2.2, 2.2, 45)
    profile = gaussian_beam_model([1.0, 0.0, 0.87], x_nm)
    noisy_beam = fit_beam_profile(
        x_nm, profile + rng.normal(0, 0.02, x_nm.size), np.full(x_nm.size, 0.02)
    )
    waist_err_nm = abs(noisy_beam["waist"] - 0.87) * 1e3
    noisy_ok = alpha_err <= 0.1 and waist_err_nm <= 25.0

    # 1-sigma interval calibration over 250 repetitions per recipe
    slope_hits = 0
    waist_hits = 0
    reps = 250
    sigma_g = np.full(tw.size, 0.004)
    sigma_b = np.full(x_nm.size, 0.02)
    for _ in range(reps):
        noisy_growth = 0.02 + 11.0 * tw + rng.normal(0, sigma_g)
        g = fit_theta_growth(tw, noisy_growth, sigma_g)
        slope_hits += abs(g["slope"] - 11.0) <= g.uncertainty("slope")
        noisy_prof = profile + rng.normal(0, sigma_b)
        b = fit_beam_profile(x_nm, noisy_prof, sigma_b)
        waist_hits += abs(b["waist"] - 0.87) <= b.uncertainty("waist")
    slope_cov = slope_hits / reps
    waist_cov = waist_hits / reps
    calib_ok = abs(slope_cov - 0.68) <= 0.07 and abs(waist_cov - 0.68) <= 0.07

    elapsed = time.perf_counter() - t0
    ok = noiseless_ok and noisy_ok and calib_ok and elapsed < 300.0
    record_acceptance(
        "8 fit recipes: round trips, noisy recovery, 1-sigma calibration",
        ok,
        f"noiseless rel err: beam {beam_rel:.1e}, rabi {rabi_rel:.1e}, growth "
        f"{growth_rel:.1e}, power {power_rel:.1e} (limit 1e-6); alpha err "
        f"{alpha_err:.3f} (<=0.1), waist err {waist_err_nm:.1f} nm (<=25); "
        f"coverage slope {slope_cov:.3f}, waist {waist_cov:.3f} (0.68 +- 0.07); "
        f"{elapsed:.0f} s (<300 s)",
    )
    assert noiseless_ok
    assert noisy_ok
    assert calib_ok
    assert elapsed < 300.0


def test_c09_cooling_bound_and_scalings():
    base = CoolingConfig(0.5, 4e-6, 297e-9, 2 * np.pi * 4.3e6, 2 * np.pi * 2.4e9)
    rate = crosstalk_rate(base)

    def scaled(**kw):
        fields = dict(
            coolant_fraction=base.coolant_fraction,
            spacing=base.spacing,
            wavelength=base.wavelength,
            linewidth=base.linewidth,
            isotope_splitting=base.isotope_splitting,
        )
        fields.update(kw)
        return crosstalk_rate(CoolingConfig(**fields)) / rate

    ratios = {
        "r": (scaled(coolant_fraction=0.25), 0.5),
        "Delta^-2": (scaled(isotope_splitting=2 * base.isotope_splitting), 0.25),
        "d^-2": (scaled(spacing=2 * base.spacing), 0.25),
        "lambda^2": (scaled(wavelength=2 * base.wavelength), 4.0),
        "Gamma^3": (scaled(linewidth=2 * base.linewidth), 8.0),
    }
    scalings_ok = all(abs(got / want - 1) < 1e-12 for got, want in ratios.values())
    ok = rate <= 2e-3 and scalings_ok
    record_acceptance(
        "9 sympathetic-cooling crosstalk bound",
        ok,
        f"rate {rate:.3e}/s (limit 2e-3); scaling ratios exact",
    )
    assert rate <= 2e-3
    assert scalings_ok


def test_c10_chain_rate_profile_and_exponent_recovery():
    chain = find_equilibrium(YB171, EquispacedLogPotential(15, SPACING))
    modes = normal_modes(chain)
    beams = {
        i: GaussianBeam(1.0, chain.positions[i], 870e-9) for i in range(15)
    }
    noise = NoiseModel(alpha=1.0, nbar_rate_ref=88.0, omega_ref=2 * np.pi * 3e6)
    rates = theta_rate(noise, modes, beams, chain.positions)
    b0 = modes.participation[:, 0]
    shape = b0**2 * b0.sum() ** 2
    shape_gap = float(np.max(np.abs(rates / rates[7] - shape / shape[7])))
    middle_peaked = rates[7] == np.max(rates) and rates[0] < rates[7] and rates[14] < rates[7]

    alpha_errs = {}
    beam = GaussianBeam(1.0, 0.0, 870e-9)
    sweep = 2 * np.pi * np.geomspace(80e3, 1000e3, 12)
    for alpha in (0.8, 1.0):
        noise_a = NoiseModel(alpha=alpha, nbar_rate_ref=88.0, omega_ref=2 * np.pi * 3e6)
        single_rates = np.array(
            [
                theta_rate(noise_a, single_ion_modes(YB171, w), {0: beam}, [0.0])[0]
                for w in sweep
            ]
        )
        fit = fit_theta_power_law(sweep, single_rates)
        alpha_errs[alpha] = abs(fit["alpha"] - alpha)
    ok = shape_gap < 1e-12 and middle_peaked and max(alpha_errs.values()) < 0.02
    record_acceptance(
        "10 chain decay-rate profile and noise-exponent recovery",
        ok,
        f"profile matches b^2 (sum b)^2 to {shape_gap:.1e}, middle-peaked: "
        f"{middle_peaked}; alpha recovery errors "
        + ", ".join(f"{k}: {v:.1e}" for k, v in alpha_errs.items())
        + " (limit 0.02)",
    )
    assert shape_gap < 1e-12
    assert middle_peaked
    assert max(alpha_errs.values()) < 0.02


def test_c11_cli_determinism_and_exit_codes(tmp_path):
    cfg = tmp_path / "rabi.yaml"
    cfg.write_text(
        "rabi:\n  drive_khz: 50.0\n  t_max_us: 100.0\n  n_points: 51\n"
        "  n_samples: 20000\n  theta: [0.08]\n"
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(["rabi", "--config", str(cfg), "--mc", "--seed", "7", "--out", str(out1)])
    code2 = cli_main(["rabi", "--config", str(cfg), "--mc", "--seed", "7", "--out", str(out2)])
    deterministic = code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()

    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("species: [broken\n")
    code_bad = cli_main(["modes", "--config", str(bad_yaml)])

    code_missing = cli_main(["fit", "beam", str(tmp_path / "absent.csv")])

    flat = tmp_path / "flat.csv"
    flat.write_text("x_um,signal\n" + "\n".join(f"{x},0.5" for x in range(21)) + "\n")
    code_numeric = cli_main(["fit", "beam", str(flat)])

    header_ok = out1.read_text().splitlines()[0] == "t_us,p1,contrast,phase_rad,mc_stderr"
    ok = (
        deterministic
        and code_bad == 2
        and code_missing == 2
        and code_numeric == 3
        and header_ok
    )
    record_acceptance(
        "11 CLI determinism and exit codes",
        ok,
        f"byte-identical reruns: {deterministic}; exit codes config/missing/"
        f"numerical = {code_bad}/{code_missing}/{code_numeric} (want 2/2/3)",
    )
    assert deterministic
    assert code_bad == 2
    assert code_missing == 2
    assert code_numeric == 3
    assert header_ok


def test_equispaced_hessian_independent_oracle():
    """Supporting evidence for 3b: the curvature matrix agrees with finite
    differences at the 25-ion equilibrium, so the 150.6 kHz value is not an
    implementation artifact."""
    chain = find_equilibrium(YB171, EquispacedLogPotential(25, SPACING))
    length = chain.unit_length
    fd = chain_hessian_fd(chain.positions, chain.potential, YB171, h=1e-5 * length)
    fd_lowest = np.linalg.eigvalsh(fd * length**3 / YB171.coulomb_energy_scale)[0]
    modes = normal_modes(chain)
    omega_u = np.sqrt(YB171.coulomb_energy_scale / (YB171.mass * length**3))
    lam0 = (modes.frequencies[0] / omega_u) ** 2
    assert fd_lowest == pytest.approx(lam0, rel=1e-7)
