import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import (
    EquispacedLogPotential,
    GaussianBeam,
    HarmonicPotential,
    NoiseModel,
    QuadQuarticPotential,
    TabulatedBeam,
    ThermalState,
    YB171,
    addressed_theta_rates,
    decay_parameters,
    find_equilibrium,
    fit_theta_power_law,
    gate_error_scaling,
    heating_rate_at,
    normal_modes,
    single_ion_modes,
    theta_rate,
    theta_rate_model,
    zero_point_spread,
)
from ionchain.chain import ModeDecomposition
from ionchain.errors import InputError
from ionchain.heating import _mode_heating_rates

NOISE = NoiseModel(alpha=1.0, nbar_rate_ref=88.0, omega_ref=2 * np.pi * 3e6)
WAIST = 870e-9


class TestHeatingRate:
    def test_reference_point(self):
        assert heating_rate_at(NOISE, NOISE.omega_ref) == pytest.approx(88.0, rel=1e-14)

    def test_inverse_square_at_alpha_one(self):
        assert heating_rate_at(NOISE, NOISE.omega_ref / 2) == pytest.approx(
            4 * 88.0, rel=1e-13
        )

    def test_log_space_arithmetic(self):
        # independent evaluation in log space
        omega = 2 * np.pi * 140e3
        expected = np.exp(np.log(88.0) + 2.0 * (np.log(NOISE.omega_ref) - np.log(omega)))
        assert heating_rate_at(NOISE, omega) == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            heating_rate_at(NOISE, 0.0)
        with pytest.raises(InputError):
            NoiseModel(alpha=2.5, nbar_rate_ref=1.0, omega_ref=1.0)


class TestModeHeatingRate:
    def test_com_mode_enhancement_is_n(self):
        n = 6
        modes = normal_modes(find_equilibrium(YB171, HarmonicPotential(2 * np.pi * 200e3), n))
        expected = heating_rate_at(NOISE, modes.frequencies[0]) * n
        assert _mode_heating_rates(NOISE, modes)[0] == pytest.approx(expected, rel=1e-10)

    def test_stretch_mode_decouples(self):
        modes = normal_modes(find_equilibrium(YB171, HarmonicPotential(2 * np.pi * 200e3), 4))
        assert _mode_heating_rates(NOISE, modes)[1] < 1e-20

    def test_uniform_projection_oracle(self):
        modes = normal_modes(find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6)))
        n = modes.n_ions
        uniform = np.full(n, n**-0.5)
        for m in (0, 2, 4):
            projection = float(uniform @ modes.participation[:, m])
            assert modes.uniform_drive_weights()[m] == pytest.approx(
                n * projection**2, abs=1e-12
            )


class TestThetaRate:
    def test_single_ion_pipeline_identity(self):
        omega0 = 2 * np.pi * 140e3
        modes = single_ion_modes(YB171, omega0)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        rate = theta_rate(NOISE, modes, {0: beam}, [0.0])[0]
        xi = zero_point_spread(YB171, omega0)
        expected = 2.0 * (xi / WAIST) ** 2 * heating_rate_at(NOISE, omega0)
        assert rate == pytest.approx(expected, rel=1e-14)

    def test_zero_reference_rate(self):
        silent = NoiseModel(alpha=1.0, nbar_rate_ref=0.0, omega_ref=2 * np.pi * 3e6)
        modes = normal_modes(find_equilibrium(YB171, EquispacedLogPotential(5, 4.4e-6)))
        chain = find_equilibrium(YB171, EquispacedLogPotential(5, 4.4e-6))
        beams = {
            i: GaussianBeam(1.0, chain.positions[i], WAIST) for i in range(5)
        }
        assert np.all(theta_rate(silent, modes, beams, chain.positions) == 0.0)

    def test_sign_convention_invariance(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(7, 4.4e-6))
        modes = normal_modes(chain)
        flipped = ModeDecomposition(
            species=modes.species,
            frequencies=modes.frequencies,
            participation=-modes.participation,
        )
        beams = {i: GaussianBeam(1.0, chain.positions[i], WAIST) for i in range(7)}
        a = theta_rate(NOISE, modes, beams, chain.positions)
        b = theta_rate(NOISE, flipped, beams, chain.positions)
        assert np.array_equal(a, b)

    def test_offset_adds_per_addressed_ion(self):
        with_offset = NoiseModel(alpha=1.0, nbar_rate_ref=88.0,
                                 omega_ref=2 * np.pi * 3e6, offset=0.9)
        modes = single_ion_modes(YB171, 2 * np.pi * 140e3)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        base = theta_rate(NOISE, modes, {0: beam}, [0.0])[0]
        assert theta_rate(with_offset, modes, {0: beam}, [0.0])[0] == pytest.approx(
            base + 0.9, rel=1e-14
        )

    def test_all_modes_at_least_lowest(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(7, 4.4e-6))
        modes = normal_modes(chain)
        beams = {i: GaussianBeam(1.0, chain.positions[i], WAIST) for i in range(7)}
        lowest = theta_rate(NOISE, modes, beams, chain.positions)
        full = theta_rate(NOISE, modes, beams, chain.positions, all_modes=True)
        assert np.all(full >= lowest - 1e-20)
        # the in-phase mode carries almost all of it
        assert np.all(full[1:-1] < 1.2 * lowest[1:-1])

    def test_cauchy_schwarz_enhancement_bound(self):
        for pot, n in [
            (EquispacedLogPotential(15, 4.4e-6), 15),
            (HarmonicPotential(2 * np.pi * 200e3), 10),
        ]:
            modes = normal_modes(find_equilibrium(YB171, pot, n))
            weights = modes.uniform_drive_weights()
            assert np.all(weights <= n + 1e-9)


@pytest.mark.parametrize("all_modes", [False, True])
@pytest.mark.parametrize("beam_kind", ["gaussian", "tabulated"])
def test_kernel_matches_per_ion_per_mode_loop(beam_kind, all_modes):
    chain = find_equilibrium(YB171, EquispacedLogPotential(6, 4.4e-6))
    modes = normal_modes(chain)
    noise = NoiseModel(alpha=0.7, nbar_rate_ref=88.0, omega_ref=2 * np.pi * 3e6,
                       offset=0.4)
    nbar = np.linspace(150.0, 300.0, modes.n_modes)
    beams = {}
    for i in (0, 2, 3):  # ions 1, 4 and 5 are not driven
        center = chain.positions[i] + 0.2e-6
        if beam_kind == "gaussian":
            beams[i] = GaussianBeam(1.0, center, WAIST)
        else:
            x = center + np.linspace(-3 * WAIST, 3 * WAIST, 601)
            beams[i] = TabulatedBeam(x, np.exp(-(((x - center) / WAIST) ** 2)))

    xi_sq = [zero_point_spread(YB171, w) ** 2 for w in modes.frequencies]
    used = range(modes.n_modes) if all_modes else range(1)
    theta = np.zeros((modes.n_ions, modes.n_modes))
    rate = np.zeros(modes.n_ions)
    for i, beam in beams.items():
        c = float(beam.curvature_ratio(chain.positions[i]))
        for m in range(modes.n_modes):
            b = modes.participation[i, m]
            theta[i, m] = -(b**2) * xi_sq[m] * c * nbar[m]
            if m in used:
                weight = modes.participation[:, m].sum() ** 2
                rate[i] += (-(b**2) * xi_sq[m] * c * weight
                            * heating_rate_at(noise, modes.frequencies[m]))
        rate[i] += noise.offset

    got_theta = decay_parameters(modes, ThermalState(nbar), beams, chain.positions)
    got_rate = theta_rate(noise, modes, beams, chain.positions, all_modes=all_modes)
    assert np.allclose(got_theta, theta, rtol=1e-12, atol=0.0)
    assert np.allclose(got_rate, rate, rtol=1e-12, atol=0.0)
    for i in (1, 4, 5):
        assert np.all(got_theta[i] == 0.0)
        assert got_rate[i] == 0.0


@st.composite
def addressed_chains(draw):
    """A harmonic, equispaced or quadratic-plus-quartic chain of at most 40
    ions (a2, a4 >= 0), with an ordered subset of its ions."""
    kind = draw(st.sampled_from(["harmonic", "equispaced", "quad_quartic"]))
    n = draw(st.integers(1 if kind == "harmonic" else 2, 40))
    if kind == "harmonic":
        chain = find_equilibrium(YB171, HarmonicPotential(2 * np.pi * draw(st.floats(5e4, 2e6))), n)
    elif kind == "equispaced":
        chain = find_equilibrium(YB171, EquispacedLogPotential(n, draw(st.floats(2e-6, 10e-6))))
    else:
        zero = draw(st.sampled_from(["a2", "a4", None]))  # a pure quartic or a pure harmonic trap
        a2 = 0.0 if zero == "a2" else 10.0 ** draw(st.floats(-16.0, -13.0))
        a4 = 0.0 if zero == "a4" else 10.0 ** draw(st.floats(-6.0, -3.0))
        chain = find_equilibrium(YB171, QuadQuarticPotential(a2, a4), n)
    order = draw(st.permutations(range(n)))
    return chain, order[: draw(st.integers(1, n))]


class TestAddressedThetaRates:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        addressed_chains(),
        st.floats(-2e-6, 2e-6),
        st.floats(3e-7, 3e-6),
        st.floats(0.0, 2.0),
        st.floats(0.0, 5.0),
    )
    def test_equals_theta_rate_with_one_beam_per_ion(self, drawn, offset, waist, alpha, shift):
        chain, ions = drawn
        modes = normal_modes(chain)
        noise = NoiseModel(alpha, nbar_rate_ref=88.0, omega_ref=2 * np.pi * 3e6, offset=shift)
        beam = GaussianBeam(2e5, offset, waist)
        beams = {i: GaussianBeam(2e5, chain.positions[i] + offset, waist) for i in sorted(ions)}
        expected = theta_rate(noise, modes, beams, chain.positions)[ions]
        got = addressed_theta_rates(noise, modes, chain.positions, beam, ions)
        assert got.shape == (len(ions),)
        assert np.array_equal(got, expected)

    def test_harmonic_chain_rates_equal_the_single_ion_rate(self):
        omega0 = 2 * np.pi * 140e3
        beam = GaussianBeam(1.0, 0.0, WAIST)
        chain = find_equilibrium(YB171, HarmonicPotential(omega0), 10)
        rates = addressed_theta_rates(NOISE, normal_modes(chain), chain.positions, beam, range(10))
        single = theta_rate(NOISE, single_ion_modes(YB171, omega0), {0: beam}, [0.0])[0]
        assert np.allclose(rates, single, rtol=1e-12, atol=0.0)

    def test_single_ion_gives_theta_rate_exactly(self):
        modes = single_ion_modes(YB171, 2 * np.pi * 140e3)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        [rate] = addressed_theta_rates(NOISE, modes, [0.0], beam, [0])
        assert rate == theta_rate(NOISE, modes, {0: beam}, [0.0])[0]

    def test_equispaced_chain_rates_peak_at_the_middle_ion(self):
        beam = GaussianBeam(1.0, 0.0, WAIST)
        chain = find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6))
        modes = normal_modes(chain)
        rates = addressed_theta_rates(NOISE, modes, chain.positions, beam, range(15))
        mid = 7
        assert rates[mid] == np.max(rates)
        assert rates[0] < rates[mid]
        assert rates[14] < rates[mid]
        # the lowest mode alone: b_i0^2 (sum_j b_j0)^2 times one ion's rate at omega_0
        single_modes = single_ion_modes(YB171, modes.frequencies[0])
        single = theta_rate(NOISE, single_modes, {0: beam}, [0.0])[0]
        b0 = modes.participation[:, 0]
        assert np.allclose(rates, b0**2 * b0.sum() ** 2 * single, rtol=1e-14, atol=0.0)


class TestThetaRateModel:
    def test_constant_when_amplitude_zero(self):
        omega = 2 * np.pi * np.array([100e3, 300e3, 900e3])
        assert np.allclose(theta_rate_model(omega, 0.0, 1.0, 0.9), 0.9, rtol=1e-15)

    def test_offset_asymptote(self):
        value = theta_rate_model(1e12, 1.0, 0.8, 0.9)
        assert value == pytest.approx(0.9, rel=1e-9)

    def test_alpha_round_trip_through_fit(self):
        omega = 2 * np.pi * np.geomspace(80e3, 1000e3, 12)
        amplitude = 22.0 * (2 * np.pi * 140e3) ** 2.8
        rates = theta_rate_model(omega, amplitude, 0.8, 0.9)
        fit = fit_theta_power_law(omega, rates)
        assert fit["alpha"] == pytest.approx(0.8, abs=1e-4)
        assert fit["offset"] == pytest.approx(0.9, rel=1e-3)


def _old_gate_error_scaling(n_ions, t_wait, alpha, reference):
    """The five-argument form with a reference error and wait times."""
    n_ref, t_ref, err_ref = reference
    return err_ref * (t_wait / t_ref) ** 2 * (n_ions / n_ref) ** (4.0 + 2.0 * alpha)


class TestGateErrorScaling:
    def test_alpha_one_gives_sixth_power(self):
        ratio = gate_error_scaling(20, 10, 1.0)
        assert ratio == pytest.approx(2.0**6, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            gate_error_scaling(0, 10, 1.0)
        with pytest.raises(InputError):
            gate_error_scaling(10, 0, 1.0)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 1000), st.integers(1, 1000), st.floats(0.0, 2.0))
    def test_bit_identical_to_the_unit_reference_form(self, n_ions, n_ref, alpha):
        # every caller passed t_wait = t_ref = err_ref = 1.0
        old = _old_gate_error_scaling(n_ions, 1.0, alpha, (n_ref, 1.0, 1.0))
        assert gate_error_scaling(n_ions, n_ref, alpha) == old
