import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import theta_profile_gaussian, trig_arguments

from ionchain import (
    CoolingConfig,
    EquispacedLogPotential,
    GaussianBeam,
    HarmonicPotential,
    IonSpecies,
    ModeDecomposition,
    NoiseModel,
    QuadQuarticPotential,
    TabulatedBeam,
    ThermalState,
    YB171,
    decay_parameters,
    find_equilibrium,
    in_phase_theta,
    normal_modes,
    rabi_trace,
    rabi_trace_monte_carlo,
    single_ion_modes,
    zero_point_spread,
)
from ionchain import decoherence
from ionchain.fitting import gaussian_beam_model
from ionchain.constants import HBAR
from ionchain.errors import DomainError, InputError, LowOccupancyWarning

WAIST = 870e-9
OMEGA_140 = 2 * np.pi * 140e3
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def quiet_state(nbar):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowOccupancyWarning)
        return ThermalState(nbar)


# ----------------------------------------------------------------------
# beams
# ----------------------------------------------------------------------

class TestBeams:
    def test_gaussian_center_curvature(self):
        beam = GaussianBeam(peak_rabi=1.0, center=0.0, waist=WAIST)
        assert beam.curvature_ratio(0.0) == pytest.approx(-2.0 / WAIST**2, rel=1e-12)

    def test_gaussian_inflection_zero(self):
        beam = GaussianBeam(peak_rabi=1.0, center=0.3e-6, waist=WAIST)
        x = 0.3e-6 + WAIST / np.sqrt(2.0)
        assert abs(beam.curvature_ratio(x)) < 1e-6 / WAIST**2

    def test_gaussian_amplitude_profile(self):
        beam = GaussianBeam(peak_rabi=2.0, center=0.0, waist=WAIST)
        assert beam.rabi_at(WAIST) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)

    def test_tabulated_matches_analytic(self):
        x = np.linspace(-2.5 * WAIST, 2.5 * WAIST, 501)
        gauss = GaussianBeam(peak_rabi=1.0, center=0.0, waist=WAIST)
        tab = TabulatedBeam(x, gauss.rabi_at(x))
        probe = np.array([0.0, 0.3, -0.3, 1.0, -1.0, 1.5]) * WAIST
        assert np.allclose(tab.rabi_at(probe), gauss.rabi_at(probe), rtol=1e-4)
        assert np.allclose(
            tab.curvature_ratio(probe), gauss.curvature_ratio(probe), rtol=1e-4
        )

    def test_tabulated_domain_errors(self):
        x = np.linspace(0.0, 1.0, 11)
        tab = TabulatedBeam(x, np.exp(-x))
        with pytest.raises(DomainError):
            tab.rabi_at(1.2)
        with pytest.raises(DomainError):
            tab.curvature_ratio(0.05)  # inside range but outside interior

    def test_tabulated_validation(self):
        with pytest.raises(InputError):
            TabulatedBeam([0, 1, 2], [1, 1, 1])  # too few points
        with pytest.raises(InputError):
            TabulatedBeam([0, 1, 1, 2], [1, 1, 1, 1])  # not strictly increasing
        with pytest.raises(InputError):
            GaussianBeam(peak_rabi=1.0, center=0.0, waist=0.0)


NON_FINITE = {
    "beam_center_nan": lambda: GaussianBeam(1.0, math.nan, WAIST),
    "beam_peak_nan": lambda: GaussianBeam(math.nan, 0.0, WAIST),
    "beam_peak_inf": lambda: GaussianBeam(math.inf, 0.0, WAIST),
    "beam_waist_inf": lambda: GaussianBeam(1.0, 0.0, math.inf),
    "tabulated_rabi_nan": lambda: TabulatedBeam(np.arange(5.0), [0.0, 1.0, math.nan, 1.0, 0.0]),
    "tabulated_x_inf": lambda: TabulatedBeam([0.0, 1.0, 2.0, 3.0, math.inf], np.ones(5)),
    "nbar_nan": lambda: ThermalState([math.nan]),
    "nbar_inf": lambda: ThermalState([math.inf]),
    "uniform_nbar_nan": lambda: ThermalState.uniform(3, math.nan),
    "harmonic_inf": lambda: HarmonicPotential(math.inf),
    "quartic_a2_nan": lambda: QuadQuarticPotential(math.nan, 1.0),
    "quartic_a4_inf": lambda: QuadQuarticPotential(1.0, math.inf),
    "equispaced_spacing_inf": lambda: EquispacedLogPotential(5, math.inf),
    "noise_rate_nan": lambda: NoiseModel(1.0, nbar_rate_ref=math.nan, omega_ref=1.0),
    "noise_rate_inf": lambda: NoiseModel(1.0, nbar_rate_ref=math.inf, omega_ref=1.0),
    "noise_omega_inf": lambda: NoiseModel(1.0, nbar_rate_ref=1.0, omega_ref=math.inf),
    "noise_offset_inf": lambda: NoiseModel(1.0, 1.0, 1.0, offset=math.inf),
    "cooling_spacing_inf": lambda: CoolingConfig(0.5, math.inf, 297e-9, 1.0, 1.0),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_constructor_rejects_non_finite(build):
    with pytest.raises(InputError):
        build()


INFINITE_SCALE = {
    "species_mass": (lambda: IonSpecies(mass=math.inf), "ion mass"),
    "single_ion_trap_frequency": (lambda: single_ion_modes(YB171, math.inf), "trap frequency"),
    "zero_point_mode_frequency": (lambda: zero_point_spread(YB171, math.inf), "mode frequency"),
}


@pytest.mark.parametrize("build, name", INFINITE_SCALE.values(), ids=INFINITE_SCALE.keys())
def test_infinite_mass_or_frequency_rejected(build, name):
    with pytest.raises(InputError) as excinfo:
        build()
    assert str(excinfo.value) == f"{name} must be positive and finite, got inf"


# ----------------------------------------------------------------------
# zero-point spread and thermal state
# ----------------------------------------------------------------------

class TestZeroPointSpread:
    def test_yb171_100khz_value(self):
        xi = zero_point_spread(YB171, 2 * np.pi * 100e3)
        assert abs(xi - 17e-9) / 17e-9 < 0.03

    def test_square_root_law(self):
        xi1 = zero_point_spread(YB171, OMEGA_140)
        xi4 = zero_point_spread(YB171, 4 * OMEGA_140)
        assert xi4 == pytest.approx(xi1 / 2.0, rel=1e-12)

    def test_hand_computed_140khz(self):
        # independent arithmetic: hbar = 1.054571817e-34, M = 170.9363302 u,
        # u = 1.66053906660e-27 kg, omega = 2 pi 140 kHz
        mass = 170.9363302 * 1.66053906660e-27
        expected = (1.054571817e-34 / (2.0 * mass * 2.0 * np.pi * 140e3)) ** 0.5
        assert zero_point_spread(YB171, OMEGA_140) == pytest.approx(expected, rel=1e-12)

    def test_low_occupancy_warning(self):
        with pytest.warns(LowOccupancyWarning) as record:
            ThermalState([5.0])
        assert record[0].filename == __file__  # names the caller's line
        assert str(record[0].message) == (
            "thermal occupancy below 10 quanta: the classical "
            "energy-averaging model assumes nbar >> 1"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ThermalState([280.0])  # no warning

    def test_uniform_state_warns_at_the_caller(self):
        with pytest.warns(LowOccupancyWarning) as record:
            state = ThermalState.uniform(1, 5.0)
        assert record[0].filename == __file__
        assert np.array_equal(state.nbar, [5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = ThermalState.uniform(3, 280.0)  # no warning
        assert isinstance(state, ThermalState)
        assert state.nbar.dtype == float and np.array_equal(state.nbar, [280.0] * 3)
        with pytest.raises(InputError):
            ThermalState.uniform(2, -1.0)

    def test_thermal_state_validation(self):
        with pytest.raises(InputError):
            quiet_state([-1.0])


# ----------------------------------------------------------------------
# decay parameters
# ----------------------------------------------------------------------

class TestDecayParameters:
    def test_zero_occupancy_gives_zero(self):
        modes = single_ion_modes(YB171, OMEGA_140)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        theta = decay_parameters(modes, quiet_state([0.0]), {0: beam}, [0.0])
        assert theta[0, 0] == 0.0

    def test_single_ion_two_route_agreement(self):
        # route 1: the general matrix; route 2: 2 (xi/w)^2 nbar closed form
        modes = single_ion_modes(YB171, OMEGA_140)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        theta = decay_parameters(modes, ThermalState([280.0]), {0: beam}, [0.0])
        xi = zero_point_spread(YB171, OMEGA_140)
        expected = 2.0 * (xi / WAIST) ** 2 * 280.0
        assert theta[0, 0] == pytest.approx(expected, rel=1e-12)
        assert theta[0, 0] > 0

    def test_ion_at_inflection_point_zero(self):
        modes = single_ion_modes(YB171, OMEGA_140)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        theta = decay_parameters(
            modes, ThermalState([280.0]), {0: beam}, [WAIST / np.sqrt(2.0)]
        )
        assert abs(theta[0, 0]) < 1e-12

    def test_unaddressed_ions_zero_rows(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(5, 4.4e-6))
        modes = normal_modes(chain)
        beam = GaussianBeam(1.0, chain.positions[2], WAIST)
        theta = decay_parameters(
            modes, ThermalState(np.full(5, 100.0)), {2: beam}, chain.positions
        )
        assert np.all(theta[[0, 1, 3, 4], :] == 0.0)
        assert np.any(theta[2, :] != 0.0)

    def test_linear_in_occupancy(self):
        modes = single_ion_modes(YB171, OMEGA_140)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        one = decay_parameters(modes, ThermalState([150.0]), {0: beam}, [0.0])
        two = decay_parameters(modes, ThermalState([300.0]), {0: beam}, [0.0])
        assert np.allclose(two, 2.0 * one, rtol=1e-14)

    def test_sign_positive_inside_concave_region(self, rng):
        modes = single_ion_modes(YB171, OMEGA_140)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        for _ in range(25):
            x = rng.uniform(-0.999, 0.999) * WAIST / np.sqrt(2.0)
            theta = decay_parameters(modes, ThermalState([50.0]), {0: beam}, [x])
            assert theta[0, 0] > 0

    def test_dimension_checks(self):
        modes = single_ion_modes(YB171, OMEGA_140)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        with pytest.raises(InputError):
            decay_parameters(modes, ThermalState([100.0]), {0: beam}, [0.0, 1.0])
        with pytest.raises(InputError):
            decay_parameters(modes, ThermalState([100.0]), {3: beam}, [0.0])

    def test_tabulated_beam_route_matches_gaussian(self):
        modes = single_ion_modes(YB171, OMEGA_140)
        gauss = GaussianBeam(1.0, 0.0, WAIST)
        x = np.linspace(-2.5 * WAIST, 2.5 * WAIST, 501)
        tab = TabulatedBeam(x, gauss.rabi_at(x))
        via_gauss = decay_parameters(modes, ThermalState([280.0]), {0: gauss}, [0.0])
        via_tab = decay_parameters(modes, ThermalState([280.0]), {0: tab}, [0.0])
        assert via_tab[0, 0] == pytest.approx(via_gauss[0, 0], rel=1e-4)


class TestThetaProfile:
    def test_center_value(self):
        xi = zero_point_spread(YB171, OMEGA_140)
        theta = theta_profile_gaussian(0.0, WAIST, xi, 280.0)
        assert theta == pytest.approx(2.0 * (xi / WAIST) ** 2 * 280.0, rel=1e-14)

    def test_zero_crossings_at_inflection(self):
        xi = zero_point_spread(YB171, OMEGA_140)
        x = WAIST / np.sqrt(2.0)
        center = theta_profile_gaussian(0.0, WAIST, xi, 280.0)
        assert abs(theta_profile_gaussian(x, WAIST, xi, 280.0)) < 1e-15 * center
        assert abs(theta_profile_gaussian(-x, WAIST, xi, 280.0)) < 1e-15 * center

    def test_matches_decay_parameters_route(self):
        xi = zero_point_spread(YB171, OMEGA_140)
        modes = single_ion_modes(YB171, OMEGA_140)
        beam = GaussianBeam(1.0, 0.0, WAIST)
        xs = np.linspace(-1.4e-6, 1.4e-6, 31)
        profile = theta_profile_gaussian(xs, WAIST, xi, 280.0)
        matrix_route = np.array(
            [
                decay_parameters(modes, ThermalState([280.0]), {0: beam}, [x])[0, 0]
                for x in xs
            ]
        )
        assert np.max(np.abs(profile - matrix_route)) < 1e-12 * np.max(np.abs(profile))


def _per_ion_coupling(modes, beams, positions):
    """_beam_coupling with one curvature-ratio evaluation per ion, the Gaussian
    one in its scalar form."""
    neg_curvature = np.zeros(modes.n_ions)
    for i, beam in beams.items():
        x = np.asarray(positions[i], dtype=float)
        if isinstance(beam, GaussianBeam):
            s = (x - beam.center) / beam.waist
            ratio = (4.0 * s * s - 2.0) / (beam.waist * beam.waist)
        else:
            ratio = beam.curvature_ratio(x)
        neg_curvature[i] = -float(ratio)
    spreads_sq = HBAR / (2.0 * modes.species.mass * modes.frequencies)
    return modes.participation**2 * spreads_sq * neg_curvature[:, None]


@st.composite
def addressed_chains(draw):
    """Synthetic modes of N = 1..400 ions, their positions and a beam dict:
    a Gaussian beam on every ion, a tabulated one on every ion, a mix of the
    two, or a mix on a subset, the ions in shuffled order."""
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["gaussian", "tabulated", "mixed", "subset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = rng.uniform(1e-6, 6e-6)
    x = (np.arange(n) - 0.5 * (n - 1) + rng.uniform(-0.2, 0.2, n)) * spacing
    frequencies = np.sort(rng.uniform(1.0, 10.0, n)) * OMEGA_140
    modes = ModeDecomposition(YB171, frequencies, rng.standard_normal((n, n)))
    grid = np.linspace(x[0] - spacing, x[-1] + spacing, 4 * n + 8)
    tabulated = TabulatedBeam(grid, 1.0 + 0.5 * np.cos(grid / (3.0 * spacing)))
    ions = rng.permutation(n)
    if kind == "subset":
        ions = ions[: rng.integers(0, n + 1)]
    beams = {}
    for i in ions:
        use_gaussian = kind == "gaussian" or (kind != "tabulated" and rng.random() < 0.5)
        if use_gaussian:
            center = x[i] + rng.normal(0.0, 0.5) * spacing
            beams[int(i)] = GaussianBeam(1.0, float(center), rng.uniform(0.5e-6, 2e-6))
        else:
            beams[int(i)] = tabulated
    return modes, beams, x


class TestBeamCouplingBitForBit:
    @PROPERTY_SETTINGS
    @given(addressed_chains())
    def test_matches_the_per_ion_loop(self, case):
        modes, beams, x = case
        coupling = decoherence._beam_coupling(modes, beams, x)
        assert np.array_equal(coupling, _per_ion_coupling(modes, beams, x))

    @pytest.mark.parametrize("ion", [-1, 3])
    @pytest.mark.parametrize("tabulated", [False, True])
    def test_out_of_range_ion_rejected(self, ion, tabulated):
        chain = find_equilibrium(YB171, HarmonicPotential(OMEGA_140), 3)
        modes = normal_modes(chain)
        grid = np.linspace(-2e-4, 2e-4, 41)
        beam = TabulatedBeam(grid, np.ones(41)) if tabulated else GaussianBeam(1.0, 0.0, WAIST)
        beams = {0: GaussianBeam(1.0, 0.0, WAIST), ion: beam}
        with pytest.raises(InputError, match=f"beam assigned to ion {ion}, outside 0..2"):
            decoherence._beam_coupling(modes, beams, chain.positions)


class TestSharedKernelsBitForBit:
    """The Gaussian profile and hbar / (2 M omega) each have one implementation;
    these pin it to the expressions its callers used to write out."""

    @PROPERTY_SETTINGS
    @given(
        st.floats(0.0, 1e8),
        st.floats(-1e-4, 1e-4),
        st.floats(1e-8, 1e-4),
        st.lists(st.floats(-2e-4, 2e-4), min_size=1, max_size=50),
    )
    def test_gaussian_model_is_the_beam_profile(self, peak, center, waist, xs):
        x = np.array(xs)
        s = (x - center) / waist
        old = peak * np.exp(-s * s)
        assert np.array_equal(GaussianBeam(peak, center, waist).rabi_at(x), old)
        assert np.array_equal(gaussian_beam_model((peak, center, waist), x), old)
        assert gaussian_beam_model is decoherence.gaussian_beam_model

    @PROPERTY_SETTINGS
    @given(
        st.floats(1.0, 300.0),
        st.lists(st.floats(1e3, 1e9), min_size=1, max_size=40),
        st.floats(1e-7, 1e-5),
    )
    def test_zero_point_spread_and_coupling_share_one_spread(self, mass_amu, omegas, waist):
        species = IonSpecies.from_amu(mass_amu)
        frequencies = np.array(omegas)
        old_sq = HBAR / (2.0 * species.mass * frequencies)
        for omega, sq in zip(omegas, old_sq):
            old = math.sqrt(HBAR / (2.0 * species.mass * omega))
            assert zero_point_spread(species, omega) == old == math.sqrt(sq)
        # one ion at the centre of its beam, participation 1 in every mode:
        # the coupling row is xi_m^2 times -Omega''/Omega = 2 / w^2
        n = len(omegas)
        modes = ModeDecomposition(species, frequencies, np.ones((1, n)))
        coupling = decoherence._beam_coupling(modes, {0: GaussianBeam(1.0, 0.0, waist)}, [0.0])
        assert np.array_equal(coupling[0], old_sq * (2.0 / (waist * waist)))


# ----------------------------------------------------------------------
# Rabi traces
# ----------------------------------------------------------------------

class TestRabiTrace:
    @PROPERTY_SETTINGS
    @given(st.integers(1, 400), st.integers(1, 120), st.integers(0, 2**32 - 1))
    def test_closed_form_matches_the_wrapper_form(self, n_modes, n_times, seed):
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(-1.0, 1.0, n_modes) * 10.0 ** rng.uniform(-5.0, 0.0, n_modes)
        times = np.sort(rng.uniform(0.0, 300e-6, n_times))
        omega0 = 2 * np.pi * rng.uniform(10e3, 100e3)
        p1, contrast, phase = decoherence._thermal_rabi(omega0, thetas, times)
        a = thetas[:, None] * omega0 * times[None, :]
        old_contrast = np.prod(1.0 / np.sqrt(1.0 + a * a), axis=0)
        old_phase = np.sum(np.arctan(a), axis=0)
        assert np.array_equal(contrast, old_contrast)
        assert np.array_equal(phase, old_phase)
        assert np.array_equal(p1, 0.5 * (1.0 - old_contrast * np.cos(omega0 * times - old_phase)))

    def test_undamped_limit(self):
        omega0 = 2 * np.pi * 50e3
        t = np.linspace(0.0, 100e-6, 57)
        trace = rabi_trace(omega0, [0.0], t)
        assert np.allclose(trace.p1, np.sin(0.5 * omega0 * t) ** 2, atol=1e-14)
        assert np.all(trace.contrast == 1.0)
        assert np.all(trace.phase == 0.0)

    def test_starts_at_zero(self):
        trace = rabi_trace(2 * np.pi * 50e3, [0.3, -0.1], [0.0])
        assert trace.p1[0] == 0.0

    def test_single_mode_unit_argument(self):
        omega0 = 2 * np.pi * 50e3
        theta = 0.1
        t = 1.0 / (omega0 * theta)  # theta * omega0 * t = 1
        trace = rabi_trace(omega0, [theta], [t])
        assert trace.contrast[0] == pytest.approx(2.0**-0.5, rel=1e-12)
        assert trace.phase[0] == pytest.approx(np.pi / 4.0, rel=1e-12)
        expected = 0.5 * (1.0 - np.cos(omega0 * t - np.pi / 4.0) / np.sqrt(2.0))
        assert trace.p1[0] == pytest.approx(expected, rel=1e-12)

    def test_population_bounds_random_thetas(self, rng):
        omega0 = 2 * np.pi * 50e3
        t = np.linspace(0.0, 300e-6, 400)
        for _ in range(20):
            thetas = rng.uniform(-0.5, 0.5, size=rng.integers(1, 5))
            trace = rabi_trace(omega0, thetas, t)
            assert np.all(trace.p1 >= 0.0) and np.all(trace.p1 <= 1.0)
            assert np.all(trace.contrast > 0.0) and np.all(trace.contrast <= 1.0)
            assert np.all(np.diff(trace.contrast) <= 1e-15)

    def test_phase_asymptote(self):
        omega0 = 2 * np.pi * 50e3
        thetas = [0.2, -0.05, 0.1]
        trace = rabi_trace(omega0, thetas, [1000.0])  # enormous t
        expected = sum(np.sign(th) for th in thetas) * np.pi / 2.0
        assert trace.phase[0] == pytest.approx(expected, rel=1e-7)

    def test_negative_times_rejected(self):
        with pytest.raises(InputError):
            rabi_trace(1.0, [0.1], [-1.0])


class TestRabiTraceMonteCarlo:
    def test_zero_theta_exact(self):
        omega0 = 2 * np.pi * 50e3
        t = np.linspace(0.0, 60e-6, 31)
        mc = rabi_trace_monte_carlo(omega0, [0.0], t, n_samples=100, seed=1)
        assert np.allclose(mc.p1, np.sin(0.5 * omega0 * t) ** 2, atol=1e-14)
        assert np.all(mc.stderr < 1e-14)

    def test_seed_reproducibility(self):
        omega0 = 2 * np.pi * 50e3
        t = np.linspace(0.0, 60e-6, 13)
        a = rabi_trace_monte_carlo(omega0, [0.07], t, n_samples=2000, seed=42)
        b = rabi_trace_monte_carlo(omega0, [0.07], t, n_samples=2000, seed=42)
        assert np.array_equal(a.p1, b.p1)
        assert np.array_equal(a.stderr, b.stderr)
        c = rabi_trace_monte_carlo(omega0, [0.07], t, n_samples=2000, seed=43)
        assert not np.array_equal(a.p1, c.p1)

    def test_closed_form_agreement_single_mode(self):
        omega0 = 2 * np.pi * 50e3
        t_max = 20 * np.pi / omega0
        t = np.linspace(0.0, t_max, 201)
        closed = rabi_trace(omega0, [0.05], t)
        mc = rabi_trace_monte_carlo(omega0, [0.05], t, n_samples=100_000, seed=7)
        assert np.max(np.abs(closed.p1 - mc.p1)) < 5e-3

    def test_closed_form_agreement_multimode(self):
        omega0 = 2 * np.pi * 50e3
        t = np.linspace(0.0, 15 * np.pi / omega0, 151)
        thetas = [0.08, -0.03, 0.02]
        closed = rabi_trace(omega0, thetas, t)
        mc = rabi_trace_monte_carlo(omega0, thetas, t, n_samples=100_000, seed=9)
        assert np.max(np.abs(closed.p1 - mc.p1)) < 5e-3

    def test_closed_form_agreement_random_theta_lists(self, rng):
        # property: agreement holds for arbitrary mode lists in the
        # |theta * omega0 * t| <= 10 envelope, at 1e5 samples
        omega0 = 2 * np.pi * 50e3
        for trial in range(3):
            n_modes = int(rng.integers(1, 5))
            thetas = rng.uniform(-0.25, 0.25, n_modes)
            t_max = 10.0 / (omega0 * max(np.max(np.abs(thetas)), 1e-3))
            t = np.linspace(0.0, min(t_max, 30 * np.pi / omega0), 101)
            closed = rabi_trace(omega0, thetas, t)
            mc = rabi_trace_monte_carlo(omega0, thetas, t, 100_000, seed=500 + trial)
            assert np.max(np.abs(closed.p1 - mc.p1)) < 5e-3


def tan_sin_squared(x):
    """sin^2 x as 1 / (1 + 1 / tan^2 x), 0 at x = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + 1.0 / np.tan(x) ** 2)


def serial_rabi_monte_carlo(omega0, thetas, times, n_samples, seed, sin_squared=tan_sin_squared):
    """The one-thread Monte-Carlo loop, as it was written before the drive
    times were split over CPUs: with the default ``sin_squared``, the
    bit-for-bit reference."""
    times = np.asarray(times, dtype=float)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    u = np.empty((len(thetas), n_samples))
    for m in range(len(thetas)):
        u[m] = np.random.default_rng([seed, m]).exponential(1.0, n_samples)
    factor = 1.0 - thetas @ u
    p1 = np.empty_like(times)
    stderr = np.empty_like(times)
    for k, t in enumerate(times):
        values = sin_squared(0.5 * omega0 * t * factor)
        p1[k] = values.mean()
        stderr[k] = values.std(ddof=1) / math.sqrt(n_samples) if n_samples > 1 else 0.0
    return p1, stderr


class TestParallelMonteCarlo:
    @pytest.mark.parametrize("n_samples", [2, 100_000])
    @pytest.mark.parametrize("n_times", [1, 2, 51])
    @pytest.mark.parametrize("thetas", [[0.04], [0.08, -0.03, 0.02]])
    def test_bit_identical_to_serial_loop(self, thetas, n_times, n_samples):
        # unsorted drive times, t = 0 among them once there are two or more
        times = np.random.default_rng(n_times).uniform(0.0, 1e-4, n_times)
        if n_times > 1:
            times[n_times // 2] = 0.0
        omega0 = 2 * np.pi * 50e3
        p1, stderr = serial_rabi_monte_carlo(omega0, thetas, times, n_samples, seed=3)
        mc = rabi_trace_monte_carlo(omega0, thetas, times, n_samples, seed=3)
        assert np.array_equal(mc.p1, p1)
        assert np.array_equal(mc.stderr, stderr)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_independent_of_cpu_count(self, monkeypatch, cpus):
        # more workers than cores, switching threads often: a lost or
        # misplaced write would break bit-equality
        monkeypatch.setattr(decoherence, "_usable_cpus", lambda: cpus)
        times = np.linspace(0.0, 8e-5, 7)[::-1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mc = rabi_trace_monte_carlo(
                2 * np.pi * 50e3, [0.05, 0.01, -0.02], times, 5000, seed=8
            )
        finally:
            sys.setswitchinterval(interval)
        p1, stderr = serial_rabi_monte_carlo(
            2 * np.pi * 50e3, [0.05, 0.01, -0.02], times, 5000, seed=8
        )
        assert np.array_equal(mc.p1, p1)
        assert np.array_equal(mc.stderr, stderr)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_items", [0, 1, 2, 5, 51])
    def test_every_item_runs_once(self, monkeypatch, cpus, n_items):
        monkeypatch.setattr(decoherence, "_usable_cpus", lambda: cpus)
        seen = []
        decoherence._run_from_shared_queue(n_items, seen.extend)
        assert sorted(seen) == list(range(n_items))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_items", [0, 1, 51])
    def test_a_slow_caller_leaves_its_items_to_the_threads(self, monkeypatch, cpus, n_items):
        # the caller's items take 2 ms and the threads' none, as when the
        # caller's core is busy: the threads then take more than the
        # strided share of range(n_items) that fixed slices would give them
        monkeypatch.setattr(decoherence, "_usable_cpus", lambda: cpus)
        taken = []

        def work(queue):
            on_caller = threading.current_thread() is threading.main_thread()
            for k in queue:
                if on_caller:
                    time.sleep(0.002)
                taken.append((k, on_caller))

        decoherence._run_from_shared_queue(n_items, work)
        assert sorted(k for k, _ in taken) == list(range(n_items))
        n_workers = max(1, min(n_items, cpus))
        by_threads = sum(not on_caller for _, on_caller in taken)
        strided_share = n_items - len(range(0, n_items, n_workers))
        if n_workers == 1:
            assert by_threads == 0
        else:
            assert by_threads > strided_share

    @pytest.mark.parametrize("failing", ["caller", "thread"])
    def test_worker_exception_reaches_caller(self, monkeypatch, failing):
        monkeypatch.setattr(decoherence, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        failing_side_has_an_item = threading.Event()

        def work(queue):
            on_caller = threading.current_thread() is threading.main_thread()
            for k in queue:
                if on_caller == (failing == "caller"):  # on its first item
                    failing_side_has_an_item.set()
                    raise ZeroDivisionError(f"{failing} failed on item {k}")
                # leave items in the queue until the failing side has one
                failing_side_has_an_item.wait(10.0)

        with pytest.raises(ZeroDivisionError, match=f"{failing} failed on item"):
            decoherence._run_from_shared_queue(9, work)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        rabi_trace_monte_carlo(2 * np.pi * 50e3, [0.05, 0.02], np.linspace(0, 1e-4, 51), 1000)
        assert threading.active_count() == before


class TestTangentForm:
    """sin^2 x from tan x against numpy's libm sin, which it replaces."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.lists(trig_arguments(), min_size=1, max_size=40))
    def test_within_six_ulp_of_libm_sin_squared(self, xs):
        x = np.array(xs)
        got = np.empty_like(x)
        # with theta 0 every frequency sample is omega0, so one sample at drive
        # time |x| under omega0 = +-2 is sin^2 x itself; drive times are >= 0
        for negative in (False, True):
            side = np.signbit(x) == negative
            omega0 = -2.0 if negative else 2.0
            got[side] = rabi_trace_monte_carlo(omega0, [0.0], np.abs(x[side]), n_samples=1).p1
        expected = np.sin(x) ** 2
        assert np.all(np.abs(got - expected) <= np.maximum(6 * np.spacing(expected), 1e-300))

    @settings(max_examples=4, deadline=None, database=None, derandomize=True)
    @given(
        thetas=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimate_within_1e_15_of_libm_estimate(self, thetas, seed):
        omega0, times = 2 * np.pi * 50e3, np.linspace(0.0, 2e-4, 51)
        mc = rabi_trace_monte_carlo(omega0, thetas, times, 100_000, seed)
        libm, _ = serial_rabi_monte_carlo(
            omega0, thetas, times, 100_000, seed, sin_squared=lambda x: np.sin(x) ** 2
        )
        assert np.max(np.abs(mc.p1 - libm)) <= 1e-15


# ----------------------------------------------------------------------
# in-phase mode reduction
# ----------------------------------------------------------------------

class TestInPhaseTheta:
    def test_harmonic_chain_identity(self):
        modes = normal_modes(find_equilibrium(YB171, HarmonicPotential(OMEGA_140), 10))
        theta = in_phase_theta(modes, 0.156)
        assert np.allclose(theta, 0.156, rtol=1e-12)

    def test_single_ion_identity(self):
        modes = single_ion_modes(YB171, OMEGA_140)
        assert in_phase_theta(modes, 0.2)[0] == pytest.approx(0.2, rel=1e-15)

    def test_equispaced_chain_middle_enhanced(self):
        modes = normal_modes(find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6)))
        theta = in_phase_theta(modes, 0.1)
        mid = 7
        assert theta[mid] == np.max(theta)
        assert theta[0] < theta[mid]
        assert theta[14] < theta[mid]
        b0 = modes.participation[:, 0]
        expected = b0**2 * b0.sum() ** 2 * 0.1
        assert np.allclose(theta, expected, rtol=1e-14)
