import math
import threading
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
    gate_fidelity_bound,
    gate_fidelity_monte_carlo,
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


FINITE_DRIVE = {"omega0": 2 * np.pi * 50e3, "theta": 0.03, "time": 2e-5}
# each trace or gate function of (Omega0, theta, time), with the ones it uses
DRIVE_CALLS = {
    "rabi_trace": (
        lambda w, th, t: rabi_trace(w, [0.02, th], [0.0, t]),
        ("omega0", "theta", "time"),
    ),
    "rabi_trace_monte_carlo": (
        lambda w, th, t: rabi_trace_monte_carlo(w, [0.02, th], [0.0, t], 100),
        ("omega0", "theta", "time"),
    ),
    "gate_fidelity_bound": (
        lambda w, th, t: gate_fidelity_bound([0.02, th], [0.01, 0.04]),
        ("theta",),
    ),
    "gate_fidelity_monte_carlo": (
        lambda w, th, t: gate_fidelity_monte_carlo([0.01, 0.03], [th, 0.02], 2, 100),
        ("theta",),
    ),
}
DRIVE_MESSAGES = {
    "omega0": "Rabi frequency must be finite, got {}",
    "theta": "decay parameters must be finite",
    "time": "drive times must be finite and >= 0",
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "function, argument",
    [(f, a) for f, (_, used) in DRIVE_CALLS.items() for a in used],
)
def test_non_finite_drive_rejected(function, argument, value):
    call = DRIVE_CALLS[function][0]
    call(*FINITE_DRIVE.values())  # the finite arguments pass
    with pytest.raises(InputError) as excinfo:
        call(*dict(FINITE_DRIVE, **{argument: value}).values())
    assert str(excinfo.value) == DRIVE_MESSAGES[argument].format(value)


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
        times = np.sort(np.append(0.0, rng.uniform(0.0, 300e-6, n_times - 1)))  # t = 0 too
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

    def test_numpy_integer_counts_and_seeds_are_read_as_ints(self):
        omega0 = 2 * np.pi * 50e3
        t = np.linspace(0.0, 60e-6, 13)
        a = rabi_trace_monte_carlo(omega0, [0.07], t, n_samples=2000, seed=42)
        b = rabi_trace_monte_carlo(omega0, [0.07], t, np.int32(2000), np.uint64(42))
        assert np.array_equal(a.p1, b.p1)
        assert np.array_equal(a.stderr, b.stderr)

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

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_an_overflowing_time_raises_wherever_it_stands(self, position):
        # unequal times take the direct rows
        times = np.array([3e-5, 1e-5, 0.0, 7e-5, 2e-5])
        times[position] = 1e305
        assert decoherence._progression_step(times) is None
        with pytest.raises(InputError, match="overflows"):
            rabi_trace_monte_carlo(2 * np.pi * 50e3, [0.05], times, 1000)

    @pytest.mark.parametrize("t", [0.0, 1e-6, 0.01])
    @pytest.mark.parametrize("oracle", [False, True], ids=["closed_form", "monte_carlo"])
    def test_scalar_time_is_a_one_point_trace(self, oracle, t):
        omega0, thetas = 3e5, [0.01, -0.02]
        if oracle:
            scalar = rabi_trace_monte_carlo(omega0, thetas, t, 100, seed=2)
            array = rabi_trace_monte_carlo(omega0, thetas, [t], 100, seed=2)
        else:
            scalar, array = rabi_trace(omega0, thetas, t), rabi_trace(omega0, thetas, [t])
        for got, want in zip(vars(scalar).values(), vars(array).values()):
            assert got.shape == (1,)
            assert np.array_equal(got, want)


CHUNK = decoherence._CHUNK
# sample counts one below, one above and five past three chunks
CHUNK_EDGES = [CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5]
UNIT_ROUNDOFF = 2.0**-53


def serial_rabi_monte_carlo(omega0, thetas, times, n_samples, seed):
    """The Monte-Carlo loop over drive times, one time at a time over the
    whole sample row, with the oracle's per-sample values: sin^2 x as
    1 / (1 + 1 / tan^2 x), mean and std(ddof=1) by numpy."""
    times = np.asarray(times, dtype=float)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    u = np.empty((len(thetas), n_samples))
    for m in range(len(thetas)):
        u[m] = np.random.default_rng([seed, m]).exponential(1.0, n_samples)
    factor = 1.0 - thetas @ u
    p1 = np.empty_like(times)
    stderr = np.empty_like(times)
    for k, t in enumerate(times):
        with np.errstate(divide="ignore", over="ignore"):  # x = 0: 1 / 0, then 0
            values = 1.0 / (1.0 + 1.0 / np.tan(0.5 * omega0 * t * factor) ** 2)
        p1[k] = values.mean()
        stderr[k] = values.std(ddof=1) / math.sqrt(n_samples) if n_samples > 1 else 0.0
    return p1, stderr


class TestSerialMonteCarlo:
    @pytest.mark.parametrize("n_samples", [2, 100_000])
    @pytest.mark.parametrize("n_times", [1, 2, 51])
    @pytest.mark.parametrize("thetas", [[0.04], [0.08, -0.03, 0.02]])
    def test_within_summation_order_of_serial_loop(self, thetas, n_times, n_samples):
        """Both sides sum the same per-sample values v in [0, 1], in another
        order: the oracle by chunks of 2^14 merged by Chan, Golub & LeVeque,
        the serial loop by numpy over the whole row.  A sum of nonnegative
        terms whose tree is D additions deep is within D u of the exact sum
        (u = 2^-53).  numpy's pairwise sum is at most 26 + ceil(log2(n / 128))
        deep and the oracle adds one merge per chunk to its chunk sums, so at
        n <= 1e5 each sum is at most 48 deep: with the divisions, the p1
        differ by at most 100 u p1.  The centred sums of squares Q carry the
        same relative error, but the oracle's are dot products of up to 2^14
        terms in BLAS's order (at most 2^14 - 1 deep): (2^14 + 64) u in all,
        half that on the standard error.  Each mean that centres the values
        (the serial mean, a chunk mean, a merge's difference of means) errs
        by at most 96 u, and an offset e of the centre moves sqrt(Q) by at
        most sqrt(n) e, the standard error by e / sqrt(n - 1): three such
        offsets stay below 300 u / sqrt(n - 1)."""
        # unsorted drive times, t = 0 among them once there are two or more
        times = np.random.default_rng(n_times).uniform(0.0, 1e-4, n_times)
        if n_times > 1:
            times[n_times // 2] = 0.0
        assert decoherence._progression_step(times) is None
        omega0 = 2 * np.pi * 50e3
        p1, stderr = serial_rabi_monte_carlo(omega0, thetas, times, n_samples, seed=3)
        mc = rabi_trace_monte_carlo(omega0, thetas, times, n_samples, seed=3)
        assert np.all(np.abs(mc.p1 - p1) <= 100 * UNIT_ROUNDOFF * p1)
        bound = UNIT_ROUNDOFF * ((2**13 + 40) * stderr + 300 / math.sqrt(n_samples - 1))
        assert np.all(np.abs(mc.stderr - stderr) <= bound)

    @pytest.mark.parametrize("n_samples", [2, *CHUNK_EDGES])
    def test_each_unequal_time_is_bit_identical_to_its_own_run(self, n_samples):
        omega0, thetas = 2 * np.pi * 50e3, [0.05, -0.02]
        times = np.random.default_rng(5).uniform(0.0, 1e-4, 9)
        times[4] = 0.0
        assert decoherence._progression_step(times) is None
        mc = rabi_trace_monte_carlo(omega0, thetas, times, n_samples, seed=8)
        for k, t in enumerate(times):
            own = rabi_trace_monte_carlo(omega0, thetas, [t], n_samples, seed=8)
            assert np.array_equal([mc.p1[k], mc.stderr[k]], [own.p1[0], own.stderr[0]])

    def test_starts_no_thread(self, monkeypatch):
        # numpy itself imports threading, so only a refused start shows a thread
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        omega0, thetas = 2 * np.pi * 50e3, [0.05, 0.02]
        progression = np.linspace(0.0, 1e-4, 51)
        assert decoherence._progression_step(progression) is not None
        rabi_trace_monte_carlo(omega0, thetas, progression, 1000)
        rabi_trace_monte_carlo(omega0, thetas, progression[::-1], 1000)
        gate_fidelity_monte_carlo(thetas, thetas, 3, 1000)


class TestProgressionRecurrence:
    """Equispaced drive times take the recurrence of _chunk_rows."""

    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(
        step=st.floats(1e-4, 2.0),
        offset=st.floats(1e-3, 1e3),
        theta=st.floats(-0.3, 0.3),
        n_times=st.integers(3, 4001),
        n_samples=st.sampled_from(CHUNK_EDGES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_within_their_bound_of_direct_sin_squared(
        self, step, offset, theta, n_times, n_samples, seed
    ):
        """Per sample, against sin^2 of the kernel's own float angle x_k (in
        long double), a row m = k mod _RESEED steps past its directly
        evaluated pair is within u ((2m + 1)(16 + 22 |x|) + 20 m^2) (the
        derivation is in _chunk_rows' docstring), plus 4 u for the reference
        itself where long double is double.  The times start ``offset``
        steps past 0, where np.linspace's step drifts from t_1 - t_0."""
        omega0 = 2 * np.pi * 50e3
        t0 = offset * step / omega0
        times = np.linspace(t0, t0 + (n_times - 1) * step / omega0, n_times)
        dt = decoherence._progression_step(times)
        assert dt is not None
        factor = 1.0 - theta * decoherence._mode_energy_samples(1, n_samples, seed)[0]
        half_angles = [0.5 * omega0 * t for t in times.tolist()]
        m = (np.arange(n_times) % decoherence._RESEED)[:, None]
        for start in range(0, n_samples, CHUNK):
            f = factor[start : start + CHUNK]
            buffers = np.empty((5, len(f)))
            rows = decoherence._chunk_rows(half_angles, 0.5 * omega0 * dt, f, buffers)
            # the chunk's edges and every 97th sample between them
            cols = np.unique(np.r_[0:3, -3:0, 0 : len(f) : 97] % len(f))
            got = np.array([row[cols] for row in rows])
            x = np.multiply.outer(half_angles, f[cols])
            exact = np.sin(x.astype(np.longdouble)) ** 2
            bound = UNIT_ROUNDOFF * ((2 * m + 1) * (16 + 22 * np.abs(x).max()) + 20 * m * m + 4)
            assert np.all(np.abs(got - exact) <= bound)

    @pytest.mark.parametrize("n_prefix", [3, 64, 65, 66, 130])
    def test_prefix_is_bit_identical_to_its_own_run(self, n_prefix):
        omega0, thetas, n_samples = 2 * np.pi * 50e3, [0.05, -0.02], 3 * CHUNK + 5
        times = np.linspace(0.0, 200e-6, 201)
        full = rabi_trace_monte_carlo(omega0, thetas, times, n_samples, seed=4)
        part = rabi_trace_monte_carlo(omega0, thetas, times[:n_prefix], n_samples, seed=4)
        assert np.array_equal(part.p1, full.p1[:n_prefix])
        assert np.array_equal(part.stderr, full.stderr[:n_prefix])

    @pytest.mark.parametrize("theta", [0.0, 0.05, -0.3])
    @pytest.mark.parametrize("t_end", [200e-6, 1e-9, 3.0])
    def test_seed_rows_from_zero_are_the_direct_rows(self, theta, t_end):
        # a progression from t = 0 takes its first two rows from the chunk:
        # the zero row, and s_1 halved back from the recurrence's 2 s_1
        omega0 = 2 * np.pi * 50e3
        times = np.linspace(0.0, t_end, 5)
        half_step = 0.5 * omega0 * decoherence._progression_step(times)
        half_angles = [0.5 * omega0 * t for t in times.tolist()]
        f = 1.0 - theta * decoherence._mode_energy_samples(1, 1000, 3)[0]
        rows = decoherence._chunk_rows(half_angles, half_step, f, np.empty((5, len(f))))
        for k, row in zip(range(2), rows):
            direct = decoherence._sin_squared(half_angles[k], f, np.empty(len(f)))
            assert np.array_equal(row, direct)
            assert np.array_equal(np.signbit(row), np.signbit(direct))

    @pytest.mark.parametrize("n_samples", CHUNK_EDGES)
    @pytest.mark.parametrize("n_times", [3, 65, 201])
    def test_oracle_within_its_bound_of_one_time_runs(self, n_times, n_samples):
        """A progression's answer against each time run on its own, which is
        the direct kernel (K = 1 is no progression).  Per sample the two are
        within E_k = u ((2m + 1)(16 + 22 |x|) + 20 m^2 + 20) of each other:
        the recurrence's bound (see _chunk_rows) plus 16 u for the
        direct tan form and 4 u for the angle; each mean adds at most
        ceil(log2 n) <= 16 u of summation rounding on values in [0, 1].
        std(ddof=1) moves by at most E sqrt(n / (n - 1)) (triangle
        inequality on the centred rows), so the standard errors are within
        E / sqrt(n - 1), plus 64 u relative for the two variance sums."""
        omega0, thetas = 2 * np.pi * 50e3, [0.05, -0.02]
        times = np.linspace(0.0, 200e-6, n_times)
        assert decoherence._progression_step(times) is not None
        mc = rabi_trace_monte_carlo(omega0, thetas, times, n_samples, seed=6)
        single = [rabi_trace_monte_carlo(omega0, thetas, [t], n_samples, seed=6) for t in times]
        p1 = np.array([s.p1[0] for s in single])
        stderr = np.array([s.stderr[0] for s in single])
        factor = 1.0 - np.asarray(thetas) @ decoherence._mode_energy_samples(2, n_samples, 6)
        x_max = 0.5 * omega0 * times[-1] * np.abs(factor).max()
        m = np.arange(n_times) % decoherence._RESEED
        per_sample = UNIT_ROUNDOFF * ((2 * m + 1) * (16 + 22 * x_max) + 20 * m * m + 20)
        assert np.all(np.abs(mc.p1 - p1) <= per_sample + 32 * UNIT_ROUNDOFF)
        bound = per_sample / math.sqrt(n_samples - 1) + 64 * UNIT_ROUNDOFF * stderr
        assert np.all(np.abs(mc.stderr - stderr) <= bound)

    @pytest.mark.parametrize("n_times", [3, 64, 65, 66, 130])
    def test_only_the_last_angle_overflowing_raises(self, n_times):
        # every half angle but the last is finite, so the first K - 1 times
        # answer; past the re-seeds the recurrence itself would stay finite
        omega0, thetas, n_samples = 1e300, [-0.05], 1000
        factor = 1.0 - np.asarray(thetas) @ decoherence._mode_energy_samples(1, n_samples, 0)
        t_last = 1.001 * 2 * (np.finfo(float).max / (omega0 * factor.max()))
        times = np.linspace(0.0, t_last, n_times)
        assert decoherence._progression_step(times) is not None
        head = rabi_trace_monte_carlo(omega0, thetas, times[:-1], n_samples)
        assert np.isfinite(head.p1).all() and np.isfinite(head.stderr).all()
        with pytest.raises(InputError, match="overflows"):
            rabi_trace_monte_carlo(omega0, thetas, times, n_samples)

    @pytest.mark.parametrize(
        "times, expected",
        [
            (np.linspace(0.0, 1e-3, 51), 1e-3 / 50),
            (np.linspace(1e-5, 3e-4, 201), (3e-4 - 1e-5) / 200),
            (np.linspace(1e-5, 3e-4, 2001), (3e-4 - 1e-5) / 2000),
            (np.linspace(0.37, 2.9, 5001), (2.9 - 0.37) / 5000),
            (1e-6 * np.arange(100), 1e-6),
            (np.array([0.0, 1.0, 2.0]), 1.0),
            (np.r_[np.linspace(0.0, 1e-4, 50)[:-1], np.nextafter(1e-4, 1.0)], 1e-4 / 49),
            (np.array([0.0, 1.0]), None),
            (np.linspace(1e-3, 0.0, 51), None),
            (np.full(5, 1e-5), None),
            (np.r_[0.0, 1e-6, 2e-6, 3e-6 * (1 + 2**-48), 4e-6], None),
            (np.linspace(0.37, 2.9, 5001) * (1 + 1e-12 * (np.arange(5001) % 2)), None),
        ],
        ids=[
            "linspace_from_zero", "linspace_offset", "long_linspace_offset",
            "long_linspace_far_offset", "arange", "three_points", "last_point_one_ulp_up",
            "two_points", "falling", "constant", "one_point_off", "far_offset_jittered",
        ],
    )
    def test_progression_step(self, times, expected):
        dt = decoherence._progression_step(times)
        if expected is None:
            assert dt is None
        else:
            assert dt == times[1] - times[0]
            assert dt == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_samples", CHUNK_EDGES)
    def test_zero_theta_has_no_spread(self, n_samples):
        omega0 = 2 * np.pi * 50e3
        rising = np.linspace(0.0, 400e-6, 201)  # past three re-seeds
        shuffled = np.random.default_rng(1).permutation(rising)
        assert decoherence._progression_step(shuffled) is None
        for t in (rising, shuffled):
            mc = rabi_trace_monte_carlo(omega0, [0.0], t, n_samples, seed=1)
            assert np.allclose(mc.p1, np.sin(0.5 * omega0 * t) ** 2, atol=1e-14)
            assert np.all(mc.stderr < 1e-14)
            assert np.all(mc.p1[t == 0] == 0.0) and np.all(mc.stderr[t == 0] == 0.0)


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
    def test_estimate_within_its_angle_rounding_of_libm_estimate(self, thetas, seed):
        # Equispaced times take the recurrence, so the libm estimate sums its
        # chunks in the oracle's order and only the per-sample values differ.
        # The recurrence steps by the angle of dt, not by the rounded angle of
        # each t_k, so beyond 1e-15 the two differ by the rounding of the
        # angle, coherently where theta is small: at most 1.4 u x_max over 60
        # theta lists with |theta| <= 0.2, theta = 0 among them; 4 u x_max here.
        omega0, times, n_samples = 2 * np.pi * 50e3, np.linspace(0.0, 2e-4, 51), 100_000
        mc = rabi_trace_monte_carlo(omega0, thetas, times, n_samples, seed)
        factor = 1.0 - np.asarray(thetas) @ decoherence._mode_energy_samples(
            len(thetas), n_samples, seed
        )
        libm = np.zeros_like(times)
        for start in range(0, n_samples, CHUNK):
            values = np.sin(np.multiply.outer(0.5 * omega0 * times, factor[start : start + CHUNK]))
            libm += np.add.reduce(values * values, axis=1)
        libm /= n_samples
        x_max = 0.5 * omega0 * times[-1]
        assert np.max(np.abs(mc.p1 - libm)) <= 1e-15 + 4 * UNIT_ROUNDOFF * x_max
