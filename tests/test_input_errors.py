"""Every library input check that refuses a call, with its exact message.

One table row per check: the call, the error type it must raise (not a
subclass) and the message it must carry.  The CLI's config and input errors
are tabled in ``test_cli.py``.
"""

import math

import numpy as np
import pytest

from ionchain import (
    YB171,
    DataSeries,
    GaussianBeam,
    HarmonicPotential,
    IonSpecies,
    TabulatedBeam,
    ThermalState,
    decay_parameters,
    find_equilibrium,
    fit_least_squares,
    gate_fidelity_bound,
    gate_fidelity_monte_carlo,
    rabi_trace,
    rabi_trace_monte_carlo,
    single_ion_modes,
)
from ionchain.config import build_species, load_config
from ionchain.errors import ConfigError, DomainError, FitError, InputError
from ionchain.heating import NoiseModel, addressed_theta_rates, heating_rate_at, theta_rate_model

HARMONIC = HarmonicPotential(2 * math.pi * 1e5)
NOISE = NoiseModel(alpha=1.0, nbar_rate_ref=88.0, omega_ref=2 * math.pi * 3e6)
X = np.linspace(0.0, 1.0, 5)
LINE = ("slope", "intercept")
TIMES_SHAPE = "drive times must be a scalar or a 1-d array, got shape (1, 2)"
THETAS_SHAPE = "decay parameters must be a scalar or a 1-d array, got shape {}"


def line(p, x):
    return p[0] * x + p[1]


def line_jacobian(p, x):
    return np.column_stack([x, np.ones_like(x)])


def fit_line(
    model=line, jacobian=line_jacobian, guess=(1.0, 0.0), bounds=(-np.inf, np.inf), names=LINE
):
    return fit_least_squares(model, jacobian, DataSeries(X, X), guess, bounds, names)


def config_file(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


FREQUENCY = "frequency must be positive and finite"
CHARGE_TOO_LARGE = "ion charge is too large: q^2/(4 pi eps0) overflows"
SIGMA_RANGE = "sigma values must lie where 1/sigma^2 is a normal float"
GATE_COUNT_TOO_LARGE = "gate count is too large: n_gates pi/2 overflows"

# id: (call taking the test's tmp_path, error type, message)
CASES = {
    "chain_without_ion_count": (
        lambda tmp: find_equilibrium(YB171, HARMONIC),
        InputError, "n_ions is required for this potential",
    ),
    "chain_of_zero_ions": (
        lambda tmp: find_equilibrium(YB171, HARMONIC, 0),
        InputError, "need at least one ion, got 0",
    ),
    "charge_nan": (
        lambda tmp: IonSpecies(YB171.mass, charge=math.nan),
        InputError, "ion charge must be an integer >= 1, got nan",
    ),
    "charge_fraction": (
        lambda tmp: IonSpecies(YB171.mass, charge=1.5),
        InputError, "ion charge must be an integer >= 1, got 1.5",
    ),
    "charge_bool": (
        lambda tmp: IonSpecies(YB171.mass, charge=True),
        InputError, "ion charge must be an integer >= 1, got True",
    ),
    # q = 1.6e181 C is a float, but q^2 is not
    "charge_squared_overflows": (
        lambda tmp: IonSpecies(YB171.mass, charge=10**200), InputError, CHARGE_TOO_LARGE,
    ),
    # int * float raises OverflowError before any square is taken
    "charge_beyond_float": (
        lambda tmp: IonSpecies(YB171.mass, charge=10**400), InputError, CHARGE_TOO_LARGE,
    ),
    "tabulated_beam_shape": (
        lambda tmp: TabulatedBeam([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
        InputError, "x and rabi samples must be 1-d arrays of equal length",
    ),
    # the spline passes through the knot's sample exactly
    "curvature_at_dark_knot": (
        lambda tmp: TabulatedBeam([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 0.0, 1.0, 1.0])
        .curvature_ratio(2.0),
        DomainError, "curvature ratio undefined where Omega(x) = 0",
    ),
    "occupancy_count": (
        lambda tmp: decay_parameters(
            single_ion_modes(YB171, 2 * math.pi * 1e5), ThermalState(np.array([280.0, 280.0])),
            {0: GaussianBeam(peak_rabi=1e5, center=0.0, waist=1e-6)}, [0.0],
        ),
        InputError, "expected 1 occupancies, got 2",
    ),
    "rabi_trace_times_2d": (
        lambda tmp: rabi_trace(1e5, [0.1], [[0.0, 1e-5]]), InputError, TIMES_SHAPE,
    ),
    "rabi_oracle_times_2d": (
        lambda tmp: rabi_trace_monte_carlo(1e5, [0.1], [[0.0, 1e-5]], 100),
        InputError, TIMES_SHAPE,
    ),
    "rabi_trace_thetas_2d": (
        lambda tmp: rabi_trace(3e5, [[0.05, 0.01]], [0.0, 1e-6]),
        InputError, THETAS_SHAPE.format((1, 2)),
    ),
    "rabi_oracle_thetas_2d": (
        lambda tmp: rabi_trace_monte_carlo(3e5, [[0.05]], [0.0, 1e-6, 2e-6], 10),
        InputError, THETAS_SHAPE.format((1, 1)),
    ),
    "rabi_oracle_without_samples": (
        lambda tmp: rabi_trace_monte_carlo(1e5, [0.1], [0.0, 1e-5], n_samples=0),
        InputError, "n_samples must be >= 1",
    ),
    # a float count or seed is refused before numpy sees it
    "rabi_oracle_float_samples": (
        lambda tmp: rabi_trace_monte_carlo(1e5, [0.1], [0.0, 1e-5], n_samples=1e5),
        InputError, "n_samples must be an integer, got 100000.0",
    ),
    "rabi_oracle_float_seed": (
        lambda tmp: rabi_trace_monte_carlo(1e5, [0.1], [0.0, 1e-5], 100, seed=1.5),
        InputError, "seed must be an integer, got 1.5",
    ),
    "rabi_oracle_negative_seed": (
        lambda tmp: rabi_trace_monte_carlo(1e5, [0.1], [0.0, 1e-5], 100, seed=-1),
        InputError, "seed must be >= 0",
    ),
    "sigma_length": (
        lambda tmp: DataSeries(X, X, np.ones(4)), InputError, "sigma must match the data length",
    ),
    # 1/sigma^2 above the largest float, and below the smallest normal one
    "sigma_weight_overflows": (
        lambda tmp: DataSeries(X, X, np.full(5, 7e-155)), InputError, SIGMA_RANGE,
    ),
    "sigma_weight_subnormal": (
        lambda tmp: DataSeries(X, X, np.full(5, 6.8e153)), InputError, SIGMA_RANGE,
    ),
    "fit_parameter_names": (
        lambda tmp: fit_line(names=("slope",)),
        InputError, "param_names must match the number of parameters",
    ),
    "fit_bounds_shape": (
        lambda tmp: fit_line(bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])),
        InputError, "bounds must be (lower, upper), one value per parameter",
    ),
    "fit_guess_outside_bounds": (
        lambda tmp: fit_line(guess=(2.0, 0.0), bounds=([0.0, -np.inf], [1.0, np.inf])),
        InputError, "initial guess violates the bounds",
    ),
    "fit_model_not_finite_at_guess": (
        lambda tmp: fit_line(model=lambda p, x: np.full_like(x, np.nan)),
        FitError, "model is not finite at the initial guess",
    ),
    # a Jacobian with one column too many: one row per point, one column per parameter
    "fit_jacobian_shape": (
        lambda tmp: fit_line(jacobian=lambda p, x: np.ones((len(x), 3))),
        InputError, "Jacobian has shape (5, 3) at the initial guess, but the fit needs (5, 2)",
    ),
    "fit_jacobian_not_finite_at_guess": (
        lambda tmp: fit_line(jacobian=lambda p, x: np.full((len(x), 2), np.inf)),
        FitError, "Jacobian is not finite at the initial guess",
    ),
    "gate_count": (
        lambda tmp: gate_fidelity_bound([0.1], [0.1], n_gates=0),
        InputError, "gate count must be >= 1, got 0",
    ),
    # the count converts to a float, but n_gates pi/2 does not
    "gate_angle_overflows": (
        lambda tmp: gate_fidelity_bound([0.1], [0.1], n_gates=10**308),
        InputError, GATE_COUNT_TOO_LARGE,
    ),
    # the count itself does not fit in a float
    "gate_count_overflows": (
        lambda tmp: gate_fidelity_monte_carlo([0.1], [0.1], n_gates=10**320),
        InputError, GATE_COUNT_TOO_LARGE,
    ),
    # both lists hold two entries, but in different shapes
    "gate_theta_shapes": (
        lambda tmp: gate_fidelity_bound([[0.1, 0.2]], [0.1, 0.2]),
        InputError, "theta lists must have equal shapes, got (1, 2) and (2,)",
    ),
    "gate_theta_lengths": (
        lambda tmp: gate_fidelity_monte_carlo([0.1, 0.2], [0.1], n_samples=10),
        InputError, "theta lists must have equal shapes, got (2,) and (1,)",
    ),
    "gate_oracle_samples": (
        lambda tmp: gate_fidelity_monte_carlo([0.1], [0.1], n_samples=1),
        InputError, "n_samples must be >= 2",
    ),
    "gate_oracle_float_samples": (
        lambda tmp: gate_fidelity_monte_carlo([0.1], [0.1], n_samples=1e5),
        InputError, "n_samples must be an integer, got 100000.0",
    ),
    "gate_oracle_string_seed": (
        lambda tmp: gate_fidelity_monte_carlo([0.1], [0.1], n_samples=10, seed="7"),
        InputError, "seed must be an integer, got '7'",
    ),
    "gate_oracle_negative_seed": (
        lambda tmp: gate_fidelity_monte_carlo([0.1], [0.1], n_samples=10, seed=-1),
        InputError, "seed must be >= 0",
    ),
    # a tabulated beam cannot be re-centred on each addressed ion
    "addressed_rates_tabulated_beam": (
        lambda tmp: addressed_theta_rates(
            NOISE, single_ion_modes(YB171, 2 * math.pi * 1e5), [0.0],
            TabulatedBeam(X - 0.5, np.ones(5)), [0],
        ),
        InputError, "addressed theta rates need a gaussian beam to centre on each ion",
    ),
    # an addressed ion beyond the last position
    "addressed_rates_ion_outside_chain": (
        lambda tmp: addressed_theta_rates(
            NOISE, single_ion_modes(YB171, 2 * math.pi * 1e5), [0.0],
            GaussianBeam(1.0, 0.0, 1e-6), [0, 1],
        ),
        InputError, "addressed ion 1 is outside 0..0",
    ),
    "heating_rate_at_nan": (lambda tmp: heating_rate_at(NOISE, math.nan), InputError, FREQUENCY),
    "heating_rate_at_inf": (lambda tmp: heating_rate_at(NOISE, math.inf), InputError, FREQUENCY),
    "heating_rate_at_zero": (lambda tmp: heating_rate_at(NOISE, 0.0), InputError, FREQUENCY),
    "rate_model_at_inf": (
        lambda tmp: theta_rate_model(math.inf, 1.0, 1.0, 0.5), InputError, FREQUENCY,
    ),
    "rate_model_at_minus_inf": (
        lambda tmp: theta_rate_model(np.array([1e6, -math.inf]), 1.0, 1.0, 0.5),
        InputError, FREQUENCY,
    ),
    "config_unknown_key": (
        lambda tmp: config_file(tmp, "species:\n  label: 171Yb+\nbogus: 1\n"),
        ConfigError, "unknown key(s) in config: bogus",
    ),
    # an empty file is an empty config, so the first section read fails
    "config_empty_file": (
        lambda tmp: build_species(config_file(tmp, "")),
        ConfigError, "command requires a 'species' section in the config",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_error_type_and_message(tmp_path, call, error, message):
    with pytest.raises(error) as excinfo:
        call(tmp_path)
    assert (type(excinfo.value), str(excinfo.value)) == (error, message)
