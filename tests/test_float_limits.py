"""Every entry point at the edge of the float range, in one table.

One row per case: an entry point called on an input where a float
overflows or underflows, and what it must give there, either the limit it
answers or the error it raises, of that exact type and message.  A command
row states its exit code, its stdout and its stderr: a limit exits 0 with
an empty stderr, an error exits 2 or 3 with nothing but its message on
stderr.  The pytest filters turn every RuntimeWarning into an error, so a
row also fails when its entry point warns on the way.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from ionchain import (
    GaussianBeam,
    fit_beam_profile,
    fit_rabi_trace,
    fit_theta_growth,
    fit_theta_power_law,
    gate_fidelity_bound,
    gate_fidelity_monte_carlo,
    gate_fidelity_vs_wait,
    rabi_trace,
    rabi_trace_monte_carlo,
)
from ionchain.cli import main
from ionchain.errors import FitError, InputError

OMEGA0 = 2 * math.pi * 50e3
HALF_PI = math.pi / 2  # arctan of an overflowing drive angle

SUM_OF_SQUARES = "the residuals' sum of squares is not a normal float; rescale the data"
RABI_ANGLE = "the sampled Rabi angle omega0 t (1 - theta . u) overflows"
GATE_ANGLE = "the sampled gate angle n_gates pi/2 (theta_i + theta_j) . u overflows"
CURVATURE = "the beam curvature ratio (4 s^2 - 2) / w^2 overflows"

X_UM = np.linspace(-2.0, 2.0, 21)
T_US = np.linspace(0.0, 100.0, 101)
TW_MS = np.arange(6.0)
F_KHZ = np.array([80.0, 106.0, 150.0, 200.0, 300.0, 400.0])
# recipe: (fit, CSV header, x in the fit command's units, their SI factor, y)
SCANS = {
    "beam": (fit_beam_profile, "x_um,signal", X_UM, 1.0, np.exp(-X_UM * X_UM / 0.8)),
    "rabi": (
        fit_rabi_trace, "t_us,p1", T_US, 1e-6, rabi_trace(OMEGA0, [0.05], T_US * 1e-6).p1,
    ),
    "theta-growth": (fit_theta_growth, "tw_ms,theta", TW_MS, 1e-3, 0.01 + 3e-3 * TW_MS),
    "power-law": (
        fit_theta_power_law, "freq_khz,rate_per_s", F_KHZ, 2e3 * math.pi,
        1e14 * (2e3 * math.pi * F_KHZ) ** -2.5 + 1.0,
    ),
}


def bound_and_slope(joint, n_gates):
    """(F_bound, F_err) of the gate table at theta_i + theta_j = ``joint``,
    with no SPAM, sigma (1, 0) and a wait of 1 s, so F_err = |dF/dtheta|."""
    row = gate_fidelity_vs_wait((joint, 0.0), (0.0, 0.0), (1.0, 0.0), [1.0], n_gates)[0]
    return row[0], row[2]


def scaled(recipe, scale, noise):
    """The recipe's scan with y times ``scale``, under seeded relative noise."""
    _, _, x, _, y = SCANS[recipe]
    return x, scale * y * (1.0 + noise * np.random.default_rng(1).normal(size=y.size))


def fit(recipe, scale, noise=0.01):
    def call(tmp):
        fit_fn, _, x, si, _ = SCANS[recipe]
        return fit_fn(si * x, scaled(recipe, scale, noise)[1])

    return call


def command(argv, text):
    """Run ``ionchain argv`` in process, with ``text`` saved to the file that
    ``{file}`` in the argv names: (exit code, stdout, stderr)."""

    def call(tmp):
        path = tmp / "input"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if a == "{file}" else a for a in argv])
        return code, out.getvalue(), err.getvalue()

    return call


def fit_command(recipe, scale, noise=0.01):
    x, y = scaled(recipe, scale, noise)
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    return command(["fit", recipe, "{file}"], SCANS[recipe][1] + "\n" + rows)


def rabi_config(theta):
    return (
        "rabi:\n  drive_khz: 50.0\n  t_max_us: 2.0\n  n_points: 3\n  n_samples: 1000\n"
        f"  theta: [{theta}]\n"
    )


def beam_config(waist_nm="870.0", center_um="0.0", x_max_um="1.5", section="scan"):
    """One harmonic ion in a Gaussian beam, with a 3-point theta scan or a
    3-point Rabi trace whose theta the pipeline derives."""
    last = (
        f"scan:\n  x_min_um: -1.5\n  x_max_um: {x_max_um}\n  n_points: 3\n"
        if section == "scan"
        else "rabi:\n  drive_khz: 50.0\n  t_max_us: 2.0\n  n_points: 3\n"
    )
    return (
        "species:\n  label: 171Yb+\npotential:\n  kind: harmonic\n  axial_freq_khz: 140.0\n"
        f"  n_ions: 1\nbeam:\n  kind: gaussian\n  waist_nm: {waist_nm}\n"
        f"  center_um: {center_um}\nthermal:\n  nbar: 280.0\n" + last
    )


def trace(result):
    return result.p1.tolist(), result.contrast.tolist(), result.phase.tolist()


# a = theta Omega0 t overflows at every t > 0: p1 1/2, contrast 0, phase pi/2
RABI_LIMIT_CSV = (
    "t_us,p1,contrast,phase_rad\n0,0,1,0\n1,0.5,0,1.57079632679\n2,0.5,0,1.57079632679\n"
)

# id: (call taking the test's tmp_path, the value it returns or the error it raises)
ROWS = {
    # theta Omega0 overflows: a zero drive time is still no drive
    "rabi_trace_rate_overflows": (
        lambda tmp: trace(rabi_trace(OMEGA0, [1e305], [0.0, 1e-6])),
        ([0.0, 0.5], [1.0, 0.0], [0.0, HALF_PI]),
    ),
    # a is finite but a^2 overflows: the factor is its limit 0
    "rabi_trace_angle_squared_overflows": (
        lambda tmp: trace(rabi_trace(OMEGA0, [1e160], [0.0, 1e-6])),
        ([0.0, 0.5], [1.0, 0.0], [0.0, HALF_PI]),
    ),
    # (n_gates pi/2 theta)^2 overflows: the contrast is exactly 0
    "bound_angle_squared_overflows": (lambda tmp: gate_fidelity_bound([1e-3], [0.0], 10**200), 0.5),
    "bound_angle_squared_overflows_numpy_theta": (
        lambda tmp: gate_fidelity_bound([np.float64(-0.2)], [0.0], 10**200), 0.5,
    ),
    "bound_joint_theta_overflows": (lambda tmp: gate_fidelity_bound([1e308], [1e308], 1), 0.5),
    "bound_angle_overflows": (lambda tmp: gate_fidelity_bound([1e300], [0.0], 10**10), 0.5),
    # the same in the gate table, whose slope, so F_err, is then 0, not nan
    "slope_angle_squared_overflows": (lambda tmp: bound_and_slope(1e-3, 10**200), (0.5, 0.0)),
    "slope_angle_squared_overflows_numpy_theta": (
        lambda tmp: bound_and_slope(np.float64(-0.2), 10**200), (0.5, 0.0),
    ),
    "slope_angle_overflows": (lambda tmp: bound_and_slope(1e300, 10**10), (0.5, 0.0)),
    "gate_oracle_joint_theta_overflows": (
        lambda tmp: gate_fidelity_monte_carlo([1e308], [1e308], 1, 1000), InputError(GATE_ANGLE),
    ),
    "gate_oracle_angle_overflows": (
        lambda tmp: gate_fidelity_monte_carlo([1e300], [0.0], 10**10, 1000), InputError(GATE_ANGLE),
    ),
    "rabi_oracle_angle_overflows": (
        lambda tmp: rabi_trace_monte_carlo(OMEGA0, [1e308], [0.0, 1e-6], 1000),
        InputError(RABI_ANGLE),
    ),
    # equispaced times: the step's half angle is finite and the last one's
    # overflows, where the recurrence past the first two times stays finite
    "rabi_oracle_progression_last_angle_overflows": (
        lambda tmp: rabi_trace_monte_carlo(1e300, [-0.05], np.linspace(0.0, 3e8, 5), 1000),
        InputError(RABI_ANGLE),
    ),
    # a scalar drive time is a one-point trace
    "rabi_trace_scalar_time_rate_overflows": (
        lambda tmp: trace(rabi_trace(OMEGA0, [1e305], 1e-6)), ([0.5], [0.0], [HALF_PI]),
    ),
    "rabi_oracle_scalar_time_angle_overflows": (
        lambda tmp: rabi_trace_monte_carlo(OMEGA0, [1e308], 1e-6, 1000), InputError(RABI_ANGLE),
    ),
    # the Gaussian beam's curvature ratio (4 s^2 - 2) / w^2: an underflow is 0,
    # an overflow of s^2 or of the ratio is refused
    "curvature_ratio_underflows": (
        lambda tmp: GaussianBeam(1.0, 0.0, 1e291).curvature_ratio(0.0), 0.0,
    ),
    "curvature_ratio_offset_overflows": (
        lambda tmp: GaussianBeam(1.0, 1e300, 1e-6).curvature_ratio(0.0), InputError(CURVATURE),
    ),
    "curvature_ratio_waist_squared_underflows": (
        lambda tmp: GaussianBeam(1.0, 0.0, 1e-309).curvature_ratio(0.0), InputError(CURVATURE),
    ),
    "theta_scan_command_curvature_underflows": (
        command(["theta-scan", "--config", "{file}"], beam_config(waist_nm="1.0e+300")),
        (0, "x_um,theta\n-1.5,0\n0,0\n1.5,0\n", ""),
    ),
    **{
        f"theta_scan_command_{how}": (
            command(["theta-scan", "--config", "{file}"], beam_config(**change)),
            (2, "", f"ionchain theta-scan: input error: {CURVATURE}\n"),
        )
        for how, change in (
            ("center_overflows", {"center_um": "1.0e+300"}),
            ("waist_underflows", {"waist_nm": "1.0e-300"}),
            ("position_overflows", {"x_max_um": "1.0e+300"}),
        )
    },
    "rabi_command_curvature_overflows": (
        command(["rabi", "--config", "{file}"], beam_config(center_um="1.0e+300", section="rabi")),
        (2, "", f"ionchain rabi: input error: {CURVATURE}\n"),
    ),
    # the squared residuals overflow, or underflow while the residuals do not
    "fit_beam_overflows": (fit("beam", 1e200, noise=0.0), FitError(SUM_OF_SQUARES)),
    "fit_beam_underflows": (fit("beam", 1e-200), FitError(SUM_OF_SQUARES)),
    "fit_rabi_overflows": (fit("rabi", 1e200), FitError(SUM_OF_SQUARES)),
    "fit_theta_growth_overflows": (fit("theta-growth", 1e200), FitError(SUM_OF_SQUARES)),
    "fit_theta_growth_underflows": (fit("theta-growth", 1e-200), FitError(SUM_OF_SQUARES)),
    "fit_power_law_overflows": (fit("power-law", 1e200), FitError(SUM_OF_SQUARES)),
    "fit_power_law_underflows": (fit("power-law", 1e-200), FitError(SUM_OF_SQUARES)),
    "rabi_command_rate_overflows": (
        command(["rabi", "--config", "{file}"], rabi_config("1.0e+305")), (0, RABI_LIMIT_CSV, ""),
    ),
    "rabi_command_angle_squared_overflows": (
        command(["rabi", "--config", "{file}"], rabi_config("1.0e+160")), (0, RABI_LIMIT_CSV, ""),
    ),
    "rabi_command_oracle_angle_overflows": (
        command(["rabi", "--mc", "--config", "{file}"], rabi_config("1.0e+308")),
        (2, "", f"ionchain rabi: input error: {RABI_ANGLE}\n"),
    ),
    **{
        f"fit_{recipe}_command_{how}": (
            fit_command(recipe, scale, noise),
            (3, "", f"ionchain fit: numerical error: {SUM_OF_SQUARES}\n"),
        )
        for recipe, how, scale, noise in (
            ("beam", "overflows", 1e200, 0.0),
            ("beam", "underflows", 1e-200, 0.01),
            ("rabi", "overflows", 1e200, 0.01),
            ("theta-growth", "overflows", 1e200, 0.01),
            ("power-law", "overflows", 1e200, 0.01),
        )
    },
}


@pytest.mark.parametrize("call, expected", ROWS.values(), ids=ROWS.keys())
def test_float_limit(tmp_path, call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as excinfo:
            call(tmp_path)
        assert (type(excinfo.value), str(excinfo.value)) == (type(expected), str(expected))
    else:
        assert call(tmp_path) == expected
