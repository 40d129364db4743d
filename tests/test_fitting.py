import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionchain import (
    DataSeries,
    fit_beam_profile,
    fit_least_squares,
    fit_rabi_trace,
    fit_theta_growth,
    fit_theta_power_law,
)
from ionchain import fitting
from ionchain.fitting import (
    damped_rabi_jacobian,
    damped_rabi_model,
    gaussian_beam_jacobian,
    gaussian_beam_model,
    power_law_jacobian,
)
from ionchain.heating import theta_rate_model
from ionchain.errors import FitError, InputError

UNBOUNDED = (-np.inf, np.inf)  # broadcast to every parameter
LINE = ("slope", "intercept")


def line(p, xx):
    return p[0] * xx + p[1]


def line_jacobian(p, xx):
    return np.column_stack([xx, np.ones_like(xx)])


def quadratic(p, xx):
    return p[0] * xx**2 + p[1] * xx + p[2]


def quadratic_jacobian(p, xx):
    return np.column_stack([xx**2, xx, np.ones_like(xx)])


class TestCore:
    def test_noiseless_line_recovered_exactly(self):
        x = np.linspace(0.0, 5.0, 9)
        y = 0.7 * x - 1.3
        result = fit_least_squares(
            line, line_jacobian, DataSeries(x, y), [1.0, 0.0], UNBOUNDED, LINE
        )
        assert result.params == pytest.approx([0.7, -1.3], abs=1e-9)

    def test_noisy_quadratic_within_three_sigma(self, rng):
        x = np.linspace(-2.0, 2.0, 41)
        truth = np.array([0.8, -0.4, 1.1])
        y = truth[0] * x**2 + truth[1] * x + truth[2] + rng.normal(0, 0.01, x.size)
        result = fit_least_squares(
            quadratic,
            quadratic_jacobian,
            DataSeries(x, y, np.full(x.size, 0.01)),
            [1.0, 0.0, 1.0],
            UNBOUNDED,
            ("a", "b", "c"),
        )
        assert np.all(np.abs(result.params - truth) < 3.0 * result.uncertainties)
        assert 0.3 < result.reduced_chisq < 2.5

    def test_underdetermined_rejected(self):
        with pytest.raises(FitError):
            fit_least_squares(
                line,
                line_jacobian,
                DataSeries(np.array([1.0]), np.array([2.0])),
                [1.0, 0.0],
                UNBOUNDED,
                LINE,
            )

    def test_the_guess_is_evaluated_once(self):
        # the shape checks' evaluations are the solve's starting residual and
        # first Jacobian: the model runs once per counted evaluation, and
        # neither it nor the Jacobian runs twice at the guess
        calls, jacobians = [], []

        def model(p, xx):
            calls.append(p.copy())
            return p[0] * xx**2 + p[1]

        def jacobian(p, xx):
            jacobians.append(p.copy())
            return np.column_stack([xx**2, np.ones_like(xx)])

        x = np.linspace(-1.0, 1.0, 11)
        guess = [1.0, 0.0]
        result = fit_least_squares(
            model, jacobian, DataSeries(x, 0.3 * x**2 + 0.2), guess, UNBOUNDED, LINE
        )
        assert len(calls) == result.n_iterations
        assert sum(np.array_equal(p, guess) for p in calls) == 1
        assert sum(np.array_equal(p, guess) for p in jacobians) == 1
        assert result.params == pytest.approx([0.3, 0.2], abs=1e-12)

    def test_model_shape_mismatch_names_both_shapes(self):
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(InputError, match=r"\(5,\).*\(10,\)"):
            fit_least_squares(
                lambda p, xx: p[0] * xx[:5], lambda p, xx: xx[:5, None], DataSeries(x, x), [1.0],
                UNBOUNDED, ("a",),
            )

    def test_every_start_raising_chains_the_cause(self):
        # the model accepts the guess check, then raises on every later call
        x = np.linspace(0.0, 1.0, 10)
        calls = []

        def model(p, xx):
            calls.append(1)
            if len(calls) > 1:
                raise ValueError("model left its domain")
            return p[0] * xx + p[1]

        with pytest.raises(FitError, match="ValueError: model left its domain") as excinfo:
            fit_least_squares(model, line_jacobian, DataSeries(x, x), [1.0, 0.0], UNBOUNDED, LINE)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_running_out_of_evaluations_raises_unwrapped(self, monkeypatch, rng):
        # the solve's own FitError reaches the caller as it was raised
        solve = fitting._levenberg_marquardt
        monkeypatch.setattr(
            fitting, "_levenberg_marquardt", lambda *args: solve(*args[:-1], 3)
        )
        x = np.linspace(-2.0, 2.0, 41)
        y = 0.8 * x**2 - 0.4 * x + rng.normal(0, 0.01, x.size)
        with pytest.raises(FitError) as excinfo:
            fit_least_squares(
                lambda p, xx: p[0] * xx**2 + p[1] * xx,
                lambda p, xx: np.column_stack([xx**2, xx]),
                DataSeries(x, y), [0.0, 0.0], UNBOUNDED, LINE,
            )
        assert str(excinfo.value) == "least-squares fit did not converge"
        assert excinfo.value.__cause__ is None and excinfo.value.__context__ is None

    def test_overflowing_start_residuals_raise_unwrapped(self):
        x = np.ones(4)
        with pytest.raises(FitError) as excinfo, np.errstate(over="ignore"):
            fit_least_squares(
                lambda p, xx: p[0] * xx, lambda p, xx: xx[:, None], DataSeries(x, -1e308 * x),
                [1e308], UNBOUNDED, ("a",),
            )
        assert str(excinfo.value) == "residuals are not finite at the start"
        assert excinfo.value.__cause__ is None

    def test_empty_bound_interval_rejected_up_front(self):
        x = np.linspace(0.0, 1.0, 10)
        calls = []

        def model(p, xx):
            calls.append(1)
            return p[0] * xx + p[1]

        def jacobian(p, xx):
            calls.append(1)
            return line_jacobian(p, xx)

        with pytest.raises(InputError, match="lower bound"):
            fit_least_squares(
                model, jacobian, DataSeries(x, x), [1.0, 0.0], ([1.0, -1.0], [1.0, 1.0]), LINE
            )
        assert calls == []

    def test_non_finite_trial_point_is_stepped_back_from(self):
        # the first step from 0 lands at 1, inside the band where the model
        # is NaN; the damped retry steps short of it and the fit goes on
        tried = []

        def model(p, xx):
            tried.append(float(p[0]))
            return np.where(0.9 < p[0] < 1.1, np.nan, p[0] * xx)

        x = np.linspace(0.0, 1.0, 6)
        result = fit_least_squares(
            model, lambda p, xx: xx[:, None], DataSeries(x, 2.0 * x), [0.0], UNBOUNDED, ("a",)
        )
        assert any(0.9 < p < 1.1 for p in tried)
        assert result["a"] == pytest.approx(2.0, rel=1e-12)

    def test_collinear_columns_flag_degenerate_covariance(self):
        # columns x and x + 1e-7 x^2: J^T J inverts, but its normalised
        # eigenvalue ratio is below 1e-12
        x = np.linspace(1.0, 2.0, 10)
        columns = np.column_stack([x, x + 1e-7 * x**2])
        jtj = columns.T @ columns
        assert np.isfinite(np.linalg.inv(jtj)).all()
        result = fit_least_squares(
            lambda p, xx: p[0] * xx + p[1] * (xx + 1e-7 * xx**2),
            lambda p, xx: np.column_stack([xx, xx + 1e-7 * xx**2]),
            DataSeries(x, 2.0 * x + 0.01 * np.sin(7.0 * x)), [0.5, 0.5], UNBOUNDED, LINE,
        )
        assert result.flags == ("degenerate_covariance",)

    def test_data_series_validation(self):
        with pytest.raises(InputError):
            DataSeries(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(InputError):
            DataSeries(np.array([1.0, np.inf]), np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            DataSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_order_independence(self, rng):
        x = np.linspace(0.0, 3.0, 25)
        y = 2.0 * np.exp(-((x - 1.4) ** 2) / 0.49) + rng.normal(0, 0.01, x.size)
        forward = fit_beam_profile(x, y)
        perm = rng.permutation(x.size)
        shuffled = fit_beam_profile(x[perm], y[perm])
        assert np.allclose(forward.params, shuffled.params, rtol=1e-8)


class TestBeamProfile:
    def test_noiseless_round_trip(self):
        x = np.linspace(-2.0, 2.0, 41)  # micrometers
        y = gaussian_beam_model([1.3, 0.07, 0.87], x)
        result = fit_beam_profile(x, y)
        assert result["waist"] == pytest.approx(0.87, rel=1e-3 * 0.1)
        assert result["center"] == pytest.approx(0.07, abs=1e-6)
        assert result["amplitude"] == pytest.approx(1.3, rel=1e-6)

    def test_noisy_recovery(self, rng):
        x = np.linspace(-2.2, 2.2, 45)
        y = gaussian_beam_model([1.0, 0.0, 0.87], x) + rng.normal(0, 0.02, x.size)
        result = fit_beam_profile(x, y, sigma=np.full(x.size, 0.02))
        assert abs(result["waist"] - 0.87) < 3.0 * result.uncertainty("waist")
        assert result.uncertainty("waist") < 0.025

    def test_shoulder_biases_waist_and_flags_structure(self):
        x = np.linspace(-2.5, 2.5, 81)
        clean = gaussian_beam_model([1.0, 0.0, 0.87], x)
        shoulder = 0.12 * np.exp(-((x - 1.1) ** 2) / 0.3**2)
        result = fit_beam_profile(x, clean + shoulder)
        assert result["waist"] > 0.87  # pulled wide by the shoulder
        assert "residual_structure" in result.flags

    def test_flat_data_rejected(self):
        x = np.linspace(-1.0, 1.0, 21)
        with pytest.raises(FitError):
            fit_beam_profile(x, np.full(x.size, 0.8))

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            fit_beam_profile(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_points", [5, 9])
    def test_scan_at_one_position_rejected(self, n_points):
        # one position spans no peak and leaves the waist no range
        with pytest.raises(FitError) as excinfo:
            fit_beam_profile(np.full(n_points, 0.3), np.linspace(0.5, 1.0, n_points))
        assert str(excinfo.value) == "beam-profile fit needs at least 5 points spanning the peak"

    @pytest.mark.parametrize("top", [-0.1, 0.0])
    def test_scan_without_positive_maximum_rejected(self, top):
        # an inverted Gaussian whose maximum is below or at zero
        x = np.linspace(-2.0, 2.0, 21)
        signal = top - gaussian_beam_model([1.0, 0.0, 0.87], x)
        signal[0] = top
        with pytest.raises(FitError) as excinfo:
            fit_beam_profile(x, signal)
        assert str(excinfo.value) == "beam-profile data has no peak structure"


class TestRabiTraceFit:
    def make_trace(self, omega0, theta, rng=None, shots=None):
        t = np.linspace(0.0, 120e-6, 240)
        p1 = damped_rabi_model([omega0, theta], t)
        if shots is not None:
            p1 = rng.binomial(shots, np.clip(p1, 0, 1)) / shots
        return t, p1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [[50e-6], [50e-6] * 2, [0.0] * 3, [50e-6] * 40])
    def test_trace_without_time_span_rejected(self, t):
        # one point or equal drive times: no spectrum to guess a frequency from
        p1 = np.linspace(0.1, 0.9, len(t))
        with pytest.raises(FitError) as excinfo:
            fit_rabi_trace(np.array(t), p1)
        assert str(excinfo.value) == "trace must span at least two oscillation periods"

    def test_noiseless_round_trip(self):
        omega0 = 2 * np.pi * 50e3
        t, p1 = self.make_trace(omega0, 0.08)
        result = fit_rabi_trace(t, p1)
        assert result["rabi_frequency"] == pytest.approx(omega0, rel=1e-9)
        assert result["theta"] == pytest.approx(0.08, rel=1e-7)

    def test_uneven_drive_times(self):
        # 200 noise-free traces at sorted uniform random times: the spectral
        # start resamples each onto equal steps (from the mean step alone, 59
        # of them fitted a wrong theta, 13 with neither a flag nor a failure)
        omega0 = 2 * np.pi * 50e3
        recovered, wrong_unflagged = 0, []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            theta = rng.uniform(0.02, 0.1)
            t = np.sort(rng.uniform(0.0, 200e-6, rng.integers(40, 120)))
            try:
                result = fit_rabi_trace(t, damped_rabi_model([omega0, theta], t))
            except FitError:
                continue
            if abs(result["theta"] / theta - 1.0) <= 1e-6:
                recovered += 1
            elif result.converged and not result.flags:
                wrong_unflagged.append(seed)
        assert recovered >= 195
        assert wrong_unflagged == []

    def test_every_drive_time_repeated(self):
        omega0 = 2 * np.pi * 50e3
        t = np.repeat(np.linspace(0.0, 200e-6, 81), 2)
        result = fit_rabi_trace(t, damped_rabi_model([omega0, 0.05], t))
        assert result["rabi_frequency"] == pytest.approx(omega0, rel=1e-9)
        assert result["theta"] == pytest.approx(0.05, rel=1e-7)

    def test_binomial_noise_recovery(self, rng):
        omega0 = 2 * np.pi * 50e3
        t, p1 = self.make_trace(omega0, 0.08, rng=rng, shots=200)
        sigma = np.maximum(np.sqrt(p1 * (1.0 - p1) / 200), 1.0 / 202)  # shot noise, floored
        result = fit_rabi_trace(t, p1, sigma=sigma)
        assert abs(result["theta"] - 0.08) < 3.0 * result.uncertainty("theta")
        assert abs(result["rabi_frequency"] - omega0) < 3.0 * result.uncertainty(
            "rabi_frequency"
        )

    def test_zero_theta_flagged(self, rng):
        omega0 = 2 * np.pi * 50e3
        t, p1 = self.make_trace(omega0, 0.0, rng=rng, shots=2000)
        sigma = np.maximum(np.sqrt(p1 * (1.0 - p1) / 2000), 1.0 / 2002)  # shot noise, floored
        result = fit_rabi_trace(t, p1, sigma=sigma)
        assert "theta_consistent_with_zero" in result.flags
        assert abs(result["rabi_frequency"] - omega0) < 5 * result.uncertainty(
            "rabi_frequency"
        )

    def test_discriminates_exponential_phase_damping(self, rng):
        # data from a constant-phase exponentially damped oscillation: the
        # algebraic-contrast model with its growing phase lag fits worse than
        # the matched damping model
        omega0 = 2 * np.pi * 50e3
        t = np.linspace(0.0, 120e-6, 240)
        gamma = 2.0e4
        p_damped = 0.5 * (1.0 - np.exp(-gamma * t) * np.cos(omega0 * t))
        noise = rng.normal(0, 0.01, t.size)
        y = p_damped + noise
        sigma = np.full(t.size, 0.01)

        thermal_fit = fit_rabi_trace(t, y, sigma=sigma)

        def damping_model(params, tt):
            om, g = params
            return 0.5 * (1.0 - np.exp(-g * tt) * np.cos(om * tt))

        def damping_jacobian(params, tt):
            om, g = params
            decay = 0.5 * tt * np.exp(-g * tt)
            return np.column_stack([decay * np.sin(om * tt), decay * np.cos(om * tt)])

        matched_fit = fit_least_squares(
            damping_model,
            damping_jacobian,
            DataSeries(t, y, sigma),
            [omega0, 1.5e4],
            UNBOUNDED,
            ("rabi_frequency", "gamma"),
        )
        assert thermal_fit.reduced_chisq > 2.0 * matched_fit.reduced_chisq

    @pytest.mark.parametrize("noise_seed", range(8))
    def test_guess_off_by_half_a_bin_keeps_the_theta_sign(self, noise_seed):
        # 57.75 kHz lies about half a spectral bin (5 kHz over 200 us) from
        # the frequency guess; an undamped first step from there falls into
        # the neighbouring minimum with theta < 0 for seeds 0, 3 and 7
        omega0 = 2 * np.pi * 57.75e3
        t = np.linspace(0.0, 200e-6, 101)
        noise = np.random.default_rng(noise_seed).normal(0, 0.01, t.size)
        p1 = damped_rabi_model([omega0, 0.0262], t) + noise
        result = fit_rabi_trace(t, p1, sigma=np.full(t.size, 0.01))
        assert abs(result["rabi_frequency"] - omega0) < 5 * result.uncertainty("rabi_frequency")
        assert abs(result["theta"] - 0.0262) < 5 * result.uncertainty("theta")

    @pytest.mark.parametrize("length", range(1, 7))
    def test_tail_median_bit_equal_to_np_median(self, rng, length):
        for scale in (1e-6, 1.0, 1e300):
            values = np.sort(rng.uniform(-scale, scale, length))
            assert fitting._sorted_median(values) == np.median(values)

    def test_short_trace_rejected(self):
        t = np.linspace(0.0, 10e-6, 30)  # half a period at 50 kHz
        p1 = damped_rabi_model([2 * np.pi * 50e3, 0.05], t)
        with pytest.raises(FitError):
            fit_rabi_trace(t, p1)


def central_differences(model, params, x, scales):
    """Columns (model(p + h_j) - model(p - h_j)) / 2 h_j, h_j = eps^(1/3)
    max(|p_j|, scale_j): truncation and round-off both near eps^(2/3)."""
    params = np.asarray(params, dtype=float)
    columns = []
    for j, scale in enumerate(scales):
        h = np.finfo(float).eps ** (1 / 3) * max(abs(params[j]), scale)
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        columns.append((model(up, x) - model(down, x)) / (up[j] - down[j]))
    return np.column_stack(columns)


def assert_columns_agree(jac, reference, rtol=1e-7):
    # relative to each column's largest entry
    assert jac.shape == reference.shape
    assert np.all(np.abs(jac - reference) <= rtol * np.max(np.abs(reference), axis=0))


JACOBIAN_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


class TestJacobians:
    """Each recipe's exact Jacobian against central differences of its model,
    over the calibration benchmark's parameter ranges."""

    @JACOBIAN_SETTINGS
    @given(
        amplitude=st.floats(0.8, 1.2), center=st.floats(-0.2, 0.2), waist=st.floats(0.8, 1.0)
    )
    def test_gaussian_beam(self, amplitude, center, waist):
        x = np.linspace(-2.5, 2.5, 41)
        params = [amplitude, center, waist]
        reference = central_differences(gaussian_beam_model, params, x, (1.0, waist, 1.0))
        assert_columns_agree(gaussian_beam_jacobian(np.array(params), x), reference)

    @JACOBIAN_SETTINGS
    @given(
        khz=st.floats(40.0, 60.0),
        thetas=st.lists(st.floats(-0.06, 0.06), min_size=1, max_size=3),
    )
    def test_thermal_rabi(self, khz, thetas):
        t = np.linspace(0.0, 200e-6, 101)
        params = np.array([2 * np.pi * khz * 1e3, *thetas])
        reference = central_differences(
            damped_rabi_model, params, t, (params[0],) + (0.01,) * len(thetas)
        )
        jac = damped_rabi_jacobian(params, t)
        assert_columns_agree(jac, reference)
        assert np.all(jac[0] == 0.0)  # t = 0 is no drive, whatever the parameters

    @JACOBIAN_SETTINGS
    @given(
        rate_100k=st.floats(5.0, 20.0), alpha=st.floats(0.0, 2.0), offset=st.floats(0.2, 1.0)
    )
    def test_power_law(self, rate_100k, alpha, offset):
        omega = 2 * np.pi * np.geomspace(50e3, 500e3, 12)
        amplitude = rate_100k * (2 * np.pi * 100e3) ** (2.0 + alpha)

        def model(p, w):
            return theta_rate_model(w, *p)

        params = [amplitude, alpha, offset]
        reference = central_differences(model, params, omega, (amplitude, 1.0, 1.0))
        assert_columns_agree(power_law_jacobian(omega, amplitude, alpha), reference)

    @pytest.mark.parametrize(
        "params",
        [
            [1e300, 1e10],  # theta omega0 overflows: a = inf wherever t > 0
            [1e300, 1e10, 0.05],
            [1e200, 1.0],  # a = 1e200 t is finite, a^2 overflows
            [1e200, -1.0, 1.0],
        ],
        ids=["a_inf", "a_inf_two_modes", "a_squared_inf", "a_squared_inf_two_modes"],
    )
    def test_thermal_rabi_overflow_limits(self, params):
        # the model holds p1 = 1/2 where some factor of the contrast is 0, and
        # 0 at t = 0: every derivative is 0 there, with no warning
        t = np.array([0.0, 1e-6, 1.0, 3.0])
        with np.errstate(all="raise"):
            p1 = damped_rabi_model(np.array(params), t)
            jac = damped_rabi_jacobian(np.array(params), t)
        assert np.array_equal(p1, [0.0, 0.5, 0.5, 0.5])
        assert np.array_equal(jac, np.zeros((len(t), len(params))))


def beam_scan(rng):
    """41-point scan with the calibration benchmark's truth ranges and noise."""
    x = np.linspace(-2.5, 2.5, 41)
    truth = [rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.0)]
    return x, gaussian_beam_model(truth, x) + rng.normal(0.0, 0.01, x.size)


def rabi_trace(rng):
    """101-point single-mode trace with the calibration benchmark's ranges and noise."""
    t = np.linspace(0.0, 200e-6, 101)
    truth = [2 * np.pi * rng.uniform(40e3, 60e3), rng.uniform(0.02, 0.06)]
    return t, damped_rabi_model(truth, t) + rng.normal(0.0, 0.01, t.size)


class TestStarts:
    """Fits solve once from the recipe's guess."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = fitting._levenberg_marquardt

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(fitting, "_levenberg_marquardt", counted)
        return calls

    def test_beam_profile_solves_once(self, solves, rng):
        fit_beam_profile(*beam_scan(rng), sigma=np.full(41, 0.01))
        assert len(solves) == 1

    def test_single_mode_rabi_solves_once(self, solves, rng):
        fit_rabi_trace(*rabi_trace(rng), sigma=np.full(101, 0.01))
        assert len(solves) == 1

    @pytest.mark.parametrize("recipe", ["beam", "rabi"])
    def test_restarts_find_nothing_better(self, recipe, monkeypatch):
        # Over the benchmark's truth ranges, three seeded jittered restarts
        # end in the minimum of the recipe's one start; they may only differ
        # by the round-off where the Gauss-Newton steps stop.
        fit, make, n_points = {
            "beam": (fit_beam_profile, beam_scan, 41), "rabi": (fit_rabi_trace, rabi_trace, 101)
        }[recipe]
        rng = np.random.default_rng(8)
        data = [make(rng) for _ in range(16)]
        sigma = np.full(n_points, 0.01)
        single = [fit(x, y, sigma) for x, y in data]
        solve = fitting.fit_least_squares

        def restarted(model, jacobian, series, guess, bounds, param_names):
            jitter = np.random.default_rng(1333)
            guess = np.asarray(guess, dtype=float)
            scale = np.maximum(np.abs(guess), np.median(np.abs(guess)))
            fits = [solve(model, jacobian, series, guess, bounds, param_names)]
            for _ in range(3):
                start = np.clip(guess + 0.1 * scale * jitter.standard_normal(guess.size), *bounds)
                fits.append(solve(model, jacobian, series, start, bounds, param_names))
            return min(fits, key=lambda result: result.residuals @ result.residuals)

        monkeypatch.setattr(fitting, "fit_least_squares", restarted)
        for (x, y), one in zip(data, single):
            four = fit(x, y, sigma)
            one_cost = 0.5 * one.residuals @ one.residuals
            four_cost = 0.5 * four.residuals @ four.residuals
            assert four_cost >= one_cost * (1.0 - 1e-13)
            assert np.all(np.abs(four.params - one.params) <= 1e-5 * one.uncertainties)


class TestStoppingPoint:
    """The Gauss-Newton steps end the fits at their minimum, not where the
    damped loop happened to stop."""

    @pytest.mark.parametrize("recipe", ["beam", "rabi"])
    def test_the_gradient_vanishes_to_round_off(self, recipe):
        # |(J^T r)_j| / (|J_j| |r|) is the cosine between the residuals and
        # a Jacobian column: about 1e-14 at the minimum here, and up to 8e-8
        # where forward differences set the stopping point
        fit, make, jacobian, n_points = {
            "beam": (fit_beam_profile, beam_scan, gaussian_beam_jacobian, 41),
            "rabi": (fit_rabi_trace, rabi_trace, damped_rabi_jacobian, 101),
        }[recipe]
        rng = np.random.default_rng(5)
        sigma = np.full(n_points, 0.01)
        for _ in range(32):
            x, y = make(rng)
            result = fit(x, y, sigma)
            jac = jacobian(result.params, x) / sigma[:, None]
            cosines = np.abs(jac.T @ result.residuals) / (
                np.linalg.norm(jac, axis=0) * np.linalg.norm(result.residuals)
            )
            assert np.all(cosines <= 1e-11)


class TestThetaGrowth:
    def test_two_points_exact(self):
        result = fit_theta_growth(np.array([0.0, 2.0]), np.array([0.1, 0.5]))
        assert result["intercept"] == pytest.approx(0.1, abs=1e-14)
        assert result["slope"] == pytest.approx(0.2, abs=1e-14)

    def test_noisy_recovery(self, rng):
        t = np.linspace(0.0, 10e-3, 12)
        theta = 0.02 + 11.0 * t + rng.normal(0, 0.003, t.size)
        result = fit_theta_growth(t, theta, sigma=np.full(t.size, 0.003))
        assert abs(result["slope"] - 11.0) < 3.0 * result.uncertainty("slope")

    def test_negative_slope_flagged(self):
        result = fit_theta_growth(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.4, 0.3]))
        assert result["slope"] < 0
        assert "negative_slope" in result.flags

    def test_single_point_rejected(self):
        with pytest.raises(FitError):
            fit_theta_growth(np.array([1.0]), np.array([0.1]))

    @pytest.mark.parametrize("n_points", [3, 4, 5, 6])
    @pytest.mark.parametrize("with_sigma", [False, True])
    def test_equal_wait_times_rejected(self, n_points, with_sigma):
        # one wait time fixes no slope, whether or not J^T J rounds singular
        theta = np.linspace(0.01, 0.05, n_points)
        sigma = np.linspace(0.002, 0.004, n_points) if with_sigma else None
        for tw in np.geomspace(0.1e-3, 10e-3, 13):
            with pytest.raises(FitError) as excinfo:
                fit_theta_growth(np.full(n_points, tw), theta, sigma)
            assert str(excinfo.value) == "linear growth fit needs at least two distinct wait times"

    def test_wait_times_that_round_to_a_singular_design_rejected(self):
        # distinct wait times two ulp apart: J^T J is exactly singular in floats
        with pytest.raises(FitError) as excinfo:
            fit_theta_growth(np.array([1.0, 1.0 + 2 * np.spacing(1.0)]), np.array([0.1, 0.2]))
        assert str(excinfo.value) == "wait times too close together to solve for a slope"


class TestThetaPowerLaw:
    def test_noiseless_round_trip(self):
        omega = 2 * np.pi * np.geomspace(80e3, 1000e3, 10)
        truth = (22.0 * (2 * np.pi * 140e3) ** 2.8, 0.8, 0.9)
        rates = theta_rate_model(omega, *truth)
        result = fit_theta_power_law(omega, rates)
        assert result["alpha"] == pytest.approx(0.8, abs=1e-6)
        assert result["offset"] == pytest.approx(0.9, rel=1e-5)

    def test_noiseless_fit_not_flagged_degenerate(self):
        # amplitude (~1e18) and alpha (~1) differ in scale by ~18 orders;
        # that alone must not read as lost identifiability
        omega = 2 * np.pi * np.geomspace(80e3, 1000e3, 10)
        rates = theta_rate_model(omega, 22.0 * (2 * np.pi * 140e3) ** 2.8, 0.8, 0.9)
        result = fit_theta_power_law(omega, rates)
        assert result.flags == ()
        assert result.converged
        assert 0 < result.n_iterations < 100 * len(result.params)

    def test_noisy_recovery_alpha(self, rng):
        omega = 2 * np.pi * np.geomspace(100e3, 1200e3, 12)
        rates = theta_rate_model(omega, 22.0 * (2 * np.pi * 140e3) ** 2.8, 0.8, 0.9)
        sigma = 0.08 * rates
        noisy = rates + rng.normal(0, sigma)
        result = fit_theta_power_law(omega, noisy, sigma)
        assert abs(result["alpha"] - 0.8) < 3.0 * result.uncertainty("alpha")
        assert result.uncertainty("alpha") < 0.2

    def test_zero_offset_consistent(self):
        omega = 2 * np.pi * np.geomspace(80e3, 1000e3, 10)
        rates = theta_rate_model(omega, 22.0 * (2 * np.pi * 140e3) ** 3, 1.0, 0.0)
        result = fit_theta_power_law(omega, rates)
        assert abs(result["offset"]) <= max(result.uncertainty("offset"), 1e-6)

    def test_zero_amplitude_degenerate(self):
        omega = 2 * np.pi * np.geomspace(80e3, 1000e3, 8)
        rates = np.full(omega.size, 0.9)
        try:
            result = fit_theta_power_law(omega, rates)
        except FitError:
            return
        assert "degenerate_covariance" in result.flags

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_theta_power_law(
                2 * np.pi * np.array([1e5, 2e5, 4e5]), np.array([3.0, 2.0, 1.0])
            )

    @pytest.mark.parametrize(
        "f_khz",
        [[100.0] * 5, [100.0, 200.0, 100.0, 200.0, 100.0]],
        ids=["one_frequency", "two_frequencies"],
    )
    def test_fewer_than_three_distinct_frequencies_rejected(self, f_khz):
        # three parameters: rates at one or two frequencies fix no exponent
        omega = 2 * np.pi * 1e3 * np.array(f_khz)
        rates = np.array([10.0, 2.9, 10.4, 3.1, 9.8])
        with pytest.raises(FitError) as excinfo:
            fit_theta_power_law(omega, rates)
        assert str(excinfo.value) == "power-law fit needs at least 3 distinct frequencies"

    def test_four_points_at_three_frequencies_fit(self):
        omega = 2 * np.pi * 1e3 * np.array([100.0, 200.0, 200.0, 400.0])
        rates = theta_rate_model(omega, 22.0 * (2 * np.pi * 140e3) ** 2.8, 0.8, 0.9)
        result = fit_theta_power_law(omega, rates)
        assert result["alpha"] == pytest.approx(0.8, abs=1e-6)
        assert result["offset"] == pytest.approx(0.9, rel=1e-5)


def growth_series(rng):
    """11 decay parameters over 10 ms with the calibration benchmark's ranges and noise."""
    t = np.linspace(0.0, 10e-3, 11)
    theta = rng.uniform(0.005, 0.02) + rng.uniform(5.0, 15.0) * t
    return t, theta + rng.normal(0.0, 0.002, t.size)


def power_sweep(rng):
    """12 rates over 50-500 kHz with the calibration benchmark's ranges and 3 % noise."""
    omega = 2 * np.pi * np.geomspace(50e3, 500e3, 12)
    alpha = rng.uniform(0.6, 1.4)
    amplitude = rng.uniform(5.0, 20.0) * (2 * np.pi * 100e3) ** (2.0 + alpha)
    rates = theta_rate_model(omega, amplitude, alpha, rng.uniform(0.2, 1.0))
    return omega, rates + 0.03 * rates * rng.standard_normal(omega.size), 0.03 * rates


# recipe: (fit, seeded data -> (x, y, sigma))
RECIPES = {
    "beam": (fit_beam_profile, lambda rng: (*beam_scan(rng), np.full(41, 0.01))),
    "rabi": (fit_rabi_trace, lambda rng: (*rabi_trace(rng), np.full(101, 0.01))),
    "theta_growth": (fit_theta_growth, lambda rng: (*growth_series(rng), np.full(11, 0.002))),
    "power_law": (fit_theta_power_law, power_sweep),
}


class TestUnitsOfTheData:
    """The fits stop on relative tests only, so the units of y and sigma
    do not change where they stop."""

    @pytest.mark.parametrize("recipe", RECIPES)
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(k=st.integers(-400, 400), seed=st.integers(0, 2**32 - 1))
    @example(k=400, seed=0)
    @example(k=-400, seed=0)
    def test_power_of_two_sigma_scales_only_the_uncertainties(self, recipe, k, seed):
        # 2^k scales every weighted residual and J^T J exactly, so the steps
        # and the stopping tests see the same numbers
        fit, make = RECIPES[recipe]
        x, y, sigma = make(np.random.default_rng(seed))
        one, scaled = fit(x, y, sigma), fit(x, y, sigma * 2.0**k)
        assert np.array_equal(scaled.params, one.params)
        assert np.array_equal(scaled.uncertainties, one.uncertainties * 2.0**k)
        assert scaled.n_iterations == one.n_iterations

    def test_unweighted_beam_scan_in_any_units(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            x, y = beam_scan(rng)
            one = fit_beam_profile(x, y).params
            for m in range(-150, 151, 10):
                scaled = fit_beam_profile(x, y * 10.0**m).params
                assert np.all(np.abs(scaled / [10.0**m, 1.0, 1.0] - one) <= 1e-8)

    def test_beam_scan_of_tiny_amplitude_fits(self):
        # the centre and waist entries of the J^T J diagonal are ~1e-212, so
        # the outer product of the diagonal underflows to zero; the outer
        # product of its square roots does not
        x = np.linspace(-2.5, 2.5, 21)
        result = fit_beam_profile(x, gaussian_beam_model([1e-106, 0.0, 0.9], x))
        assert result.params / [1e-106, 1.0, 1.0] == pytest.approx([1.0, 0.0, 0.9], abs=1e-9)
        assert result.flags == ()

    @pytest.mark.parametrize("sigma", [8e-155, 1.0, 6.7e153])
    def test_sigma_with_a_normal_weight_accepted(self, sigma):
        x = np.arange(3.0)
        assert DataSeries(x, x, np.full(3, sigma)).sigma[0] == sigma
