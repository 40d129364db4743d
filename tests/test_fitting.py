import numpy as np
import pytest

from ionchain import (
    DataSeries,
    fit_beam_profile,
    fit_least_squares,
    fit_rabi_trace,
    fit_theta_growth,
    fit_theta_power_law,
)
from ionchain import fitting
from ionchain.fitting import damped_rabi_model, gaussian_beam_model
from ionchain.heating import theta_rate_model
from ionchain.errors import FitError, InputError

UNBOUNDED = (-np.inf, np.inf)  # broadcast to every parameter
LINE = ("slope", "intercept")


class TestCore:
    def test_noiseless_line_recovered_exactly(self):
        x = np.linspace(0.0, 5.0, 9)
        y = 0.7 * x - 1.3
        result = fit_least_squares(
            lambda p, xx: p[0] * xx + p[1], DataSeries(x, y), [1.0, 0.0], UNBOUNDED, LINE
        )
        assert result.params == pytest.approx([0.7, -1.3], abs=1e-9)

    def test_noisy_quadratic_within_three_sigma(self, rng):
        x = np.linspace(-2.0, 2.0, 41)
        truth = np.array([0.8, -0.4, 1.1])
        y = truth[0] * x**2 + truth[1] * x + truth[2] + rng.normal(0, 0.01, x.size)
        result = fit_least_squares(
            lambda p, xx: p[0] * xx**2 + p[1] * xx + p[2],
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
                lambda p, xx: p[0] * xx + p[1],
                DataSeries(np.array([1.0]), np.array([2.0])),
                [1.0, 0.0],
                UNBOUNDED,
                LINE,
            )

    def test_the_guess_is_evaluated_once(self, monkeypatch):
        # the shape check's evaluation is the solve's starting residual: the
        # model runs once per counted evaluation and once per Jacobian column
        calls, jacobians = [], []

        def model(p, xx):
            calls.append(p.copy())
            return p[0] * xx**2 + p[1]

        jacobian = fitting._forward_jacobian

        def counted(*args):
            jacobians.append(args[1].copy())
            return jacobian(*args)

        monkeypatch.setattr(fitting, "_forward_jacobian", counted)
        x = np.linspace(-1.0, 1.0, 11)
        guess = [1.0, 0.0]
        result = fit_least_squares(model, DataSeries(x, 0.3 * x**2 + 0.2), guess, UNBOUNDED, LINE)
        assert len(calls) == result.n_iterations + len(guess) * len(jacobians)
        assert sum(np.array_equal(p, guess) for p in calls) == 1

    def test_model_shape_mismatch_names_both_shapes(self):
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(InputError, match=r"\(5,\).*\(10,\)"):
            fit_least_squares(
                lambda p, xx: p[0] * xx[:5], DataSeries(x, x), [1.0], UNBOUNDED, ("a",)
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
            fit_least_squares(model, DataSeries(x, x), [1.0, 0.0], UNBOUNDED, LINE)
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
                lambda p, xx: p[0] * xx**2 + p[1] * xx, DataSeries(x, y), [0.0, 0.0], UNBOUNDED, LINE
            )
        assert str(excinfo.value) == "least-squares fit did not converge"
        assert excinfo.value.__cause__ is None and excinfo.value.__context__ is None

    def test_overflowing_start_residuals_raise_unwrapped(self):
        x = np.ones(4)
        with pytest.raises(FitError) as excinfo, np.errstate(over="ignore"):
            fit_least_squares(
                lambda p, xx: p[0] * xx, DataSeries(x, -1e308 * x), [1e308], UNBOUNDED, ("a",)
            )
        assert str(excinfo.value) == "residuals are not finite at the start"
        assert excinfo.value.__cause__ is None

    def test_empty_bound_interval_rejected_up_front(self):
        x = np.linspace(0.0, 1.0, 10)
        calls = []

        def model(p, xx):
            calls.append(1)
            return p[0] * xx + p[1]

        with pytest.raises(InputError, match="lower bound"):
            fit_least_squares(model, DataSeries(x, x), [1.0, 0.0], ([1.0, -1.0], [1.0, 1.0]), LINE)
        assert calls == []

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


class TestRabiTraceFit:
    def make_trace(self, omega0, theta, rng=None, shots=None):
        t = np.linspace(0.0, 120e-6, 240)
        p1 = damped_rabi_model([omega0, theta], t)
        if shots is not None:
            p1 = rng.binomial(shots, np.clip(p1, 0, 1)) / shots
        return t, p1

    def test_noiseless_round_trip(self):
        omega0 = 2 * np.pi * 50e3
        t, p1 = self.make_trace(omega0, 0.08)
        result = fit_rabi_trace(t, p1)
        assert result["rabi_frequency"] == pytest.approx(omega0, rel=1e-9)
        assert result["theta"] == pytest.approx(0.08, rel=1e-7)

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

        matched_fit = fit_least_squares(
            damping_model,
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
        # within the solver's stopping tolerance (1e-14 of the cost per step).
        fit, make, n_points = {
            "beam": (fit_beam_profile, beam_scan, 41), "rabi": (fit_rabi_trace, rabi_trace, 101)
        }[recipe]
        rng = np.random.default_rng(8)
        data = [make(rng) for _ in range(16)]
        sigma = np.full(n_points, 0.01)
        single = [fit(x, y, sigma) for x, y in data]
        solve = fitting.fit_least_squares

        def restarted(model, series, guess, bounds, param_names):
            jitter = np.random.default_rng(1333)
            guess = np.asarray(guess, dtype=float)
            scale = np.maximum(np.abs(guess), np.median(np.abs(guess)))
            fits = [solve(model, series, guess, bounds, param_names)]
            for _ in range(3):
                start = np.clip(guess + 0.1 * scale * jitter.standard_normal(guess.size), *bounds)
                fits.append(solve(model, series, start, bounds, param_names))
            return min(fits, key=lambda result: result.residuals @ result.residuals)

        monkeypatch.setattr(fitting, "fit_least_squares", restarted)
        for (x, y), one in zip(data, single):
            four = fit(x, y, sigma)
            one_cost = 0.5 * one.residuals @ one.residuals
            four_cost = 0.5 * four.residuals @ four.residuals
            assert four_cost >= one_cost * (1.0 - 1e-13)
            assert np.all(np.abs(four.params - one.params) <= 1e-5 * one.uncertainties)


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
