import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import trig_arguments

from ionchain import (
    gate_fidelity_bound,
    gate_fidelity_monte_carlo,
    rabi_trace,
    spam_adjust_prediction,
)
from ionchain.decoherence import _thermal_contrast
from ionchain.errors import InputError
from ionchain.gates import gate_fidelity_slope

class TestGateFidelityBound:
    def test_zero_theta_is_unity(self):
        for n_gates in (1, 2, 3, 7):
            assert gate_fidelity_bound([0.0], [0.0], n_gates) == 1.0

    def test_single_mode_value(self):
        expected = 0.5 + 0.5 / np.sqrt(1.0 + (np.pi / 2.0) ** 2 * 0.04)
        assert gate_fidelity_bound([0.1], [0.1], 1) == pytest.approx(expected, rel=1e-14)

    def test_monotone_decreasing_in_gate_count(self):
        f = [gate_fidelity_bound([0.05], [0.08], n) for n in (1, 2, 3, 5)]
        assert all(a > b for a, b in zip(f, f[1:]))

    def test_monotone_decreasing_in_joint_theta(self):
        f = [gate_fidelity_bound([s / 2], [s / 2], 1) for s in (0.0, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(f, f[1:]))

    def test_opposite_sign_cancellation(self):
        thetas = [0.12, -0.05, 0.3]
        assert gate_fidelity_bound(thetas, [-t for t in thetas], 3) == 1.0

    def test_bounds(self, rng):
        for _ in range(50):
            k = rng.integers(1, 4)
            ti = rng.uniform(-1, 1, k)
            tj = rng.uniform(-1, 1, k)
            f = gate_fidelity_bound(ti, tj, int(rng.integers(1, 5)))
            assert 0.5 <= f <= 1.0

    @pytest.mark.parametrize("n_gates", [1, 3])
    @pytest.mark.parametrize("joint", [-0.2, 0.0, 0.01, 0.15])
    def test_slope_matches_finite_difference(self, n_gates, joint):
        h = 1e-6
        fd = (
            gate_fidelity_bound([joint + h], [0.0], n_gates)
            - gate_fidelity_bound([joint - h], [0.0], n_gates)
        ) / (2 * h)
        assert gate_fidelity_slope(joint, n_gates) == pytest.approx(abs(fd), rel=1e-6, abs=1e-9)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.floats(0.0, 1e154), st.integers(1, 10**6))
    def test_slope_takes_its_contrast_from_the_kernel(self, angle, n_gates):
        k = n_gates * math.pi / 2.0
        theta = angle / k
        contrast, a = _thermal_contrast(np.array([theta]), 1.0, np.array([k]))  # a^2 finite
        c, a = float(contrast[0]), abs(float(a[0, 0]))
        assert gate_fidelity_slope(theta, n_gates) == 0.5 * (k * c) * (a * c) * c

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=1, max_size=60),
        st.integers(1, 3),
    )
    def test_is_the_thermal_contrast_at_the_gate_angle(self, pairs, n_gates):
        ti, tj = np.array(pairs).T
        a = (n_gates * math.pi / 2.0) * (ti + tj)
        old = 0.5 + 0.5 * float((1.0 / np.sqrt(1.0 + a * a)).prod())
        bound = gate_fidelity_bound(list(ti), list(tj), n_gates)
        assert bound == old
        assert gate_fidelity_bound(ti[None, :], tj[None, :], n_gates) == old  # every entry
        # the contrast of the joint thetas at Omega0 t = n_gates pi/2, Omega0 = 1
        contrast = rabi_trace(1.0, ti + tj, [n_gates * math.pi / 2.0]).contrast[0]
        assert bound == 0.5 + 0.5 * float(contrast)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            gate_fidelity_bound([0.1, 0.2], [0.1], 1)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 400), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_matches_the_wrapper_form(self, n_modes, n_gates, seed):
        rng = np.random.default_rng(seed)
        # |a| stays below 2, so the product of 400 factors cannot underflow
        ti, tj = rng.uniform(-1.0, 1.0, (2, n_modes)) * 10.0 ** rng.uniform(-6.0, -2.0, (2, n_modes))
        a = (n_gates * math.pi / 2.0) * (ti + tj)
        expected = 0.5 + 0.5 * float(np.prod(1.0 / np.sqrt(1.0 + a * a)))
        assert gate_fidelity_bound(ti, tj, n_gates) == expected


class TestGateFidelityMonteCarlo:
    def test_parity_estimate_matches_bound_single_mode(self):
        est = gate_fidelity_monte_carlo([0.1], [0.1], 1, n_samples=100_000, seed=2)
        bound = gate_fidelity_bound([0.1], [0.1], 1)
        assert abs(est.f_parity - bound) < 3.0 * est.f_parity_stderr

    def test_parity_estimate_matches_bound_multimode(self):
        ti = [0.05, -0.02, 0.04]
        tj = [0.06, 0.03, -0.01]
        est = gate_fidelity_monte_carlo(ti, tj, 3, n_samples=100_000, seed=4)
        bound = gate_fidelity_bound(ti, tj, 3)
        assert abs(est.f_parity - bound) < 3.0 * est.f_parity_stderr

    def test_overlap_below_parity_estimate(self):
        est = gate_fidelity_monte_carlo([0.15], [0.15], 3, n_samples=50_000, seed=6)
        assert est.f_overlap < est.f_parity

    def test_zero_theta_exact(self):
        est = gate_fidelity_monte_carlo([0.0], [0.0], 2, n_samples=100, seed=0)
        assert est.f_parity == 1.0
        assert est.f_overlap == 1.0

    def test_seeded_reproducibility(self):
        a = gate_fidelity_monte_carlo([0.1], [0.05], 1, n_samples=5000, seed=11)
        b = gate_fidelity_monte_carlo([0.1], [0.05], 1, n_samples=5000, seed=11)
        assert a == b

    def test_numpy_integer_counts_and_seeds_are_read_as_ints(self):
        a = gate_fidelity_monte_carlo([0.1], [0.05], 1, n_samples=5000, seed=11)
        assert a == gate_fidelity_monte_carlo([0.1], [0.05], 1, np.int64(5000), np.int8(11))

    def test_fields_are_python_floats(self):
        est = gate_fidelity_monte_carlo([0.1], [0.05], 1, n_samples=1000, seed=3)
        assert [type(v) for v in vars(est).values()] == [float] * 4

    def test_nested_theta_lists_are_read_entry_by_entry(self):
        # as the bound reads them: a (1, 2) list is two modes
        flat, nested = [0.05, 0.01], [[0.05, 0.01]]
        assert gate_fidelity_bound(nested, nested, 3) == gate_fidelity_bound(flat, flat, 3)
        est = gate_fidelity_monte_carlo(nested, nested, 3, n_samples=1000, seed=3)
        assert vars(est) == vars(gate_fidelity_monte_carlo(flat, flat, 3, 1000, seed=3))


def half_angle_phasor(y):
    """(cos y, sin y) from t = tan(y/2): w = 2 / (1 + t^2), cos y = w - 1, sin y = t w."""
    t = np.tan(y / 2)
    w = 2.0 / (1.0 + t**2)
    return w - 1.0, t * w


def serial_moments(theta_i, theta_j, n_gates, n_samples, seed, phasor=half_angle_phasor):
    """The phasor's means (c, s), the two-pass variances of those means and
    their covariance, from .mean(), .var(ddof=1) and np.cov."""
    joint = np.atleast_1d(np.asarray(theta_i, dtype=float)) + np.atleast_1d(
        np.asarray(theta_j, dtype=float)
    )
    u = np.empty((len(joint), n_samples))
    for m in range(len(joint)):
        u[m] = np.random.default_rng([seed, m]).exponential(1.0, n_samples)
    y = (n_gates * math.pi / 2.0) * (joint @ u)
    cos_y, sin_y = phasor(y)
    var_c = cos_y.var(ddof=1) / n_samples
    var_s = sin_y.var(ddof=1) / n_samples
    cov_cs = np.cov(cos_y, sin_y, ddof=1)[0, 1] / n_samples
    return cos_y.mean(), sin_y.mean(), var_c, var_s, cov_cs


def serial_gate_monte_carlo(theta_i, theta_j, n_gates, n_samples, seed, phasor=half_angle_phasor):
    """The one-thread gate estimator on the two-pass moments: with the
    default ``phasor``, its means are the library's bit for bit."""
    c, s, var_c, var_s, cov_cs = serial_moments(theta_i, theta_j, n_gates, n_samples, seed, phasor)
    radius = math.hypot(c, s)
    if radius > 0:
        var_r = (c * c * var_c + s * s * var_s + 2 * c * s * cov_cs) / (radius * radius)
    else:
        var_r = var_c + var_s
    return (
        0.5 * (1.0 + radius),
        0.5 * math.sqrt(max(var_r, 0.0)),
        0.5 * (1.0 + c),
        0.5 * math.sqrt(var_c),
    )


class TestParallelGateMonteCarlo:
    @pytest.mark.parametrize("n_samples", [2, 100_000])
    @pytest.mark.parametrize(
        "theta_i, theta_j", [([0.1], [0.05]), ([0.05, -0.02, 0.04], [0.06, 0.03, -0.01])]
    )
    def test_within_summation_roundoff_of_two_pass_estimator(self, theta_i, theta_j, n_samples):
        """The fidelities are bit-identical.  The variances come from the Gram
        matrix's diagonal, not from the squares of .var(ddof=1): each is a
        sum of n non-negative squares, within gamma = (n - 1) u / (1 - (n - 1) u)
        of the exact sum in any order of summation (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., sec. 4.2), so the two
        differ by at most 2 gamma of it.  f_parity's variance combines them
        with the unchanged covariance, whose three terms add 8 u of their
        sizes in rounding.  A standard error sqrt(v) / 2 then moves by at
        most |dv| / (2 sqrt(v)), or sqrt(|dv|) / 2 where v is 0, plus 8 u of
        it for the roots and the scalings."""
        est = gate_fidelity_monte_carlo(theta_i, theta_j, 3, n_samples, seed=5)
        c, s, var_c, var_s, cov_cs = serial_moments(theta_i, theta_j, 3, n_samples, 5)
        f_parity, parity_stderr, f_overlap, overlap_stderr = serial_gate_monte_carlo(
            theta_i, theta_j, 3, n_samples, 5
        )
        assert (est.f_parity, est.f_overlap) == (f_parity, f_overlap)
        u = np.finfo(float).eps / 2
        gamma = (n_samples - 1) * u / (1 - (n_samples - 1) * u)
        terms = c * c * var_c + s * s * var_s + 2 * abs(c * s * cov_cs)
        for got, want, dv in (
            (est.f_overlap_stderr, overlap_stderr, 2 * gamma * var_c),
            (est.f_parity_stderr, parity_stderr, (2 * gamma + 8 * u) * terms / (c * c + s * s)),
        ):
            moved = dv / (4 * want) if want > 0 else math.sqrt(dv) / 2
            assert abs(got - want) <= moved + 8 * u * want

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        gate_fidelity_monte_carlo([0.1, 0.02], [0.05, 0.01], 2, n_samples=1000, seed=1)
        assert threading.active_count() == before


class TestHalfAngleForm:
    """The phasor from tan(y/2) against numpy's libm cos and sin, which it replaces."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.lists(trig_arguments(), min_size=1, max_size=40))
    def test_within_four_eps_of_libm(self, ys):
        y = np.array(ys)
        cos_y, sin_y = half_angle_phasor(y)
        eps = np.finfo(float).eps
        assert np.all(np.abs(cos_y - np.cos(y)) <= 4 * eps)
        assert np.all(np.abs(sin_y - np.sin(y)) <= 4 * eps)

    def test_estimate_within_1e_15_of_libm_estimate(self):
        theta_i, theta_j = [0.05, -0.02, 0.04], [0.06, 0.03, -0.01]
        est = gate_fidelity_monte_carlo(theta_i, theta_j, 3, 100_000, seed=5)
        libm = serial_gate_monte_carlo(
            theta_i, theta_j, 3, 100_000, 5, phasor=lambda y: (np.cos(y), np.sin(y))
        )
        assert abs(est.f_parity - libm[0]) <= 1e-15
        assert abs(est.f_overlap - libm[2]) <= 1e-15


class TestSpam:
    def test_adjustment(self):
        assert spam_adjust_prediction(1.0, 0.009) == pytest.approx(0.991)
        assert spam_adjust_prediction(0.95, 0.0) == 0.95
        with pytest.raises(InputError):
            spam_adjust_prediction(0.9, 1.5)

