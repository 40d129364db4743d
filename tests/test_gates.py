import numpy as np
import pytest

from ionchain import (
    SpamMatrix,
    apply_spam,
    gate_fidelity_bound,
    gate_fidelity_monte_carlo,
    parity_fidelity,
    spam_adjust_prediction,
    spam_matrix_from_counts,
)
from ionchain.errors import InputError
from ionchain.gates import gate_fidelity_slope

# measured two-qubit confusion matrix used in several tests (percent)
CONFUSION = np.array(
    [
        [99.76, 0.17, 0.07, 0.00],
        [0.53, 99.34, 0.00, 0.13],
        [0.36, 0.00, 99.22, 0.42],
        [0.02, 0.45, 0.48, 99.05],
    ]
) / 100.0


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

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            gate_fidelity_bound([0.1, 0.2], [0.1], 1)


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


class TestParityFidelity:
    def test_perfect_bell_state(self):
        assert parity_fidelity(0.5, 0.5, 1.0) == 1.0

    def test_fully_mixed(self):
        assert parity_fidelity(0.25, 0.25, 0.0) == 0.25

    def test_arithmetic(self):
        assert parity_fidelity(0.48, 0.48, 0.94) == pytest.approx(0.95)

    def test_domain_checks(self):
        with pytest.raises(InputError):
            parity_fidelity(0.7, 0.4, 0.5)
        with pytest.raises(InputError):
            parity_fidelity(-0.1, 0.5, 0.5)
        with pytest.raises(InputError):
            parity_fidelity(0.5, 0.5, 1.2)


class TestSpam:
    def test_identity_leaves_populations(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.allclose(apply_spam(p, SpamMatrix.identity()), p, rtol=1e-15)

    def test_measured_matrix_on_prepared_00(self):
        spam = SpamMatrix(CONFUSION)
        measured = apply_spam(np.array([1.0, 0.0, 0.0, 0.0]), spam)
        assert np.allclose(measured, [0.9976, 0.0017, 0.0007, 0.0], atol=1e-12)

    def test_normalization_preserved(self, rng):
        spam = SpamMatrix(CONFUSION)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert apply_spam(p, spam).sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_stochastic_rejected(self):
        bad = np.eye(4)
        bad[0, 0] = 0.9
        with pytest.raises(InputError):
            SpamMatrix(bad)

    def test_bad_populations_rejected(self):
        with pytest.raises(InputError):
            apply_spam(np.array([0.5, 0.5, 0.5, 0.0]), SpamMatrix.identity())

    def test_adjustment(self):
        assert spam_adjust_prediction(1.0, 0.009) == pytest.approx(0.991)
        assert spam_adjust_prediction(0.95, 0.0) == 0.95
        with pytest.raises(InputError):
            spam_adjust_prediction(0.9, 1.5)


class TestSpamFromCounts:
    def test_identity_counts(self):
        counts = np.eye(4, dtype=int) * 1000
        spam = spam_matrix_from_counts(counts)
        assert np.array_equal(spam.matrix, np.eye(4))

    def test_measured_style_row(self):
        counts = np.eye(4, dtype=int) * 20000
        counts[0] = [19952, 34, 14, 0]
        spam = spam_matrix_from_counts(counts)
        assert np.allclose(spam.matrix[0], [0.9976, 0.0017, 0.0007, 0.0], atol=1e-15)
        p = 0.9976
        assert spam.uncertainty[0, 0] == pytest.approx(
            np.sqrt(p * (1 - p) / 20000), rel=1e-12
        )

    def test_uniform_counts(self):
        spam = spam_matrix_from_counts(np.full((4, 4), 500))
        assert np.allclose(spam.matrix, 0.25, rtol=1e-15)

    def test_zero_row_rejected(self):
        counts = np.eye(4, dtype=int) * 100
        counts[2] = 0
        with pytest.raises(InputError):
            spam_matrix_from_counts(counts)

