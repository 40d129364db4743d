import numpy as np
import pytest

from helpers import central_diff, chain_hessian_fd, coordinate_descent_minimum

from ionchain import (
    EquilibriumChain,
    EquispacedLogPotential,
    HarmonicPotential,
    QuadQuarticPotential,
    YB171,
    chain_gradient,
    find_equilibrium,
    hessian_matrix,
    lowest_mode_scan,
    normal_modes,
    single_ion_modes,
    spacing_deviation,
)
from ionchain.constants import IonSpecies, K_COULOMB
from ionchain.errors import (
    DegenerateChainError,
    DomainError,
    InputError,
    SolverError,
    UnstableChainError,
)

OMEGA = 2 * np.pi * 1.0e6
HARMONIC = HarmonicPotential(omega0=OMEGA)


# ----------------------------------------------------------------------
# potential evaluation
# ----------------------------------------------------------------------

class TestPotentialEval:
    def test_equispaced_log_center(self):
        pot = EquispacedLogPotential(n_ions=15, spacing=4.4e-6)
        value, grad, curv = pot.evaluate(0.0, YB171)
        assert value == 0.0
        assert grad == 0.0
        assert curv > 0.0

    def test_harmonic_curvature_constant(self):
        x = np.linspace(-5e-6, 5e-6, 7)
        _, _, curv = HARMONIC.evaluate(x, YB171)
        assert np.allclose(curv, YB171.mass * OMEGA**2, rtol=1e-15)

    def test_equispaced_log_derivatives_match_finite_differences(self):
        pot = EquispacedLogPotential(n_ions=15, spacing=4.4e-6)
        x = 2.2e-6
        h = 1e-12

        def val(xx):
            return pot.evaluate(xx, YB171)[0]

        def grd(xx):
            return pot.evaluate(xx, YB171)[1]

        value, grad, curv = pot.evaluate(x, YB171)
        assert grad == pytest.approx(central_diff(val, x, h), rel=1e-6)
        assert curv == pytest.approx(central_diff(grd, x, h), rel=1e-6)

    def test_quad_quartic_derivatives_match_finite_differences(self):
        pot = QuadQuarticPotential(a2=2.5e-14, a4=1.7e-3)
        x = 11e-6
        h = 1e-11

        def val(xx):
            return pot.evaluate(xx, YB171)[0]

        def grd(xx):
            return pot.evaluate(xx, YB171)[1]

        _, grad, curv = pot.evaluate(x, YB171)
        assert grad == pytest.approx(central_diff(val, x, h), rel=1e-6)
        assert curv == pytest.approx(central_diff(grd, x, h), rel=1e-6)

    def test_equispaced_log_domain_error(self):
        pot = EquispacedLogPotential(n_ions=10, spacing=4.4e-6)
        with pytest.raises(DomainError):
            pot.evaluate(5.01 * 4.4e-6, YB171)

    def test_invariants_rejected(self):
        with pytest.raises(InputError):
            HarmonicPotential(omega0=0.0)
        with pytest.raises(InputError):
            EquispacedLogPotential(n_ions=1, spacing=4.4e-6)
        with pytest.raises(InputError):
            EquispacedLogPotential(n_ions=10, spacing=-1e-6)
        with pytest.raises(InputError):
            QuadQuarticPotential(a2=-1.0, a4=0.0)


# ----------------------------------------------------------------------
# equilibrium
# ----------------------------------------------------------------------

class TestFindEquilibrium:
    def test_two_ion_harmonic_separation(self):
        chain = find_equilibrium(YB171, HARMONIC, 2)
        length = HARMONIC.unit_length(YB171)
        separation = chain.positions[1] - chain.positions[0]
        assert separation == pytest.approx(2.0 ** (1.0 / 3.0) * length, rel=1e-12)

    def test_gradient_below_tolerance(self):
        for pot, n in [
            (HARMONIC, 7),
            (EquispacedLogPotential(12, 4.4e-6), 12),
            (QuadQuarticPotential(a2=1e-14, a4=2e-3), 6),
        ]:
            chain = find_equilibrium(YB171, pot, n)
            scale = YB171.coulomb_energy_scale / pot.unit_length(YB171) ** 2
            assert np.max(np.abs(chain_gradient(chain))) < 1e-12 * scale

    def test_harmonic_five_ions_vs_coordinate_descent(self):
        chain = find_equilibrium(YB171, HARMONIC, 5)
        length = HARMONIC.unit_length(YB171)
        start = np.linspace(-3, 3, 5) * length
        oracle = coordinate_descent_minimum(start, HARMONIC, YB171)
        assert np.max(np.abs(chain.positions - oracle)) < 1e-6 * length

    @pytest.mark.parametrize("n", [2, 10, 25, 60])
    def test_equispaced_deviation_small(self, n):
        chain = find_equilibrium(YB171, EquispacedLogPotential(n, 4.4e-6))
        assert spacing_deviation(chain) <= 0.02

    def test_deviation_of_non_finite_positions_raises(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(5, 4.4e-6))
        broken = EquilibriumChain(YB171, chain.potential, np.array([0.0, np.nan, 1.0, 2.0, 3.0]))
        with pytest.raises(SolverError):
            spacing_deviation(broken)

    def test_pure_quartic_converges(self):
        pot = QuadQuarticPotential(a2=0.0, a4=5e-3)
        chain = find_equilibrium(YB171, pot, 5)
        assert np.all(np.diff(chain.positions) > 0)

    def test_double_well_converges(self):
        pot = QuadQuarticPotential(a2=-2e-15, a4=5e-3)
        chain = find_equilibrium(YB171, pot, 4)
        assert np.all(np.diff(chain.positions) > 0)

    def test_single_ion_sits_at_trap_center(self):
        chain = find_equilibrium(YB171, HARMONIC, 1)
        assert abs(chain.positions[0]) < 1e-15

    def test_n_ions_mismatch_rejected(self):
        with pytest.raises(InputError):
            find_equilibrium(YB171, EquispacedLogPotential(10, 4.4e-6), 12)

    def test_positions_sorted(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(9, 4.4e-6))
        assert np.all(np.diff(chain.positions) > 0)

    def test_non_convergence_reports_residual(self):
        from ionchain.errors import SolverError

        with pytest.raises(SolverError) as excinfo:
            find_equilibrium(YB171, HARMONIC, 30, max_iterations=2)
        assert excinfo.value.residual is not None
        assert excinfo.value.residual > 0


# ----------------------------------------------------------------------
# curvature matrix
# ----------------------------------------------------------------------

class TestHessianMatrix:
    def test_two_ion_harmonic_eigenvalues(self):
        chain = find_equilibrium(YB171, HARMONIC, 2)
        eigenvalues = np.linalg.eigvalsh(hessian_matrix(chain))
        assert eigenvalues == pytest.approx([1.0, 3.0], rel=1e-10)

    def test_coulomb_rows_sum_to_zero(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(8, 4.4e-6))
        Q = hessian_matrix(chain)
        _, _, curv = chain.potential.evaluate(chain.positions, YB171)
        trap_diag = curv * chain.unit_length**3 / YB171.coulomb_energy_scale
        coulomb = Q - np.diag(trap_diag)
        assert np.max(np.abs(coulomb.sum(axis=1))) < 1e-12 * np.max(np.abs(Q))

    @pytest.mark.parametrize(
        "pot,n",
        [
            (EquispacedLogPotential(25, 4.4e-6), 25),
            (HarmonicPotential(OMEGA), 8),
            (QuadQuarticPotential(a2=1.0e-14, a4=2.0e-3), 7),
        ],
    )
    def test_matches_finite_difference_hessian(self, pot, n):
        chain = find_equilibrium(YB171, pot, n)
        length = pot.unit_length(YB171)
        fd = chain_hessian_fd(chain.positions, pot, YB171, h=1e-5 * length)
        Q = hessian_matrix(chain) * YB171.coulomb_energy_scale / length**3
        assert np.max(np.abs(Q - fd) / np.abs(Q)) < 1e-6

    def test_coincident_positions_rejected(self):
        chain = EquilibriumChain(
            species=YB171, potential=HARMONIC, positions=np.array([0.0, 0.0])
        )
        with pytest.raises(DegenerateChainError):
            hessian_matrix(chain)

    def test_symmetry_and_positive_definiteness(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6))
        Q = hessian_matrix(chain)
        assert np.max(np.abs(Q - Q.T)) == 0.0
        assert np.linalg.eigvalsh(Q)[0] > 0


# ----------------------------------------------------------------------
# normal modes
# ----------------------------------------------------------------------

class TestNormalModes:
    def test_three_ion_harmonic_frequencies(self):
        chain = find_equilibrium(YB171, HARMONIC, 3)
        modes = normal_modes(chain)
        expected = OMEGA * np.array([1.0, np.sqrt(3.0), np.sqrt(29.0 / 5.0)])
        assert np.max(np.abs(modes.frequencies / expected - 1.0)) < 1e-9

    def test_harmonic_com_mode_uniform(self):
        modes = normal_modes(find_equilibrium(YB171, HARMONIC, 10))
        assert modes.frequencies[0] == pytest.approx(OMEGA, rel=1e-10)
        assert np.allclose(modes.participation[:, 0], 10**-0.5, atol=1e-10)

    @pytest.mark.parametrize(
        "pot,n",
        [
            (HarmonicPotential(OMEGA), 20),
            (EquispacedLogPotential(15, 4.4e-6), 15),
            (QuadQuarticPotential(a2=1e-14, a4=2e-3), 9),
        ],
    )
    def test_participation_orthonormal(self, pot, n):
        modes = normal_modes(find_equilibrium(YB171, pot, n))
        b = modes.participation
        assert np.max(np.abs(b @ b.T - np.eye(n))) < 1e-10
        assert np.max(np.abs(b.T @ b - np.eye(n))) < 1e-10

    def test_sign_convention(self):
        modes = normal_modes(find_equilibrium(YB171, EquispacedLogPotential(12, 4.4e-6)))
        sums = modes.participation.sum(axis=0)
        for m, s in enumerate(sums):
            if abs(s) > 1e-12:
                assert s > 0
            else:
                col = modes.participation[:, m]
                first = col[np.abs(col) > 1e-12][0]
                assert first > 0

    def test_frequencies_ascending(self):
        modes = normal_modes(find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6)))
        assert np.all(np.diff(modes.frequencies) >= 0)

    def test_equispaced_15_lowest_mode_near_reference(self):
        modes = normal_modes(find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6)))
        f0_khz = modes.frequencies[0] / (2 * np.pi) / 1e3
        assert abs(f0_khz - 193.0) / 193.0 < 0.20

    def test_unstable_configuration_raises(self):
        # stationary two-ion configuration engineered to sit in a concave
        # region of the trap: force balance holds but the in-phase curvature
        # is negative, so the mode matrix is not positive definite
        s = 10e-6
        kq = K_COULOMB * YB171.charge_coulomb**2
        a4 = -2e-4
        a2 = (kq / (4 * s**2) - 4 * a4 * s**3) / (2 * s)
        pot = QuadQuarticPotential(a2=a2, a4=a4)
        chain = EquilibriumChain(
            species=YB171, potential=pot, positions=np.array([-s, s])
        )
        residual = np.max(np.abs(chain_gradient(chain)))
        assert residual < 1e-20  # genuinely stationary by construction
        with pytest.raises(UnstableChainError):
            normal_modes(chain)

    def test_single_ion_modes(self):
        modes = single_ion_modes(YB171, OMEGA)
        assert modes.frequencies[0] == OMEGA
        assert modes.participation[0, 0] == 1.0
        assert modes.uniform_drive_weights()[0] == 1.0


# ----------------------------------------------------------------------
# lowest-mode scan
# ----------------------------------------------------------------------

class TestLowestModeScan:
    def test_consistent_with_normal_modes(self):
        scan = lowest_mode_scan(YB171, 4.4e-6, [2])
        modes = normal_modes(find_equilibrium(YB171, EquispacedLogPotential(2, 4.4e-6)))
        assert scan[0, 1] == pytest.approx(modes.frequencies[0], rel=1e-14)

    def test_monotone_decreasing(self):
        scan = lowest_mode_scan(YB171, 4.4e-6, [2, 5, 10, 20, 40])
        assert np.all(np.diff(scan[:, 1]) < 0)

    def test_shape_independent_of_mass_and_spacing(self):
        calcium = IonSpecies.from_amu(39.96259086, label="40Ca+")
        n_list = [3, 8, 21]
        scan_a = lowest_mode_scan(YB171, 4.4e-6, n_list)
        scan_b = lowest_mode_scan(calcium, 2.0e-6, n_list)
        unit_a = np.sqrt(YB171.coulomb_energy_scale / (YB171.mass * 4.4e-6**3))
        unit_b = np.sqrt(calcium.coulomb_energy_scale / (calcium.mass * 2.0e-6**3))
        assert np.allclose(scan_a[:, 1] / unit_a, scan_b[:, 1] / unit_b, rtol=1e-12)

    def test_rejects_single_ion(self):
        with pytest.raises(InputError):
            lowest_mode_scan(YB171, 4.4e-6, [1, 5])
