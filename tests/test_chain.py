import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from helpers import (
    central_diff,
    chain_gradient_direct,
    chain_hessian_fd,
    coordinate_descent_minimum,
)

from ionchain import (
    EquilibriumChain,
    EquispacedLogPotential,
    HarmonicPotential,
    QuadQuarticPotential,
    YB171,
    find_equilibrium,
    hessian_matrix,
    normal_modes,
    single_ion_modes,
    spacing_deviation,
)
from ionchain import chain as chain_module
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
            grad = chain_gradient_direct(chain.positions, pot, YB171)
            assert np.max(np.abs(grad)) < 1e-12 * scale

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

    @pytest.mark.parametrize(
        "a2, a4, n",
        [
            # odd chains the mirror-symmetric start left on the barrier
            (-1e-13, 1e-5, 1),
            (-1e-14, 1e-6, 3),
            (-10**-13.5, 1e-6, 25),
            (-10**-13.5, 10**-5.5, 15),
            (-1e-13, 1e-5, 15),
            # deep wells far outside the quartic start, which stalled
            (-10**-13.5, 1e-6, 2),
            (-1e-13, 1e-6, 10),
            (-1e-13, 10**-5.5, 25),
        ],
    )
    def test_double_well_chain_starts_and_ends_in_the_wells(self, a2, a4, n):
        chain = find_equilibrium(YB171, QuadQuarticPotential(a2=a2, a4=a4), n)
        assert chain.criterion == "tolerance"
        normal_modes(chain)  # a minimum, not a saddle
        assert np.count_nonzero(chain.positions < 0) == n // 2

    def test_single_ion_sits_at_trap_center(self):
        chain = find_equilibrium(YB171, HARMONIC, 1)
        assert abs(chain.positions[0]) < 1e-15

    def test_n_ions_mismatch_rejected(self):
        with pytest.raises(InputError):
            find_equilibrium(YB171, EquispacedLogPotential(10, 4.4e-6), 12)

    @pytest.mark.parametrize("n", [2.5, 40.0, 15.0])
    def test_non_integer_ion_count_rejected(self, n):
        with pytest.raises(InputError, match=repr(n)):
            find_equilibrium(YB171, HARMONIC, n)

    def test_non_integer_equispaced_ion_count_rejected(self):
        with pytest.raises(InputError, match="15.5"):
            EquispacedLogPotential(15.5, 4.4e-6)
        with pytest.raises(InputError, match="15.0"):
            find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6), 15.0)

    def test_numpy_integer_ion_count_solves_as_int(self):
        for pot, n in [(HARMONIC, 15), (EquispacedLogPotential(15, 4.4e-6), 15)]:
            want = find_equilibrium(YB171, pot, n).positions
            assert np.array_equal(find_equilibrium(YB171, pot, np.int64(n)).positions, want)
        want = find_equilibrium(YB171, EquispacedLogPotential(15, 4.4e-6)).positions
        got = find_equilibrium(YB171, EquispacedLogPotential(np.int64(15), 4.4e-6)).positions
        assert np.array_equal(got, want)

    def test_positions_sorted(self):
        chain = find_equilibrium(YB171, EquispacedLogPotential(9, 4.4e-6))
        assert np.all(np.diff(chain.positions) > 0)

    def test_non_convergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(chain_module, "MAX_ITERATIONS", 2)
        with pytest.raises(SolverError) as excinfo:
            find_equilibrium(YB171, HARMONIC, 30)
        assert excinfo.value.residual is not None
        assert excinfo.value.residual > 0

    def test_single_ion_gradient_and_curvature_are_the_trap_terms(self):
        chain = find_equilibrium(YB171, HARMONIC, 1)
        _, grad, curv = HARMONIC.evaluate(chain.positions, YB171)
        length = chain.unit_length
        grad_curv, _ = chain_module._scaled_trap(HARMONIC, YB171)
        kernel_grad = chain_module._chain_terms(chain.positions / length, grad_curv, 1)[0]
        assert np.array_equal(kernel_grad * (YB171.coulomb_energy_scale / length**2), grad)
        expected = curv * (length**3 / YB171.coulomb_energy_scale)
        assert np.array_equal(hessian_matrix(chain), expected[None, :])


def _patch_first_solve(monkeypatch, first):
    """Let ``first(solve, H, b)`` stand in for the solver's first Newton
    solve; later solves are the real ones."""
    solve = np.linalg.solve
    calls = []

    def patched(H, b):
        calls.append(b)
        return first(solve, H, b) if len(calls) == 1 else solve(H, b)

    monkeypatch.setattr(chain_module.np.linalg, "solve", patched)
    return calls


def _record_kernel_points(monkeypatch):
    """Positions at which the solver evaluates its gradient kernel."""
    kernel = chain_module._chain_terms
    points = []

    def recorded(u, grad_curv, n_rows):
        points.append(u.copy())
        return kernel(u, grad_curv, n_rows)

    monkeypatch.setattr(chain_module, "_chain_terms", recorded)
    return points


def _is_steepest_descent_from(point, start, g):
    """point = start - s g for some s > 0."""
    s = np.dot(start - point, g) / np.dot(g, g)
    return s > 0 and np.allclose(point, start - s * g, rtol=0, atol=1e-14)


class TestNewtonFallbacks:
    """The solver's fallback paths, each forced on the first iterate."""

    POT, N = HarmonicPotential(OMEGA), 4

    def _solve(self):
        chain = find_equilibrium(YB171, self.POT, self.N)
        assert chain.residual < chain_module.GRADIENT_TOLERANCE
        assert np.all(np.diff(chain.positions) > 0)
        return chain

    def test_singular_hessian_falls_back_to_steepest_descent(self, monkeypatch):
        def singular(solve, H, b):
            raise np.linalg.LinAlgError("Singular matrix")

        calls = _patch_first_solve(monkeypatch, singular)
        points = _record_kernel_points(monkeypatch)
        chain = self._solve()
        g0 = -calls[0]
        assert _is_steepest_descent_from(points[1], points[0], g0)
        reference = find_equilibrium(YB171, self.POT, self.N)
        assert np.allclose(chain.positions, reference.positions, rtol=1e-12, atol=0)

    def test_ascent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        def uphill(solve, H, b):
            return -solve(H, b)

        calls = _patch_first_solve(monkeypatch, uphill)
        points = _record_kernel_points(monkeypatch)
        self._solve()
        assert _is_steepest_descent_from(points[1], points[0], -calls[0])

    @pytest.mark.parametrize(
        "pot,n",
        [
            (HarmonicPotential(OMEGA), 5),
            (EquispacedLogPotential(6, 4.4e-6), 6),
            (QuadQuarticPotential(a2=-2e-15, a4=5e-3), 4),
            # with one BLAS thread its last Newton step is 16.5 eps max|u|
            (HarmonicPotential(2 * np.pi * 100e3), 244),
            (QuadQuarticPotential(a2=0.0, a4=1e-3), 300),
            (QuadQuarticPotential(a2=1e-14, a4=2e-3), 35),
        ],
    )
    def test_stall_at_the_roundoff_floor_carries_residual_and_positions(
        self, monkeypatch, pot, n
    ):
        # with no tolerance to meet, the solve runs into the roundoff floor,
        # where no step along the Newton direction lowers the residual and
        # that step is below N eps max|u|; it returns that iterate, says
        # which criterion it met, and its residual is within the gradient's
        # own round-off level
        monkeypatch.setattr(chain_module, "GRADIENT_TOLERANCE", 0.0)
        chain = find_equilibrium(YB171, pot, n)
        assert chain.criterion == "roundoff_floor"
        u = chain.positions / chain.unit_length
        grad_curv, _ = chain_module._scaled_trap(pot, YB171)
        g_trap = grad_curv(u)[0]
        r = u[:, None] - u[None, :]
        np.fill_diagonal(r, np.inf)
        floor = n * np.finfo(float).eps * np.max(np.abs(g_trap) + np.sum(1.0 / (r * r), axis=1))
        assert 0 <= chain.residual <= floor
        assert len(chain.positions) == n
        assert np.all(np.diff(chain.positions) > 0)

    @settings(max_examples=12, deadline=None, database=None, derandomize=True)
    @given(
        kind=st.sampled_from(["harmonic", "quad_quartic", "pure_quartic", "equispaced"]),
        n=st.integers(2, 120),
    )
    def test_no_backtrack_evaluates_the_kernel_twice_at_one_point(self, kind, n):
        # with no tolerance to meet, the solve runs into the roundoff floor,
        # where a line search's halved steps round back onto the iterate
        pot = {
            "harmonic": HarmonicPotential(2 * np.pi * 100e3),
            "quad_quartic": QuadQuarticPotential(1e-14, 2e-3),
            "pure_quartic": QuadQuarticPotential(0.0, 1e-3),
            "equispaced": EquispacedLogPotential(n, 4.4e-6),
        }[kind]
        kernel = chain_module._chain_terms
        searches = {}  # one line search (a backtrack call) -> its kernel points

        def recorded(u, grad_curv, n_rows):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "backtrack":  # held, so no id is reused
                searches.setdefault(id(caller), (caller, []))[1].append(u.tobytes())
            return kernel(u, grad_curv, n_rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chain_module, "GRADIENT_TOLERANCE", 0.0)
            patch.setattr(chain_module, "_chain_terms", recorded)
            try:
                assert find_equilibrium(YB171, pot, n).criterion == "roundoff_floor"
            except SolverError as error:
                # or it runs out of iterations while the residual still falls
                # by a few percent a step (an odd chain's centre ion near 1e-18)
                assert "not converged" in str(error)
        assert searches
        for _, points in searches.values():
            assert len(set(points)) == len(points)

    def test_stall_above_the_roundoff_floor_raises_with_residual_and_positions(self, monkeypatch):
        # every trial point reports an infinite gradient, so the solve stalls
        # at its uniformly spaced start, far above the roundoff floor (about
        # 1e-15 for these four ions)
        kernel = chain_module._chain_terms
        starts = []

        def refusing(u, grad_curv, n_rows):
            g, a, c_trap = kernel(u, grad_curv, n_rows)
            starts.append((u.copy(), float(np.abs(g).max())))
            return (g if len(starts) == 1 else np.full_like(g, np.inf)), a, c_trap

        monkeypatch.setattr(chain_module, "_chain_terms", refusing)
        with pytest.raises(SolverError, match="equilibrium search stalled") as excinfo:
            find_equilibrium(YB171, self.POT, self.N)
        error = excinfo.value
        (start, residual), length = starts[0], self.POT.unit_length(YB171)
        assert error.residual == residual > 1e-6
        assert np.array_equal(error.positions, start * length)


def _scaled_energy_minimum(pot, n):
    """Positions (m) of the chain-energy minimum from scipy's BFGS on the
    energy in units of q^2/(4 pi eps0 L), sorted: the minimum is unique up
    to relabelling the ions."""
    length, k = pot.unit_length(YB171), YB171.coulomb_energy_scale

    def energy(u):
        v, g, _ = pot.evaluate(u * length, YB171)
        r = u[:, None] - u[None, :]
        np.fill_diagonal(r, np.inf)
        value = v.sum() * length / k + 0.5 * np.sum(1.0 / np.abs(r))
        return value, g * length * length / k - np.sum(np.sign(r) / (r * r), axis=1)

    result = minimize(energy, np.linspace(-n, n, n), jac=True, method="BFGS", options={"gtol": 1e-10})
    return np.sort(result.x) * length


def _solved_or_raised(pot, n, check_modes=True):
    """The chain find_equilibrium returns, checked to be ordered, finite and
    (with ``check_modes``) stable with orthonormal participation; or None
    when the solve raised a SolverError carrying its residual and positions."""
    try:
        chain = find_equilibrium(YB171, pot, n)
    except SolverError as error:
        assert math.isfinite(error.residual) and error.residual > 0
        assert error.positions.shape == (n,)
        return None
    x = chain.positions
    assert x.shape == (n,) and np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)
    assert chain.criterion in ("tolerance", "roundoff_floor")
    if check_modes:
        b = normal_modes(chain).participation
        assert np.allclose(b.T @ b, np.eye(n), rtol=0, atol=1e-12)
    return chain


class TestSolveProperties:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        double_well=st.booleans(),
        log_a2=st.floats(-16.0, -13.0),
        log_a4=st.floats(-6.0, -3.0),
        n=st.one_of(st.integers(2, 6), st.integers(7, 300)),
    )
    def test_solve_returns_a_stable_ordered_chain_or_raises(self, double_well, log_a2, log_a4, n):
        a2 = (-1.0 if double_well else 1.0) * 10.0**log_a2
        pot = QuadQuarticPotential(a2=a2, a4=10.0**log_a4)
        # a double well on the parity path may still end on the symmetric
        # saddle; below it, the chain starts in the wells
        may_end_on_saddle = double_well and n >= chain_module._PARITY_MIN_IONS
        chain = _solved_or_raised(pot, n, check_modes=not may_end_on_saddle)
        if chain is not None and n <= 6 and not double_well:
            # the energy is strictly convex on the ordered cone for a2 >= 0
            oracle = _scaled_energy_minimum(pot, n)
            x = chain.positions
            assert np.max(np.abs(x - oracle)) <= 1e-7 * (x[-1] - x[0])

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        equispaced=st.booleans(),
        log_f=st.floats(5.0, 6.0),
        n=st.one_of(st.integers(2, 39), st.integers(40, 500)),
    )
    @example(equispaced=False, log_f=5.0, n=500)
    @example(equispaced=True, log_f=5.0, n=500)
    def test_harmonic_and_equispaced_solves_return_stable_chains_or_raise(
        self, equispaced, log_f, n
    ):
        # harmonic traps from 100 kHz to 1 MHz, 4.4 um equispaced chains
        if equispaced:
            pot = EquispacedLogPotential(n, 4.4e-6)
        else:
            pot = HarmonicPotential(2 * np.pi * 10.0**log_f)
        _solved_or_raised(pot, n)


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
        residual = np.max(np.abs(chain_gradient_direct(chain.positions, pot, YB171)))
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
    @staticmethod
    def lowest_modes(species, spacing, n_list):
        return np.array(
            [
                normal_modes(
                    find_equilibrium(species, EquispacedLogPotential(n, spacing))
                ).frequencies[0]
                for n in n_list
            ]
        )

    def test_monotone_decreasing(self):
        omega = self.lowest_modes(YB171, 4.4e-6, [2, 5, 10, 20, 40])
        assert np.all(np.diff(omega) < 0)

    def test_shape_independent_of_mass_and_spacing(self):
        calcium = IonSpecies.from_amu(39.96259086, label="40Ca+")
        n_list = [3, 8, 21]
        omega_a = self.lowest_modes(YB171, 4.4e-6, n_list)
        omega_b = self.lowest_modes(calcium, 2.0e-6, n_list)
        unit_a = np.sqrt(YB171.coulomb_energy_scale / (YB171.mass * 4.4e-6**3))
        unit_b = np.sqrt(calcium.coulomb_energy_scale / (calcium.mass * 2.0e-6**3))
        assert np.allclose(omega_a / unit_a, omega_b / unit_b, rtol=1e-12)


# ----------------------------------------------------------------------
# the solver's kernels against the formulas they replace, bit for bit
# ----------------------------------------------------------------------

def _old_gradient(u, grad_curv):
    g_trap, _ = grad_curv(u)
    r = u[:, None] - u[None, :]
    np.fill_diagonal(r, np.inf)
    return g_trap + -np.sum(np.sign(r) / (r * r), axis=1)


def _old_hessian(u, grad_curv):
    _, c_trap = grad_curv(u)
    r = u[:, None] - u[None, :]
    np.fill_diagonal(r, np.inf)
    off = -2.0 / np.abs(r) ** 3
    H = off.copy()
    np.fill_diagonal(H, c_trap - off.sum(axis=1))
    return H


def _old_fix_signs(vectors):
    out = vectors.copy()
    for m in range(out.shape[1]):
        s = out[:, m].sum()
        if s < -1e-12:
            out[:, m] = -out[:, m]
        elif abs(s) <= 1e-12:
            nonzero = np.nonzero(np.abs(out[:, m]) > 1e-12)[0]
            if len(nonzero) and out[nonzero[0], m] < 0:
                out[:, m] = -out[:, m]
    return out


POTENTIAL_KINDS = {
    "harmonic": lambda n: HarmonicPotential(2 * np.pi * 100e3),
    "quad_quartic": lambda n: QuadQuarticPotential(a2=1e-14, a4=2e-3),
    "pure_quartic": lambda n: QuadQuarticPotential(a2=0.0, a4=1e-3),
    "double_well": lambda n: QuadQuarticPotential(a2=-2e-15, a4=5e-3),
    "equispaced": lambda n: EquispacedLogPotential(n, 4.4e-6),
}
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@st.composite
def scaled_chains(draw, min_n=2):
    """A potential and N = min_n..400 sorted, distinct positions (SI) whose
    scaled values u = x / L span a drawn width inside the domain."""
    kind = draw(st.sampled_from(sorted(POTENTIAL_KINDS)))
    n = draw(st.integers(min_n, 400))
    pot = POTENTIAL_KINDS[kind](max(n, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    halfwidth = 0.5 * n * 0.999 if kind == "equispaced" else draw(st.floats(1e-3, 100.0))
    rng = np.random.default_rng(seed)
    u = np.unique(rng.uniform(-halfwidth, halfwidth, n))
    length = pot.unit_length(YB171)
    x = u * length
    if len(x) < n or np.any(np.diff(x / length) <= 0):
        x = np.linspace(-halfwidth, halfwidth, n) * length
    return EquilibriumChain(YB171, pot, x)


def _per_iterate_scaled_trap(potential, species):
    """_scaled_trap's gradient/curvature with the unit ratios formed per call,
    and the harmonic curvature column built by broadcast_to().copy()."""
    L = potential.unit_length(species)
    k = species.coulomb_energy_scale

    def evaluate(x):
        if isinstance(potential, HarmonicPotential):
            kh = species.mass * potential.omega0**2
            return 0.5 * kh * x * x, kh * x, np.broadcast_to(kh, x.shape).copy()
        return potential.evaluate(x, species)

    def grad_curv(u):
        _, g, c = evaluate(u * L)
        return g * (L * L / k), c * (L**3 / k)

    return grad_curv


class TestKernelsBitForBit:
    @PROPERTY_SETTINGS
    @given(scaled_chains(min_n=1))
    def test_chain_terms_and_hessian_match_the_old_formulas(self, chain):
        u = chain.positions / chain.unit_length
        grad_curv, _ = chain_module._scaled_trap(chain.potential, YB171)
        old_grad_curv = _per_iterate_scaled_trap(chain.potential, YB171)
        for new, old in zip(grad_curv(u), old_grad_curv(u)):
            assert new.dtype == old.dtype and np.array_equal(new, old)
        g, a, c_trap = chain_module._chain_terms(u, grad_curv, len(u))
        assert np.array_equal(g, _old_gradient(u, old_grad_curv))
        assert np.array_equal(chain_module._hessian_from(a, c_trap), _old_hessian(u, old_grad_curv))

    @PROPERTY_SETTINGS
    @given(
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
        st.floats(1e-9, 1e-4),
        st.floats(2 * np.pi * 1e4, 2 * np.pi * 1e7),
    )
    def test_harmonic_curvature_column_is_the_broadcast_copy(self, n, seed, width, omega0):
        x = np.random.default_rng(seed).uniform(-width, width, n)
        trap = HarmonicPotential(omega0)
        value, grad, curv = trap.evaluate(x, YB171)
        k = YB171.mass * omega0**2
        expected = np.broadcast_to(k, x.shape).copy()
        assert curv.dtype == expected.dtype and np.array_equal(curv, expected)
        assert curv.flags.writeable
        assert np.array_equal(value, 0.5 * k * x * x) and np.array_equal(grad, k * x)

    @PROPERTY_SETTINGS
    @given(scaled_chains())
    def test_gradient_and_hessian_match_the_old_formulas(self, chain):
        grad_curv, _ = chain_module._scaled_trap(chain.potential, YB171)
        length = chain.unit_length
        u = chain.positions / length
        g = chain_module._chain_terms(u, grad_curv, len(u))[0]
        assert np.array_equal(g, _old_gradient(u, grad_curv))
        assert np.array_equal(hessian_matrix(chain), _old_hessian(u, grad_curv))

    @PROPERTY_SETTINGS
    @given(scaled_chains(), st.floats(0.0, 1.0))
    def test_kernel_rows_are_the_last_rows_of_the_whole_kernel(self, chain, share):
        u = chain.positions / chain.unit_length
        grad_curv, _ = chain_module._scaled_trap(chain.potential, YB171)
        n_rows = max(1, round(share * len(u)))
        g, a, c_trap = chain_module._chain_terms(u, grad_curv, n_rows)
        g_all, a_all, c_all = chain_module._chain_terms(u, grad_curv, len(u))
        assert np.array_equal(g, g_all[-n_rows:]) and np.array_equal(c_trap, c_all[-n_rows:])
        H, H_all = chain_module._hessian_from(a, c_trap), chain_module._hessian_from(a_all, c_all)
        assert np.array_equal(H, H_all[-n_rows:])
        assert np.array_equal(chain_module._hessian_rows(chain, n_rows), hessian_matrix(chain)[-n_rows:])

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(2, 400),
        seed=st.integers(0, 2**32 - 1),
        special=st.lists(st.sampled_from(["pair", "lead", "tiny", "flipped"]), max_size=4),
        layout=st.sampled_from("CF"),
    )
    def test_sign_rule_matches_the_column_loop(self, n, seed, special, layout):
        rng = np.random.default_rng(seed)
        vectors, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for m, kind in enumerate(special[:n]):
            col = np.zeros(n)
            i, j = rng.choice(n, 2, replace=False)
            if kind == "pair":  # exact-zero sum, either sign leading
                col[min(i, j)], col[max(i, j)] = (-1.0, 1.0) if rng.random() < 0.5 else (1.0, -1.0)
                col *= np.sqrt(0.5)
            elif kind == "lead":  # a tie behind sub-threshold entries, then -0.5
                lo, hi = min(i, j), max(i, j)
                col[:lo] = 1e-13 * (-1.0) ** np.arange(lo)
                col[lo], col[hi] = -0.5, 0.5
            elif kind == "tiny":  # every entry at or below the tie threshold
                col[:] = rng.uniform(-1e-12, 1e-12, n)
                col[i] = -1e-12
            else:  # the column of a drawn orthogonal matrix, negated
                col = -vectors[:, m]
            vectors[:, m] = col
        vectors = np.asarray(vectors, order=layout)
        expected = _old_fix_signs(vectors)  # before _fix_signs flips vectors in place
        out = chain_module._fix_signs(vectors)
        assert out is vectors and np.array_equal(out, expected)
        assert out.flags.c_contiguous == (layout == "C")
        assert out.flags.f_contiguous == (layout == "F")


# ----------------------------------------------------------------------
# the parity-reduced path against the full path
# ----------------------------------------------------------------------

EPS = np.finfo(float).eps


def _on_both_paths(f, *args):
    """f(*args) as the library runs it, then with every chain on the full
    path (no parity reduction at any size)."""
    result = f(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_PARITY_MIN_IONS", math.inf)
        return result, f(*args)


def _has_mirror_parity(column):
    return np.array_equal(column[::-1], column) or np.array_equal(column[::-1], -column)


class TestParityPath:
    @settings(max_examples=16, deadline=None, database=None, derandomize=True)
    @given(
        st.sampled_from(sorted(POTENTIAL_KINDS)),
        st.integers(chain_module._PARITY_MIN_IONS, 500),
    )
    def test_parity_path_matches_the_full_path(self, kind, n):
        pot = POTENTIAL_KINDS[kind](n)
        chain, full_chain = _on_both_paths(find_equilibrium, YB171, pot, n)
        # both converge (find_equilibrium raises otherwise), possibly at the
        # roundoff floor, and agree to roundoff of the chain extent
        x = chain.positions
        assert np.array_equal(x, -x[::-1])
        assert np.max(np.abs(x - full_chain.positions)) <= 1e-12 * (x[-1] - x[0])

        modes, full_modes = _on_both_paths(normal_modes, chain)
        lam = np.linalg.eigvalsh(hessian_matrix(chain))
        # eigh is backward stable: its eigenvalues are exact for a matrix
        # within p(N) eps |Q| of Q (LAPACK Users' Guide, section 4.7), taken
        # here as p(N) = N.  The parity path's two half-size eigh calls
        # (N/2 each) plus the one rounding of A +- B.J and of the sqrt 2
        # scalings stay inside that, so by Weyl's inequality the two paths'
        # eigenvalues differ by at most 2 N eps |Q|, c = 2 for two solves.
        # |Q| = lam[-1] for the positive definite Q, and omega ~ sqrt(lambda)
        # moves by half of lambda's relative change.
        spread = 2 * n * EPS * lam[-1]
        allowed = np.maximum(1e-12, 0.5 * spread / lam)
        assert np.all(np.abs(modes.frequencies / full_modes.frequencies - 1) <= allowed)

        # Participation agrees as subspaces: modes closer than sqrt(eps) |Q|
        # form one cluster, and by the Davis-Kahan sin-theta theorem the
        # angle between the two clusters' spans, |(1 - P) P_full|, is at
        # most spread / (gap to the other modes).
        b, b_full = modes.participation, full_modes.participation
        cuts = np.flatnonzero(np.diff(lam) > math.sqrt(EPS) * lam[-1]) + 1
        for cluster in np.split(np.arange(n), cuts):
            lo, hi = cluster[0], cluster[-1]
            gap = min(lam[lo] - lam[lo - 1] if lo else np.inf, lam[hi + 1] - lam[hi] if hi < n - 1 else np.inf)
            span, span_full = b[:, cluster], b_full[:, cluster]
            outside = span_full - span @ (span.T @ span_full)
            assert np.linalg.norm(outside, 2) <= spread / gap

        # every mode vector has exact mirror parity, and the odd ones sum to
        # zero within the sign rule's tie threshold
        assert all(_has_mirror_parity(b[:, m]) for m in range(n))
        odd = [m for m in range(n) if np.array_equal(b[::-1, m], -b[:, m])]
        assert len(odd) == n // 2
        assert np.all(np.abs(b[:, odd].sum(axis=0)) <= chain_module._SIGN_TIE_EPS)

    def test_below_the_crossover_every_chain_takes_the_full_path(self):
        # the crossover keeps the golden chains (N <= 25 at full precision)
        # on the full path, bit for bit
        assert chain_module._PARITY_MIN_IONS > 25
        for kind in sorted(POTENTIAL_KINDS):
            for n in range(2, chain_module._PARITY_MIN_IONS):
                pot = POTENTIAL_KINDS[kind](n)
                chain, full_chain = _on_both_paths(find_equilibrium, YB171, pot, n)
                assert np.array_equal(chain.positions, full_chain.positions)
                modes, full_modes = _on_both_paths(normal_modes, chain)
                assert np.array_equal(modes.frequencies, full_modes.frequencies)
                assert np.array_equal(modes.participation, full_modes.participation)

    @pytest.mark.parametrize("n", [40, 41])
    def test_a_chain_that_is_not_exactly_antisymmetric_takes_the_full_path(self, n):
        chain = find_equilibrium(YB171, EquispacedLogPotential(n, 4.4e-6))
        shifted = EquilibriumChain(YB171, chain.potential, chain.positions + 1e-9)
        modes, full_modes = _on_both_paths(normal_modes, shifted)
        assert np.array_equal(modes.participation, full_modes.participation)
        assert not all(_has_mirror_parity(c) for c in modes.participation.T)
