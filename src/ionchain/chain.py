"""Axial trap potentials, ion-chain equilibria and normal modes.

A linear chain of ions in a confining axial potential V(x) has total energy

    E(x_1..x_N) = sum_i V(x_i) + sum_{i<j} q^2 / (4 pi eps0 |x_i - x_j|).

This module finds the equilibrium positions, builds the dimensionless
curvature (Hessian) matrix Q around them and diagonalizes it.  With L the
unit length of the potential and ``omega_u = sqrt(q^2/(4 pi eps0 M L^3))``
the unit frequency, the axial mode frequencies are ``omega_m =
omega_u * sqrt(lambda_m)`` where lambda_m are the eigenvalues of Q.  The
orthonormal eigenvectors b[i, m] give the participation of ion i in mode m.

All public quantities are SI unless stated otherwise.  The solver works in
units of L internally, so the convergence tolerance is expressed relative to
the characteristic Coulomb force q^2/(4 pi eps0 L^2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import IonSpecies
from .errors import (
    DegenerateChainError,
    DomainError,
    InputError,
    SolverError,
    UnstableChainError,
)

GRADIENT_TOLERANCE = 1e-12
"""Equilibrium criterion: max |dE/dx_i| below this, in characteristic-force
units q^2/(4 pi eps0 L^2).  L is the potential's unit length, so the same
tolerance is a different force for each trap; a solve whose Newton step is
below round-off before the residual gets there stops at the round-off floor
instead (see :func:`find_equilibrium`)."""

MAX_ITERATIONS = 200
"""Newton iterations :func:`find_equilibrium` takes before it gives up."""

_SIGN_TIE_EPS = 1e-12


@dataclass(frozen=True)
class HarmonicPotential:
    """Harmonic axial confinement V(x) = M omega0^2 x^2 / 2.

    Parameters
    ----------
    omega0 : float
        Angular trap frequency in rad/s, > 0.  A single ion (and the
        center-of-mass mode of any chain) oscillates at omega0, to round-off.
    """

    omega0: float

    def __post_init__(self):
        if not 0 < self.omega0 < math.inf:
            raise InputError(f"harmonic frequency must be positive and finite, got {self.omega0}")

    def evaluate(self, x, species: IonSpecies):
        """Return (value J, gradient J/m, curvature J/m^2) at x (array ok)."""
        x = np.asarray(x, dtype=float)
        k = species.mass * self.omega0**2
        return 0.5 * k * x * x, k * x, np.full(x.shape, k)

    def unit_length(self, species: IonSpecies) -> float:
        """Length where Coulomb repulsion balances the trap force,
        (q^2/(4 pi eps0 M omega0^2))^(1/3)."""
        return (species.coulomb_energy_scale / (species.mass * self.omega0**2)) ** (1.0 / 3.0)

    def domain_halfwidth(self, species: IonSpecies) -> float:
        return math.inf


@dataclass(frozen=True)
class QuadQuarticPotential:
    """Quadratic-plus-quartic confinement V(x) = a2 x^2 + a4 x^4.

    Used to flatten the center of long chains toward uniform spacing.
    ``a2`` may be negative (double well) only if ``a4 > 0``.
    """

    a2: float
    a4: float

    def __post_init__(self):
        if not (math.isfinite(self.a2) and math.isfinite(self.a4)):
            raise InputError(f"a2 and a4 must be finite, got {self.a2}, {self.a4}")
        if not (self.a2 > 0 or self.a4 > 0):
            raise InputError("need a2 > 0 or a4 > 0 for axial confinement")

    def evaluate(self, x, species: IonSpecies):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        value = self.a2 * x2 + self.a4 * x2 * x2
        grad = 2.0 * self.a2 * x + 4.0 * self.a4 * x2 * x
        curv = 2.0 * self.a2 + 12.0 * self.a4 * x2
        return value, grad, curv

    def unit_length(self, species: IonSpecies) -> float:
        k = species.coulomb_energy_scale
        if self.a2 > 0:
            return (k / (2.0 * self.a2)) ** (1.0 / 3.0)
        return (k / (4.0 * self.a4)) ** 0.2

    def domain_halfwidth(self, species: IonSpecies) -> float:
        return math.inf


def _ion_count(n_ions) -> int:
    """``n_ions`` as an int: numpy integers pass, 2.5 and 15.0 do not."""
    try:
        return operator.index(n_ions)
    except TypeError:
        raise InputError(f"the number of ions must be an integer, got {n_ions!r}") from None


@dataclass(frozen=True)
class EquispacedLogPotential:
    """The axial potential that holds an N-ion chain at uniform spacing d.

    In the continuum limit the Coulomb field of a line charge q/d spanning
    [-Nd/2, Nd/2] is exactly cancelled by

        V(x) = q^2/(4 pi eps0 d) * ln[ (N/2)^2 / ((N/2)^2 - (x/d)^2) ],

    so a long chain sits at (nearly) equal spacing.  Valid for |x| < (N/2) d.
    """

    n_ions: int
    spacing: float

    def __post_init__(self):
        object.__setattr__(self, "n_ions", _ion_count(self.n_ions))
        if self.n_ions < 2:
            raise InputError(f"equispaced potential needs n_ions >= 2, got {self.n_ions}")
        if not 0 < self.spacing < math.inf:
            raise InputError(f"ion spacing must be positive and finite, got {self.spacing}")

    def evaluate(self, x, species: IonSpecies):
        x = np.asarray(x, dtype=float)
        d = self.spacing
        h = 0.5 * self.n_ions
        u = x / d
        if np.any(np.abs(u) >= h):
            raise DomainError(
                f"position outside potential domain |x| < {h * d:.6g} m"
            )
        k = species.coulomb_energy_scale / d  # energy scale, J
        h2 = h * h
        denom = h2 - u * u
        value = k * np.log(h2 / denom)
        grad = (k / d) * 2.0 * u / denom
        curv = (k / (d * d)) * 2.0 * (h2 + u * u) / (denom * denom)
        return value, grad, curv

    def unit_length(self, species: IonSpecies) -> float:
        return self.spacing

    def domain_halfwidth(self, species: IonSpecies) -> float:
        return 0.5 * self.n_ions * self.spacing


TrapPotential = Union[HarmonicPotential, QuadQuarticPotential, EquispacedLogPotential]


_EVEN_POTENTIALS = (HarmonicPotential, QuadQuarticPotential, EquispacedLogPotential)

_PARITY_MIN_IONS = 40
"""Chains of at least this many ions in one of the even potentials above are
solved and diagonalized on their mirror half (see :func:`find_equilibrium`
and :func:`normal_modes`).  Measured with one BLAS thread on a 2-core host
(geometric mean over four traps), solve plus modes on the parity path costs
about the same as the full path up to 24 ions, 5 % less at 28-30 ions and
13-30 % less from 36 ions on; 40 keeps every chain of the paper's sizes
(N <= 25) on the full path."""


def _takes_parity_path(potential: TrapPotential, n_ions: int) -> bool:
    return n_ions >= _PARITY_MIN_IONS and type(potential) in _EVEN_POTENTIALS


@dataclass(frozen=True)
class EquilibriumChain:
    """Equilibrium configuration of a chain: sorted positions plus metadata.

    ``residual`` is the largest energy-gradient component at the solution in
    characteristic-force units q^2/(4 pi eps0 L^2), so its unit depends on
    the potential's unit length L.  ``criterion`` says how
    ``find_equilibrium`` stopped: ``"tolerance"`` when the residual is below
    :data:`GRADIENT_TOLERANCE`, ``"roundoff_floor"`` when no fraction of the
    Newton step lowered it and that step was at most N eps max|u|, below
    round-off of the positions.
    """

    species: IonSpecies
    potential: TrapPotential
    positions: np.ndarray
    residual: float = 0.0
    criterion: str = "tolerance"

    @property
    def unit_length(self) -> float:
        return self.potential.unit_length(self.species)


@dataclass(frozen=True)
class ModeDecomposition:
    """Axial normal modes of an ion chain.

    Attributes
    ----------
    species : IonSpecies
        Ion species the modes belong to (fixes the mass in derived scales).
    frequencies : np.ndarray
        Mode angular frequencies omega_m in rad/s, sorted ascending, > 0.
    participation : np.ndarray
        Orthonormal eigenvectors b[i, m] (ion i, mode m).  Signs are fixed so
        that sum_i b[i, m] >= 0; exact ties fall back to making the first
        component of magnitude above 1e-12 positive.
    """

    species: IonSpecies
    frequencies: np.ndarray
    participation: np.ndarray

    @property
    def n_ions(self) -> int:
        return self.participation.shape[0]

    @property
    def n_modes(self) -> int:
        return self.participation.shape[1]

    def uniform_drive_weights(self) -> np.ndarray:
        """(sum_i b[i, m])^2 per mode: how strongly a spatially uniform force
        couples to each mode.  Bounded by N, with equality only for a uniform
        mode vector."""
        s = self.participation.sum(axis=0)
        return s * s


def single_ion_modes(species: IonSpecies, omega0: float) -> ModeDecomposition:
    """Trivial one-ion decomposition: one mode at the trap frequency."""
    if not 0 < omega0 < math.inf:
        raise InputError(f"trap frequency must be positive and finite, got {omega0}")
    return ModeDecomposition(
        species=species,
        frequencies=np.array([omega0]),
        participation=np.array([[1.0]]),
    )


# ----------------------------------------------------------------------
# dimensionless energy model used by the equilibrium solver
# ----------------------------------------------------------------------

def _scaled_trap(potential: TrapPotential, species: IonSpecies):
    """Trap gradient/curvature in units of L and q^2/(4 pi eps0 L)."""
    L = potential.unit_length(species)
    k = species.coulomb_energy_scale
    g_scale, c_scale = L * L / k, L**3 / k

    def grad_curv(u):
        _, g, c = potential.evaluate(u * L, species)
        return g * g_scale, c * c_scale

    halfwidth = potential.domain_halfwidth(species) / L
    return grad_curv, halfwidth


def _pair_separations(u: np.ndarray, n_rows: int):
    """Pair separations u_i - u_j and distances |u_i - u_j| of the last
    n_rows ions i to every ion j, inf where i == j."""
    n = len(u)
    r = u[n - n_rows :, None] - u[None, :]
    r.reshape(-1)[n - n_rows :: n + 1] = np.inf  # the i == j entries, as a strided view
    return r, np.abs(r)


def _chain_terms(u: np.ndarray, grad_curv, n_rows: int):
    """Scaled energy gradient, pair distances (inf where i == j) and trap
    curvature of the last n_rows ions of u, from one pass over their pairs."""
    g_trap, c_trap = grad_curv(u[len(u) - n_rows :])
    r, a = _pair_separations(u, n_rows)
    r *= a
    np.reciprocal(r, out=r)  # 1 / (r |r|) in r's own buffer, bit-equal to 1.0 / r
    return g_trap - r.sum(axis=1), a, c_trap


def _hessian_from(a: np.ndarray, c_trap) -> np.ndarray:
    """Rows of the scaled Hessian from the rows' pair distances and trap
    curvature."""
    H = np.power(a, 3)  # not a * a * a, which rounds differently
    np.divide(-2.0, H, out=H)
    n_rows, n = H.shape
    H.reshape(-1)[n - n_rows :: n + 1] = c_trap - H.sum(axis=1)
    return H


def _initial_guess(potential: TrapPotential, n: int, L: float) -> np.ndarray:
    """Starting configuration in units of L: uniformly spaced, except that a
    double well off the parity path starts with N // 2 ions in its left
    well and the rest, an odd chain's centre ion included, in its right one.
    The mirror-symmetric start would keep that centre ion on the barrier."""
    idx = np.arange(n) - 0.5 * (n - 1)
    if isinstance(potential, EquispacedLogPotential):
        return idx.astype(float)
    if isinstance(potential, QuadQuarticPotential) and potential.a2 <= 0:
        # quartic-dominated: chain extent from edge-ion force balance
        extent = (0.4 * n * n) ** 0.2
        spacing = 2.0 * extent / max(n - 1, 1)
        if potential.a2 == 0 or _takes_parity_path(potential, n):
            return idx * spacing
        # each well's ions at that spacing round the well's centre
        # sqrt(-a2 / 2 a4), the two groups at least one spacing apart
        well = max(math.sqrt(-potential.a2 / (2.0 * potential.a4)) / L, 0.25 * n * spacing)
        left = n // 2
        return np.concatenate([
            -well + (np.arange(left) - 0.5 * (left - 1)) * spacing,
            well + (np.arange(n - left) - 0.5 * (n - left - 1)) * spacing,
        ])
    # harmonic-chain scaling: central spacing ~ 2.018 N^-0.559 in units of L
    return idx * (2.018 / n**0.559)


def find_equilibrium(
    species: IonSpecies,
    potential: TrapPotential,
    n_ions: int | None = None,
) -> EquilibriumChain:
    """Find the classical equilibrium positions of an N-ion chain.

    Damped Newton iteration on the energy gradient, starting from a uniformly
    spaced guess (in both wells for a double well off the parity path).  Each iterate runs one backtracking line search: steps
    that fail to reduce the largest gradient component (or leave the
    potential domain, or reorder ions) are halved, up to 60 times, with a
    steepest-descent direction when the Newton step is singular or not a
    descent direction.  Each accepted iterate's pair distances and trap
    curvature give the next Hessian, so every iterate makes one pass over
    the ion pairs.  Deterministic for given inputs.

    The three trap potentials are even, so the equilibrium is mirror
    antisymmetric.  From ``_PARITY_MIN_IONS`` (40) ions on, the unknowns are
    the N // 2 positive positions w and the chain is ``[-w[::-1], (0 if N is
    odd), w]``, exactly antisymmetric: the gradient is taken for the positive
    half (and the centre ion) against the whole chain, and the Newton matrix
    is the half-size block ``H[i, k] - H[i, mirror(k)]``.  Smaller chains
    solve for every position; both run the same iteration.

    If the line search fails, the solve stops at the iterate when the step
    it tried is below round-off of the positions, ``max|step| <= N eps
    max|u|`` with u in units of L, and records ``criterion="roundoff_floor"``.
    Newton's method is affine invariant, so the step's size relative to the
    positions does not depend on L and this stop needs no tuned tolerance.
    A failed step longer than that is a stall.

    Parameters
    ----------
    species, potential :
        Ion species and axial confinement model.
    n_ions : int, optional
        Number of ions.  For :class:`EquispacedLogPotential` this defaults to
        the potential's own ``n_ions`` and must match it if given.

    Returns
    -------
    EquilibriumChain
        Positions sorted ascending with max scaled gradient below
        :data:`GRADIENT_TOLERANCE`, or where the Newton step is below
        round-off.

    Raises
    ------
    SolverError
        If the line search fails while the step it tried is above round-off,
        or the tolerance is not met within :data:`MAX_ITERATIONS`.
    """
    if isinstance(potential, EquispacedLogPotential):
        if n_ions is None:
            n_ions = potential.n_ions
        elif n_ions != potential.n_ions:
            raise InputError(
                f"n_ions={n_ions} conflicts with potential designed for {potential.n_ions}"
            )
    if n_ions is None:
        raise InputError("n_ions is required for this potential")
    n_ions = _ion_count(n_ions)
    if n_ions < 1:
        raise InputError(f"need at least one ion, got {n_ions}")

    L = potential.unit_length(species)
    grad_curv, halfwidth = _scaled_trap(potential, species)
    u = _initial_guess(potential, n_ions, L)
    parity = _takes_parity_path(potential, n_ions)
    # the unknowns are the last n_free positions; the kernel's rows add the
    # centre ion of an odd chain, whose gradient vanishes by symmetry
    n_free = n_ions // 2 if parity else n_ions
    n_rows = n_ions - n_ions // 2 if parity else n_ions

    def whole_chain(step):
        """The step of every ion for a step of the unknowns."""
        if not parity:
            return step
        return np.concatenate([-step[::-1], np.zeros(n_ions % 2), step])

    def valid(v):
        return (v[1:] > v[:-1]).all() and np.abs(v).max() < halfwidth

    def backtrack(step):
        """First u + step / 2^k (k < 60) that is valid and lowers the
        residual, as (positions, kernel terms, residual); else None."""
        step, failed = whole_chain(step), None
        for k in range(60):
            cand = u + 0.5**k * step
            if failed is not None and np.array_equal(cand, u):  # so does every shorter step
                return None
            # a try that rounds to the point that just failed is not evaluated again
            if (failed is None or not np.array_equal(cand, failed)) and valid(cand):
                terms = _chain_terms(cand, grad_curv, n_rows)
                r_cand = float(np.abs(terms[0]).max())
                if r_cand < res:
                    return cand, terms, r_cand
            failed = cand
        return None

    terms = _chain_terms(u, grad_curv, n_rows)
    res = float(np.abs(terms[0]).max())
    for _ in range(MAX_ITERATIONS):
        if res < GRADIENT_TOLERANCE:
            return EquilibriumChain(species, potential, u * L, res)
        g, a, c_trap = terms
        H = _hessian_from(a, c_trap)
        if parity:  # fold each mirror column into its unknown's column
            g = g[n_rows - n_free :]
            H = H[n_rows - n_free :, n_ions - n_free :] - H[n_rows - n_free :, n_free - 1 :: -1]
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        if np.dot(step, g) >= 0:  # not a descent direction
            step = -g
        best = backtrack(step)
        if best is None:
            if np.abs(step).max() <= n_ions * np.finfo(float).eps * np.abs(u).max():
                return EquilibriumChain(species, potential, u * L, res, "roundoff_floor")
            raise SolverError(
                "equilibrium search stalled", residual=res, positions=u * L
            )
        u, terms, res = best
    if res < GRADIENT_TOLERANCE:
        return EquilibriumChain(species, potential, u * L, res)
    raise SolverError(
        f"equilibrium not converged after {MAX_ITERATIONS} iterations",
        residual=res,
        positions=u * L,
    )


def hessian_matrix(chain: EquilibriumChain) -> np.ndarray:
    """Dimensionless curvature matrix Q of the chain energy.

    Q = (4 pi eps0 L^3 / q^2) * d2E/dx_i dx_j evaluated at the equilibrium,
    with L the potential's unit length.  The diagonal combines the scaled
    trap curvature with Coulomb terms ``sum_j 2 L^3/|x_i-x_j|^3``; off
    diagonals are ``-2 L^3/|x_i-x_j|^3``, so every Coulomb row sums to zero.

    Raises
    ------
    DegenerateChainError
        If two positions coincide (Coulomb curvature diverges).
    """
    return _hessian_rows(chain, len(chain.positions))


def _hessian_rows(chain: EquilibriumChain, n_rows: int) -> np.ndarray:
    """The last n_rows rows of :func:`hessian_matrix`."""
    x = np.asarray(chain.positions, dtype=float)
    if len(x) > 1 and np.diff(np.sort(x)).min() <= 0.0:
        raise DegenerateChainError("coincident ion positions")
    u = x / chain.unit_length
    grad_curv, _ = _scaled_trap(chain.potential, chain.species)
    return _hessian_from(_pair_separations(u, n_rows)[1], grad_curv(u[len(u) - n_rows :])[1])


def _parity_blocks_eigh(chain: EquilibriumChain):
    """``eigh`` of the even and odd parity blocks of :func:`_parity_eigh`.

    With A and B.J the positive half's rows against the positive half and
    against the mirrored negative half, modes even under reversal solve
    A + B.J and odd ones A - B.J, for the positive half's entries times
    sqrt 2.  The centre ion of an odd chain moves only in even modes: its row
    and column border the even block, scaled by sqrt 2.  The Hessian rows
    are freed on return, before the caller assembles the N x N result.
    """
    n_ions = len(chain.positions)
    half = n_ions // 2
    odd_n = n_ions % 2
    rows = _hessian_rows(chain, n_ions - half)  # the centre ion first if N is odd
    H = rows[odd_n:]
    A, BJ = H[:, n_ions - half :], H[:, half - 1 :: -1]
    even = np.empty((half + odd_n, half + odd_n))
    np.add(A, BJ, out=even[odd_n:, odd_n:])
    if odd_n:
        even[0, 0] = rows[0, half]
        even[0, 1:] = even[1:, 0] = math.sqrt(2.0) * H[:, half]
    return np.linalg.eigh(even), np.linalg.eigh(A - BJ)


def _parity_eigh(chain: EquilibriumChain):
    """``eigh`` of the Hessian of a mirror-antisymmetric chain from its two
    half-size parity blocks (see :func:`_parity_blocks_eigh`), eigenvalues
    ascending.

    Each block's columns are scattered straight to their ascending places in
    one F-ordered matrix, with no zero fill and no gather.  F order is the
    layout the gather ``vectors[:, order]`` returned before: the column sums
    in ``uniform_drive_weights`` depend on the layout in their last bit.
    """
    n_ions = len(chain.positions)
    half = n_ions // 2
    odd_n = n_ions % 2
    (even_values, even_vectors), (odd_values, odd_vectors) = _parity_blocks_eigh(chain)
    eigenvalues = np.concatenate([even_values, odd_values])
    order = np.argsort(eigenvalues, kind="stable")
    place = np.empty(n_ions, dtype=np.intp)
    place[order] = np.arange(n_ions)  # place[k]: where block column k goes
    even_cols, odd_cols = place[: half + odd_n], place[half + odd_n :]
    vectors = np.empty((n_ions, n_ions), order="F")
    positive = even_vectors[odd_n:]
    positive *= math.sqrt(0.5)
    vectors[n_ions - half :, even_cols] = positive
    vectors[:half, even_cols] = positive[::-1]
    if odd_n:
        vectors[half, even_cols] = even_vectors[0]
        vectors[half, odd_cols] = 0.0
    odd_vectors *= math.sqrt(0.5)
    vectors[n_ions - half :, odd_cols] = odd_vectors
    vectors[:half, odd_cols] = np.negative(odd_vectors, out=odd_vectors)[::-1]
    return eigenvalues[order], vectors


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns in place so each column sum is non-negative;
    a sum within _SIGN_TIE_EPS of zero makes the first entry above it
    positive.  Returns ``vectors``, whose layout it keeps; its one caller,
    :func:`normal_modes`, passes the fresh matrix ``eigh`` or
    :func:`_parity_eigh` returned."""
    sums = np.ascontiguousarray(vectors.T).sum(axis=1)  # bit-equal to vectors[:, m].sum()
    above = (vectors > _SIGN_TIE_EPS) | (vectors < -_SIGN_TIE_EPS)  # |b| > eps, no float copy
    first = np.argmax(above, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    tie = (np.abs(sums) <= _SIGN_TIE_EPS) & (lead < -_SIGN_TIE_EPS)
    np.negative(vectors, out=vectors, where=(sums < -_SIGN_TIE_EPS) | tie)
    return vectors


def normal_modes(chain: EquilibriumChain) -> ModeDecomposition:
    """Diagonalize the chain Hessian into axial normal modes.

    Frequencies are ``omega_u * sqrt(lambda_m)`` with ``omega_u =
    sqrt(q^2/(4 pi eps0 M L^3))``; for a harmonic trap the unit length makes
    omega_u equal the trap frequency, so the lowest mode is the
    center-of-mass mode at omega0 (to round-off) with uniform participation.

    A chain of at least ``_PARITY_MIN_IONS`` (40) ions in one of the three
    trap potentials whose positions are exactly mirror antisymmetric, as
    :func:`find_equilibrium` returns them, is diagonalized as two half-size
    parity blocks (see ``_parity_eigh``): every mode vector then has exact
    mirror parity, and the odd ones sum to zero up to round-off.  Every
    other chain, such as a hand-built one that is not exactly antisymmetric,
    diagonalizes the whole Hessian.

    Raises
    ------
    UnstableChainError
        If any eigenvalue is not positive (saddle or unstable configuration).
    """
    x = np.asarray(chain.positions, dtype=float)
    if _takes_parity_path(chain.potential, len(x)) and np.array_equal(x, -x[::-1]):
        eigenvalues, vectors = _parity_eigh(chain)
    else:
        eigenvalues, vectors = np.linalg.eigh(hessian_matrix(chain))
    if eigenvalues[0] <= 0:
        raise UnstableChainError(
            f"non-positive curvature eigenvalue {eigenvalues[0]:.3e}"
        )
    L = chain.unit_length
    omega_u = math.sqrt(
        chain.species.coulomb_energy_scale / (chain.species.mass * L**3)
    )
    return ModeDecomposition(
        species=chain.species,
        frequencies=omega_u * np.sqrt(eigenvalues),
        participation=_fix_signs(vectors),
    )


def spacing_deviation(chain: EquilibriumChain) -> float:
    """Largest distance from the nearest uniformly spaced configuration.

    Minimizes ``max_i |x_i - (a + s i)|`` over offset a and spacing s (a
    Chebyshev line fit in the ion index) and returns the minimum, in units
    of the potential's unit length.  This measures how far the chain is from
    being perfectly equispaced, without pinning the spacing in advance.

    The minimum is half the smallest vertical width of the convex hull of
    the points (i, x_i), and the best slope is that of a hull edge, so one
    monotone-chain pass over the (already index-sorted) points and a
    lookup of the opposite hull's extreme vertex per edge give it exactly.
    """
    x = np.asarray(chain.positions, dtype=float) / chain.unit_length
    if not np.all(np.isfinite(x)):
        raise SolverError("uniform-chain fit failed: positions are not finite")
    n = len(x)
    if n < 3:
        return 0.0
    idx = np.arange(n, dtype=float)
    lower = _hull_vertices(idx, x, 1.0)
    upper = _hull_vertices(idx, x, -1.0)
    lower_slopes = np.diff(x[lower]) / np.diff(idx[lower])  # increasing
    upper_slopes = np.diff(x[upper]) / np.diff(idx[upper])  # decreasing
    slopes = np.concatenate([lower_slopes, upper_slopes])
    # for slope s, x_k - s k is least at the lower-hull vertex reached after
    # every lower edge shallower than s, and greatest at the upper-hull
    # vertex reached after every upper edge steeper than s
    bottom = lower[np.searchsorted(lower_slopes, slopes)]
    top = upper[np.searchsorted(-upper_slopes, -slopes)]
    widths = (x[top] - slopes * idx[top]) - (x[bottom] - slopes * idx[bottom])
    return 0.5 * float(np.min(widths))


def _hull_vertices(idx: np.ndarray, x: np.ndarray, side: float) -> np.ndarray:
    """Indices of the lower (side = 1) or upper (side = -1) convex hull of
    the points (idx, x), sorted by idx (Andrew's monotone chain)."""
    hull: list[int] = []
    for k in range(len(idx)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            turn = (idx[j] - idx[i]) * (x[k] - x[i]) - (x[j] - x[i]) * (idx[k] - idx[i])
            if side * turn > 0:
                break
            hull.pop()
        hull.append(k)
    return np.array(hull)
