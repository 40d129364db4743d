"""Beam profiles, decay parameters and thermally averaged Rabi dynamics.

An ion driven by a laser beam pointed perpendicular to the chain axis sees a
Rabi frequency proportional to the local field amplitude.  Thermal motion
along the axis samples the beam's curvature, so the time-averaged Rabi
frequency of ion i shifts by

    mean_Omega_i = Omega_i0 * (1 - sum_m theta_im * u_m),   u_m = E_m / kB T_m

where the dimensionless decay parameter of ion i in mode m is

    theta_im = - b_im^2 * xi_m^2 * (Omega''/Omega)(x_i) * nbar_m,

with xi_m = sqrt(hbar / (2 M omega_m)) the zero-point spread and nbar_m the
mean thermal occupancy (kB T_m = hbar omega_m nbar_m, valid for nbar >> 1).
Averaging over exponentially distributed mode energies gives the closed-form
population trace

    p1(t) = (1 - C(t) cos(Omega0 t - phi(t))) / 2
    C(t)  = prod_m (1 + theta_m^2 Omega0^2 t^2)^(-1/2)
    phi(t) = sum_m arctan(theta_m Omega0 t)

so the contrast decays algebraically while the oscillation accumulates the
phase lag phi (reported positive for positive theta).  A seeded Monte-Carlo
average over the same energy distribution is provided as an independent
numerical check of the closed form.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from .constants import HBAR, IonSpecies
from .errors import DomainError, InputError, LowOccupancyWarning

if TYPE_CHECKING:
    from .chain import ModeDecomposition

LOW_OCCUPANCY_THRESHOLD = 10.0


@dataclass(frozen=True)
class GaussianBeam:
    """Gaussian addressing beam, amplitude profile Omega(x) = peak * exp(-(x-c)^2/w^2).

    ``waist`` is the 1/e^2 intensity radius; the field amplitude (and hence
    the Rabi frequency) then falls as exp(-x^2/w^2).
    """

    peak_rabi: float
    center: float
    waist: float

    def __post_init__(self):
        if not 0 < self.waist < math.inf:
            raise InputError(f"beam waist must be positive and finite, got {self.waist}")
        if not 0 <= self.peak_rabi < math.inf:
            raise InputError(f"peak Rabi frequency must be in [0, inf), got {self.peak_rabi}")
        if not math.isfinite(self.center):
            raise InputError(f"beam center must be finite, got {self.center}")

    def rabi_at(self, x):
        """Rabi frequency Omega(x) in rad/s."""
        params = (self.peak_rabi, self.center, self.waist)
        return gaussian_beam_model(params, np.asarray(x, dtype=float))

    def curvature_ratio(self, x):
        """Omega''(x)/Omega(x) in 1/m^2: (4 s^2 - 2)/w^2 with s=(x-c)/w.

        Negative at the beam center, zero at |x - c| = w/sqrt(2).
        """
        return _gaussian_curvature_ratio(np.asarray(x, dtype=float), self.center, self.waist)


def gaussian_beam_model(params, x):
    """amplitude * exp(-(x - center)^2 / waist^2), unvalidated: the profile of
    :meth:`GaussianBeam.rabi_at` and the model of :func:`ionchain.fitting.fit_beam_profile`."""
    amplitude, center, waist = params
    s = (x - center) / waist
    return amplitude * np.exp(-s * s)


def _gaussian_curvature_ratio(x, center, waist):
    """:meth:`GaussianBeam.curvature_ratio`, elementwise over centres and waists."""
    s = (x - center) / waist
    return (4.0 * s * s - 2.0) / (waist * waist)


class TabulatedBeam:
    """Measured beam profile: not-a-knot cubic-spline interpolation of (x, Omega).

    Rabi queries are valid on the sampled range; curvature queries exclude
    the outermost sample on each side, where the spline's second derivative
    is unreliable.
    """

    def __init__(self, x: Sequence[float], rabi: Sequence[float]):
        x = np.asarray(x, dtype=float)
        rabi = np.asarray(rabi, dtype=float)
        if x.ndim != 1 or x.shape != rabi.shape:
            raise InputError("x and rabi samples must be 1-d arrays of equal length")
        if len(x) < 4:
            raise InputError("tabulated beam needs at least 4 samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(rabi))):
            raise InputError("tabulated beam samples must be finite")
        if np.any(np.diff(x) <= 0):
            raise InputError("tabulated beam samples must be strictly increasing in x")
        self.x = x
        self.rabi = rabi
        self._coef = _not_a_knot_coefficients(x, rabi)

    def _spline(self, x, second_derivative: bool = False):
        k = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, len(self.x) - 2)
        h = x - self.x[k]
        c3, c2, c1, c0 = self._coef[:, k]
        if second_derivative:
            return 6.0 * c3 * h + 2.0 * c2
        return ((c3 * h + c2) * h + c1) * h + c0

    def rabi_at(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.x[0]) or np.any(x > self.x[-1]):
            raise DomainError("position outside tabulated beam range")
        return self._spline(x)

    def curvature_ratio(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.x[1]) or np.any(x > self.x[-2]):
            raise DomainError("curvature query outside interior of tabulated range")
        omega = self._spline(x)
        if np.any(omega == 0):
            raise DomainError("curvature ratio undefined where Omega(x) = 0")
        return self._spline(x, second_derivative=True) / omega


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients (4, n - 1), highest power first, of the not-a-knot
    spline through n >= 4 points: piece k is sum_j c[j, k] (x - x_k)^(3 - j).

    The knot slopes solve a tridiagonal system (continuity of the second
    derivative inside, continuity of the third at x_1 and x_(n-2)), by
    forward elimination and back substitution.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    lower = np.empty(n)
    diag = np.empty(n)
    upper = np.empty(n)
    rhs = np.empty(n)
    lower[1:-1] = dx[1:]
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    upper[1:-1] = dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    span = x[2] - x[0]
    diag[0], upper[0] = dx[1], span
    rhs[0] = ((dx[0] + 2.0 * span) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / span
    span = x[-1] - x[-3]
    lower[-1], diag[-1] = span, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * span + dx[-1]) * dx[-2] * slope[-1]) / span
    for i in range(1, n):
        factor = lower[i] / diag[i - 1]
        diag[i] -= factor * upper[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    s = np.empty(n)
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.array([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


BeamProfile = Union[GaussianBeam, TabulatedBeam]


@dataclass(frozen=True)
class ThermalState:
    """Mean thermal occupancies nbar_m of the axial modes.

    The classical energy-averaging model assumes nbar >> 1; constructing a
    state with any nbar below :data:`LOW_OCCUPANCY_THRESHOLD` emits
    :class:`LowOccupancyWarning`.
    """

    nbar: np.ndarray

    def __post_init__(self):
        self._set_nbar(self.nbar, stacklevel=4)  # past the generated __init__

    @classmethod
    def uniform(cls, n_modes: int, nbar: float) -> "ThermalState":
        """Every one of ``n_modes`` modes at occupancy ``nbar``.  Built without
        the generated ``__init__``, so a warning names this method's caller."""
        state = cls.__new__(cls)
        state._set_nbar(np.full(n_modes, float(nbar)), stacklevel=3)
        return state

    def _set_nbar(self, nbar, stacklevel: int) -> None:
        """Store and check the occupancies; a low-occupancy warning names the
        frame ``stacklevel`` levels up, the code that asked for the state."""
        nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
        object.__setattr__(self, "nbar", nbar)
        if not np.all((nbar >= 0) & (nbar < np.inf)):
            raise InputError("mode occupancies must be finite and >= 0")
        if np.any(nbar < LOW_OCCUPANCY_THRESHOLD):
            warnings.warn(
                f"thermal occupancy below {LOW_OCCUPANCY_THRESHOLD:g} quanta: the classical "
                "energy-averaging model assumes nbar >> 1",
                LowOccupancyWarning,
                stacklevel=stacklevel,
            )


def zero_point_spread(species: IonSpecies, omega: float) -> float:
    """Ground-state positional spread sqrt(hbar / (2 M omega)) in meters."""
    if not 0 < omega < math.inf:
        raise InputError(f"mode frequency must be positive and finite, got {omega}")
    return math.sqrt(_spread_sq(species.mass, omega))


def _spread_sq(mass, omega):
    """Squared zero-point spread hbar / (2 M omega), elementwise over omega."""
    return HBAR / (2.0 * mass * omega)


def _beam_coupling(
    modes: ModeDecomposition,
    beams: Mapping[int, BeamProfile],
    positions: Sequence[float],
    used: slice = slice(None),
) -> np.ndarray:
    """b_im^2 xi_m^2 (-c_i) for every ion i and the modes m in ``used`` (all by
    default), c_i = (Omega''/Omega)(x_i).

    The per-quantum decay parameter, shared by :func:`decay_parameters` and
    the heating-rate growth in :mod:`ionchain.heating`.  Ions without a beam
    get a zero row.  The Gaussian beams' curvature ratios come from one array
    expression over their centres and waists, bit-equal to one
    :meth:`GaussianBeam.curvature_ratio` call per ion.
    """
    positions = np.asarray(positions, dtype=float)
    n = modes.n_ions
    if len(positions) != n:
        raise InputError(f"expected {n} positions, got {len(positions)}")
    neg_curvature = np.zeros(n)
    gaussian, centers, waists = [], [], []
    for i, beam in beams.items():
        if not 0 <= i < n:
            raise InputError(f"beam assigned to ion {i}, outside 0..{n - 1}")
        if isinstance(beam, GaussianBeam):
            gaussian.append(i)
            centers.append(beam.center)
            waists.append(beam.waist)
        else:
            neg_curvature[i] = -float(beam.curvature_ratio(positions[i]))
    if gaussian:
        neg_curvature[gaussian] = -_gaussian_curvature_ratio(
            positions[gaussian], np.array(centers, dtype=float), np.array(waists, dtype=float)
        )
    # a float buffer even for integer b, with only the used modes' columns
    coupling = np.square(modes.participation[:, used], dtype=float)
    coupling *= _spread_sq(modes.species.mass, modes.frequencies[used])
    coupling *= neg_curvature[:, None]
    return coupling


def decay_parameters(
    modes: ModeDecomposition,
    thermal: ThermalState,
    beams: Mapping[int, BeamProfile],
    positions: Sequence[float],
) -> np.ndarray:
    """Per-ion, per-mode decay parameters theta[i, m].

    Parameters
    ----------
    modes : ModeDecomposition
        Chain normal modes (N ions, M modes).
    thermal : ThermalState
        Occupancies nbar_m, length M.
    beams : mapping ion index -> BeamProfile
        Addressing beam for each driven ion.  Ions without a beam get a zero
        row.
    positions : array
        Equilibrium ion positions (m), length N; the beam curvature is
        evaluated at each addressed ion's position.

    Returns
    -------
    np.ndarray
        Signed theta[i, m]; positive where the ion sits inside the central
        concave region of a Gaussian beam (|x - c| < w/sqrt(2)).
    """
    if len(thermal.nbar) != modes.n_modes:
        raise InputError(f"expected {modes.n_modes} occupancies, got {len(thermal.nbar)}")
    theta = _beam_coupling(modes, beams, positions)
    theta *= thermal.nbar
    return theta


@dataclass(frozen=True)
class RabiTrace:
    """Closed-form thermally averaged Rabi oscillation."""

    p1: np.ndarray
    contrast: np.ndarray
    phase: np.ndarray


@dataclass(frozen=True)
class MonteCarloRabiTrace:
    """Monte-Carlo estimate of the thermally averaged Rabi oscillation."""

    p1: np.ndarray
    stderr: np.ndarray


def rabi_trace(omega0: float, thetas, times) -> RabiTrace:
    """Thermally averaged resonant Rabi oscillation of one qubit.

    Parameters
    ----------
    omega0 : float
        Equilibrium-position Rabi frequency (rad/s).
    thetas : array
        Decay parameters theta_m of the modes coupled to this ion.
    times : array
        Drive durations in seconds, >= 0.

    Returns
    -------
    RabiTrace
        ``p1 = (1 - C cos(omega0 t - phi)) / 2`` with contrast C in (0, 1]
        and phase lag ``phi = sum_m arctan(theta_m omega0 t)``.
    """
    return RabiTrace(*_thermal_rabi(omega0, thetas, _drive_times(times)))


def _drive_times(times) -> np.ndarray:
    """Drive durations as a float array, checked to be >= 0."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise InputError("drive times must be >= 0")
    return times


def _thermal_contrast(a):
    """Thermal contrast prod_m (1 + a_m^2)^(-1/2) over axis 0, a_m = theta_m Omega0 t."""
    c = a * a
    c += 1.0
    np.sqrt(c, out=c)
    np.reciprocal(c, out=c)
    return c.prod(axis=0)


def _thermal_rabi(omega0, thetas, times):
    """Closed-form (p1, contrast, phase) of :func:`rabi_trace`, unvalidated."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    a = thetas[:, None] * omega0 * times[None, :]
    contrast = _thermal_contrast(a)
    phase = np.arctan(a, out=a).sum(axis=0)
    return 0.5 * (1.0 - contrast * np.cos(omega0 * times - phase)), contrast, phase


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_from_shared_queue(n_items: int, work: Callable[[Iterator[int]], None]) -> None:
    """Run ``work(queue)`` on w = min(n_items, usable CPUs) workers that share
    one queue of the item indices ``range(n_items)``.

    The caller is one worker and a thread runs each of the others.  Every
    worker is handed the same iterator over ``range(n_items)`` and takes the
    next index from it until none are left, so each index goes exactly once,
    in increasing order, to whichever worker asks first: a worker whose core
    is busy takes fewer items instead of holding the others up.  Taking an
    index is one call into the C range iterator, atomic under the GIL; a
    free-threaded build would need a lock around it.  numpy releases the GIL
    inside its ufunc loops and random fills, so the items run in parallel.
    ``work`` must write each item's result to its own place and nowhere
    else; the results then depend neither on w nor on which worker ran which
    item.  Every thread is joined before this returns, and an exception
    raised by any worker (the caller's first, then the threads' in start
    order) is re-raised here, so a caller never sees partly filled output.
    """
    n_workers = max(1, min(n_items, _usable_cpus()))
    queue = iter(range(n_items))
    errors: list[BaseException | None] = [None] * n_workers

    def run(w: int) -> None:
        try:
            work(queue)
        except BaseException as exc:
            errors[w] = exc

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, n_workers)]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _mode_energy_samples(n_modes: int, n_samples: int, seed: int) -> np.ndarray:
    """Unit-mean exponential energy samples, one independent stream per mode.

    Stream-splitting rule: mode m uses ``numpy.random.default_rng([seed, m])``
    (PCG64 seeded from the entropy pair), so the samples are bit-reproducible
    for a given seed and each mode's row does not depend on the mode count.
    """
    samples = np.empty((n_modes, n_samples))
    for m, row in enumerate(samples):  # the stream of .exponential(1.0, n_samples), in place
        np.random.default_rng([seed, m]).standard_exponential(out=row)
    return samples


def rabi_trace_monte_carlo(
    omega0: float,
    thetas,
    times,
    n_samples: int = 100_000,
    seed: int = 0,
) -> MonteCarloRabiTrace:
    """Monte-Carlo thermal average of the Rabi oscillation.

    Draws u_m ~ Exponential(1) per mode (u_m is the mode energy over kB T_m),
    forms the shifted Rabi frequency ``omega0 * (1 - sum_m theta_m u_m)`` and
    averages sin^2 x = 1 / (1 + 1 / tan^2 x), x = omega t / 2 (numpy's float64
    ``tan`` is SIMD on AVX-512 CPUs, ``sin`` scalar libm).  The independent
    oracle for :func:`rabi_trace`; negative frequencies are kept (sin^2 is even).

    A drive time of 0 is answered p1 = stderr = 0 without a pass over the
    samples.  The other drive times are shared out over the usable CPUs by
    :func:`_run_from_shared_queue`; each time's mean and standard error come
    from the same samples in the same summation order whichever worker takes
    it, so the result is bit-identical for any CPU count.  Deterministic for
    a given seed; see :func:`_mode_energy_samples` for the per-mode
    stream-splitting rule.

    Working set, in rows of ``n_samples`` doubles: the samples (one row per
    mode) and the relative-frequency row they are reduced to, then that row
    and one scratch row per worker once the samples are freed.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    times = _drive_times(times)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    # relative Rabi frequency 1 - theta . u per sample; the samples are freed here
    factor = thetas @ _mode_energy_samples(len(thetas), n_samples, seed)
    np.subtract(1.0, factor, out=factor)
    p1, stderr = np.zeros_like(times), np.zeros_like(times)
    driven = np.flatnonzero(times).tolist()

    def average(queue: Iterator[int]) -> None:
        values = np.empty(n_samples)
        for j in queue:
            k = driven[j]
            np.multiply(0.5 * omega0 * times[k], factor, out=values)
            with np.errstate(divide="ignore", over="ignore"):  # x = 0: 1 / 0, then 0
                np.reciprocal(np.square(np.tan(values, out=values), out=values), out=values)
            np.reciprocal(np.add(values, 1.0, out=values), out=values)  # sin^2 x
            p1[k] = mean = np.add.reduce(values) / n_samples
            if n_samples > 1:  # values.std(ddof=1), in place
                np.square(np.subtract(values, mean, out=values), out=values)
                variance = np.add.reduce(values) / (n_samples - 1)
                stderr[k] = math.sqrt(variance) / math.sqrt(n_samples)

    _run_from_shared_queue(len(driven), average)
    return MonteCarloRabiTrace(p1, stderr)


def in_phase_theta(modes: ModeDecomposition, theta_single: float) -> np.ndarray:
    """Per-ion decay parameters when only the lowest axial mode is heated.

    Given the decay parameter ``theta_single`` of a single ion in a trap at
    the chain's lowest mode frequency, ion i of the chain gets

        theta_i = b_i0^2 * (sum_j b_j0)^2 * theta_single.

    For a harmonic chain the in-phase mode is the center-of-mass mode with
    b_i0 = N^(-1/2), so theta_i reduces to theta_single for every ion.
    """
    b0 = modes.participation[:, 0]
    weight = b0.sum() ** 2
    return b0 * b0 * weight * theta_single
