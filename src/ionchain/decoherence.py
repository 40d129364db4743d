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
import operator
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence, Union

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
    """:meth:`GaussianBeam.curvature_ratio`, elementwise over centres and waists.
    A ratio that underflows is 0; one that is not finite raises InputError."""
    with np.errstate(all="ignore"):
        s = (x - center) / waist
        ratio = (4.0 * s * s - 2.0) / (waist * waist)
    if not np.isfinite(ratio).all():
        raise InputError("the beam curvature ratio (4 s^2 - 2) / w^2 overflows")
    return ratio


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
        Equilibrium-position Rabi frequency (rad/s), finite.
    thetas : array
        Decay parameters theta_m of the modes coupled to this ion, finite.
    times : array
        Drive durations in seconds, finite and >= 0.

    Returns
    -------
    RabiTrace
        ``p1 = (1 - C cos(omega0 t - phi)) / 2`` with contrast C in (0, 1]
        and phase lag ``phi = sum_m arctan(theta_m omega0 t)``.
    """
    return RabiTrace(*_thermal_rabi(omega0, *_drive(omega0, thetas, times)))


def _drive(omega0, thetas, times):
    """A Rabi drive's decay parameters and durations as 1-d float arrays (a
    scalar theta is one mode, a scalar time a one-point trace), checked:
    Omega0 and every theta finite, every time finite and >= 0."""
    if not math.isfinite(omega0):
        raise InputError(f"Rabi frequency must be finite, got {omega0}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.ndim > 1:
        raise InputError(
            f"decay parameters must be a scalar or a 1-d array, got shape {thetas.shape}"
        )
    if not np.isfinite(thetas).all():
        raise InputError("decay parameters must be finite")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim > 1:
        raise InputError(f"drive times must be a scalar or a 1-d array, got shape {times.shape}")
    if not (np.isfinite(times).all() and (times >= 0).all()):
        raise InputError("drive times must be finite and >= 0")
    return thetas, times


def _thermal_contrast(thetas, omega0, times):
    """Thermal contrast prod_m (1 + a_m^2)^(-1/2) at each of the 1-d ``times``, and
    the drive angles a[m, t] = (theta_m Omega0) t, formed only here.  Their limits
    hold with no warning: a zero time is no drive, a = 0 even where theta_m Omega0
    overflowed, and a factor whose a or a^2 overflows is exactly 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at t = 0, set to 0
        a = thetas[:, None] * omega0 * times[None, :]
        a[:, times == 0] = 0.0
        c = a * a
    c += 1.0
    np.sqrt(c, out=c)
    np.reciprocal(c, out=c)
    return c.prod(axis=0), a


def _thermal_rabi(omega0, thetas, times):
    """Closed-form (p1, contrast, phase) of :func:`rabi_trace`, unvalidated."""
    contrast, a = _thermal_contrast(np.atleast_1d(np.asarray(thetas, dtype=float)), omega0, times)
    phase = np.arctan(a, out=a).sum(axis=0)
    return 0.5 * (1.0 - contrast * np.cos(omega0 * times - phase)), contrast, phase


def _integer_at_least(name: str, value, minimum: int) -> int:
    """``value`` as an int >= ``minimum``, read as :func:`operator.index` reads
    it (numpy integers pass, 1e5 and 2.0 do not); else InputError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise InputError(f"{name} must be >= {minimum}")
    return value


def _mode_energy_samples(n_modes: int, n_samples: int, seed: int) -> np.ndarray:
    """Unit-mean exponential energy samples, one independent stream per mode.

    Stream-splitting rule: mode m uses ``numpy.random.default_rng([seed, m])``
    (PCG64 seeded from the entropy pair), so the samples are bit-reproducible
    for a given seed and each mode's row does not depend on the mode count.
    A seed that is not an integer >= 0 raises InputError.
    """
    seed = _integer_at_least("seed", seed, 0)
    samples = np.empty((n_modes, n_samples))
    for m, row in enumerate(samples):  # the stream of .exponential(1.0, n_samples), in place
        np.random.default_rng([seed, m]).standard_exponential(out=row)
    return samples


_CHUNK = 2**14
"""Samples per chunk of the oracle's sample loop, whose rows stay in a core's L2 cache."""
_RESEED = 64
"""Recurrence steps from one pair of directly evaluated rows to the next."""


def _sin_squared(half_angle: float, factor: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sin^2 x, x = half_angle * factor, into ``out`` as 1 / (1 + 1 / tan^2 x)
    (numpy's float64 ``tan`` is SIMD on AVX-512 CPUs, ``sin`` scalar libm).
    x = 0 gives 0 and an infinite x nan."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # x = 0: 1 / 0, then 0
        np.multiply(half_angle, factor, out=out)
        np.reciprocal(np.square(np.tan(out, out=out), out=out), out=out)
    return np.reciprocal(np.add(out, 1.0, out=out), out=out)


def _progression_step(times: np.ndarray) -> float | None:
    """dt = t_1 - t_0 where the K >= 3 times rise as t_k = t_0 + k dt to
    within 4 ulp(t_k) + k (ulp(t_0) + ulp(t_1)), else None: ``np.linspace``
    rounds each point, may move its last by one more, and from t_0 > 0 its
    step drifts from t_1 - t_0 by up to ulp(t_1) a point.  A prefix of the
    times has the step of the whole."""
    if len(times) < 3 or not times[1] > times[0]:
        return None
    dt = times[1] - times[0]
    k = np.arange(len(times))
    drift = np.abs(times - (times[0] + dt * k))
    tolerance = 4 * np.spacing(times) + k * (np.spacing(times[0]) + np.spacing(times[1]))
    return dt if (drift <= tolerance).all() else None


def _chunk_rows(half_angles, half_step, f, buffers) -> Iterator[np.ndarray]:
    """sin^2(a_k f) on one chunk of samples ``f`` at each half angle a_k in
    turn: an iterator over k of the rows s_k, each reused once the next is
    asked for.  The last row of ``buffers`` is scratch, written before a yield.

    With ``half_step`` None every row comes from :func:`_sin_squared`.  With
    a step h, for the half angles a_k = a_0 + k h of a progression, the rows
    obey, with s_1 = sin^2(h f),

        s_(k+1) = 2 s_1 + 2 (1 - 2 s_1) s_k - s_(k-1),

    Goertzel's recurrence for cos(2 a_k f) written for d = 1 - cos = 2 s
    (Reinsch's form, which keeps small angles accurate): three passes a row.
    The rows with k = 0 or 1 mod :data:`_RESEED` are seeds: the zero row
    for a half angle of 0 and s_1 = 0.5 (2 s_1), exact, for the step's own
    half angle (a progression from t = 0 has both, at k = 0 and 1), else
    :func:`_sin_squared`, which gives both bit for bit too.  Any other time
    with a half angle of 0 is the zero row as well.  m steps past a pair,
    seed errors e_0, e_1 and a local error eta per step give at most
    m |e_1| + (m - 1) |e_0| + eta m^2 / 2, as the recurrence's Chebyshev
    solutions have |U_n| <= n + 1 (Gentleman, Comput. J. 12, 160 (1969)).
    Against sin^2 of each row's own float angle, with u = 2^-53 and |x| the
    largest half angle, that is at most u ((2m + 1)(16 + 22 |x|) + 20 m^2)
    per sample: 16 u for the tan form, eta <= 39 u, and 22 u |x| a term for
    the angles' roundings and the times' departure from t_0 + k dt, which
    take 20 (m + 1) u |x| for 4 ulp of each t_k and 8 m u |x| for a drift
    k e, |e| <= ulp(t_0) + ulp(t_1), as ``np.linspace`` leaves.  m < 64
    holds it below 8.2e4 u + 2.8e3 u |x|.
    """
    a, b, prev, row, scratch = buffers
    if half_step is not None:
        _sin_squared(half_step, f, b)  # s_1
        np.multiply(b, -4.0, out=a)
        a += 2.0  # 2 (1 - 2 s_1), rounded once
        b *= 2.0  # 2 s_1
    for k, half_angle in enumerate(half_angles):
        prev, row = row, prev
        if half_angle == 0.0:
            row.fill(0.0)
        elif half_step is None or k % _RESEED < 2:
            if half_angle == half_step:
                np.multiply(b, 0.5, out=row)
            else:
                _sin_squared(half_angle, f, row)
        else:  # row held s_(k-2): overwrite it with s_k
            np.multiply(a, prev, out=scratch)
            scratch += b
            np.subtract(scratch, row, out=row)
        yield row


def _sample_moments(half_angles, half_step, factor) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centred sum of squares of each row of :func:`_chunk_rows`
    over the samples f of ``factor``, in chunks of :data:`_CHUNK` in order.
    Each chunk gives every time its sum and centred sum of squares, and the
    chunks are merged by the pairwise update of Chan, Golub & LeVeque, Amer.
    Stat. 37, 242 (1983); a raw sum(s^2) - n mean^2 would lose the zero
    spread of theta = 0.  The five rows share one block that starts on a
    64-byte boundary, so at the full chunk width each row starts on a cache
    line, whatever the process's allocation history left for it."""
    n_times = len(half_angles)
    total, squares = np.zeros(n_times), np.zeros(n_times)
    chunk_sum, chunk_squares = np.empty(n_times), np.empty(n_times)
    width = min(_CHUNK, len(factor))
    # 7 doubles over, sliced to start on a 64-byte cache line wherever malloc put it
    block = np.empty(5 * width + 7)
    skip = -block.ctypes.data % 64 // 8
    buffers = block[skip : skip + 5 * width].reshape(5, width)
    count = 0
    for start in range(0, len(factor), _CHUNK):
        f = factor[start : start + _CHUNK]
        size = len(f)
        dev = buffers[4, :size]  # _chunk_rows' scratch row, free while a row is held
        for k, row in enumerate(_chunk_rows(half_angles, half_step, f, buffers[:, :size])):
            chunk_sum[k] = np.add.reduce(row)
            np.subtract(row, chunk_sum[k] / size, out=dev)
            chunk_squares[k] = np.dot(dev, dev)
        if count:  # the spread between the chunks merged so far and this one
            delta = chunk_sum / size - total / count
            chunk_squares += delta * delta * (count * size / (count + size))
        squares += chunk_squares
        total += chunk_sum
        count += size
    return total / count, squares


def rabi_trace_monte_carlo(
    omega0: float,
    thetas,
    times,
    n_samples: int = 100_000,
    seed: int = 0,
) -> MonteCarloRabiTrace:
    """Monte-Carlo thermal average of the Rabi oscillation, on one thread.

    Draws u_m ~ Exponential(1) per mode (u_m is the mode energy over kB T_m),
    forms the relative Rabi frequency f = 1 - sum_m theta_m u_m and averages
    sin^2 x, x = omega0 t f / 2.  The independent oracle for
    :func:`rabi_trace`; negative frequencies are kept (sin^2 is even).
    Deterministic for a given seed; see :func:`_mode_energy_samples` for the
    per-mode stream-splitting rule.

    One loop runs over chunks of :data:`_CHUNK` samples and, within each,
    over the drive times; :func:`_sample_moments` merges the chunks.  Times
    that rise in equal steps (t_k = t_0 + k dt, K >= 3, such as
    ``np.linspace``; see :func:`_progression_step`) take the recurrence of
    :func:`_chunk_rows`: one tan pass for the step and two per
    :data:`_RESEED` times, three arithmetic passes for each other time;
    from t_0 = 0 the first two times take none.  The answer at their first
    K' >= 3 times is bit-identical to a K'-point run.  Any other times take
    one tan pass each (none at t = 0), and each time's answer is
    bit-identical to its own one-time run.

    A drive time of 0 is answered p1 = stderr = 0.  A sampled half angle
    that overflows, at any time, raises InputError, where :func:`rabi_trace`
    answers its limit; it is checked at the largest time and |f|, because the
    recurrence stays finite past it.

    Working set, in rows of ``n_samples`` doubles: the samples (one row per
    mode) and the relative-frequency row they are reduced to; then that row
    and five rows of :data:`_CHUNK` samples (0.63 MiB), in one block whose
    rows start on 64-byte cache lines (at 2^14 samples and more).  On a CPU
    with 64-byte (AVX-512) vectors a row at 16, 32 or 48 mod 64 made the
    sample loop 15-25 % slower; expect less on a CPU with 32-byte vectors.
    """
    n_samples = _integer_at_least("n_samples", n_samples, 1)
    thetas, times = _drive(omega0, thetas, times)
    # relative Rabi frequency 1 - theta . u per sample; the samples are freed here
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        factor = thetas @ _mode_energy_samples(len(thetas), n_samples, seed)
    np.subtract(1.0, factor, out=factor)
    p1, stderr = np.zeros_like(times), np.zeros_like(times)
    if not times.any():
        return MonteCarloRabiTrace(p1, stderr)
    # the largest half angle, formed as the kernel forms each one; nan if any f is
    largest = max(float(factor.max()), -float(factor.min()))
    if not math.isfinite(0.5 * abs(float(omega0)) * float(times.max()) * largest):
        raise InputError("the sampled Rabi angle omega0 t (1 - theta . u) overflows")
    dt = _progression_step(times)
    half_step = None if dt is None else 0.5 * omega0 * dt
    half_angles = [0.5 * omega0 * t for t in times.tolist()]
    p1, squares = _sample_moments(half_angles, half_step, factor)
    if n_samples > 1:  # std(ddof=1) / sqrt(n)
        stderr = np.sqrt(squares / (n_samples - 1)) / math.sqrt(n_samples)
    return MonteCarloRabiTrace(p1, stderr)
