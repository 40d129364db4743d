"""Weighted nonlinear least squares and the fit recipes used by this package.

The core is a bounded Levenberg-Marquardt loop in numpy (forward-difference
Jacobian with norm-scaled columns, steps projected onto the bounds), solved
once from the recipe's guess.  Every fit, including the closed-form line and
the variable-projection power law, ends in one summary step that gives
covariance-based parameter uncertainties and the diagnostic flags.  When
per-point sigmas are supplied the covariance is absolute; otherwise it is
scaled by the reduced chi-square.

Recipes:

- beam profile: Gaussian amplitude vs position, recovering the 1/e^2
  intensity radius,
- Rabi trace: thermally damped oscillation, recovering the Rabi frequency
  and the effective decay parameter,
- decay-parameter growth: weighted straight line in wait time, in closed
  form,
- rate power law: A * omega^(-2-alpha) + B vs trap frequency, recovering the
  field-noise exponent by variable projection (a 1-D search in alpha).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .decoherence import _thermal_rabi, gaussian_beam_model
from .errors import FitError, InputError
from .heating import _positive_frequency, theta_rate_model

RUNS_TEST_FLAG_Z = 3.0

_LM_TOL = 1e-14
"""Relative convergence tolerance of :func:`_levenberg_marquardt`."""


@dataclass(frozen=True)
class DataSeries:
    """Measured (x, y) points with optional per-point standard deviations.

    Each sigma must be finite and positive with 1/sigma^2 a normal float,
    which holds for sigma in about [7.5e-155, 6.7e153]: every recipe's
    weights then neither overflow nor drop to subnormals.
    """

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or x.shape != y.shape:
            raise InputError("x and y must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError("data must be finite")
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", s)
            if s.shape != y.shape:
                raise InputError("sigma must match the data length")
            if np.any(~np.isfinite(s)) or np.any(s <= 0):
                raise InputError("sigma values must be finite and positive")
            with np.errstate(over="ignore", divide="ignore"):
                weights = 1.0 / s**2
            floats = np.finfo(float)
            if not np.all((weights >= floats.tiny) & (weights <= floats.max)):
                raise InputError("sigma values must lie where 1/sigma^2 is a normal float")

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FitResult:
    """Parameters, uncertainties and diagnostics of a least-squares fit."""

    params: np.ndarray
    uncertainties: np.ndarray
    reduced_chisq: float
    residuals: np.ndarray
    converged: bool
    n_iterations: int
    param_names: tuple
    flags: tuple = field(default_factory=tuple)

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def uncertainty(self, name: str) -> float:
        return float(self.uncertainties[self.param_names.index(name)])


def _runs_test_z(residuals: np.ndarray, order: np.ndarray) -> float:
    """Wald-Wolfowitz runs-test z-score on residual signs (sorted by x).

    Structured (autocorrelated) residuals give strongly negative z.  Needs
    at least 3 residuals: with a positive and b negative ones, 2ab - n >=
    n - 2, so the variance is positive.
    """
    r = residuals[order]
    signs = np.where(r >= 0, 1, -1)
    n_pos = int(np.sum(signs > 0))
    n_neg = len(signs) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.0
    runs = 1 + int(np.sum(signs[1:] != signs[:-1]))
    n = n_pos + n_neg
    mean = 2.0 * n_pos * n_neg / n + 1.0
    var = 2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n * n * (n - 1.0))
    return (runs - mean) / math.sqrt(var)


def fit_least_squares(
    model: Callable,
    data: DataSeries,
    guess,
    bounds,
    param_names: Sequence[str],
) -> FitResult:
    """Weighted least-squares fit of ``model(params, x)`` to a data series.

    Parameters
    ----------
    model : callable
        Vectorized model ``model(params, x) -> y``.
    data : DataSeries
        Points to fit; ``sigma`` weights the residuals when present.
    guess : array
        Starting parameters; must produce finite model values of the data's
        shape.
    bounds : (lower, upper)
        Per-parameter bounds, +-inf where a side is free; each lower bound
        must lie below its upper one.
    param_names : sequence of str
        Names for lookup on the result, one per parameter.

    One :func:`_levenberg_marquardt` solve runs from the guess;
    ``n_iterations`` is its number of model evaluations outside the
    Jacobian.  See :func:`_fit_result` for the covariance and the flags.

    Raises
    ------
    InputError
        If the model's output at the guess does not have the data's shape,
        or the bounds are malformed or exclude the guess.
    FitError
        If there are fewer points than parameters, the solve does not
        converge, or the residuals' sum of squares leaves the normal floats
        (see :func:`_sum_of_squares`).  When the solve raised any other
        exception, it is chained from that exception.
    """
    guess = np.atleast_1d(np.asarray(guess, dtype=float))
    n_params = len(guess)
    if len(param_names) != n_params:
        raise InputError("param_names must match the number of parameters")
    if len(data) < n_params:
        raise FitError(
            f"need at least {n_params} points to fit {n_params} parameters, "
            f"got {len(data)}"
        )
    try:
        lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), (n_params,)) for b in bounds)
    except ValueError:
        raise InputError("bounds must be (lower, upper), one value per parameter")
    if not np.all(lo < hi):
        raise InputError("every lower bound must be below its upper bound")
    if np.any(guess < lo) or np.any(guess > hi):
        raise InputError("initial guess violates the bounds")
    sigma = data.sigma if data.sigma is not None else np.ones(len(data))
    at_guess = model(guess, data.x)
    if np.shape(at_guess) != data.y.shape:
        raise InputError(
            f"model output has shape {np.shape(at_guess)} at the initial guess, "
            f"but the data have shape {data.y.shape}"
        )
    if not np.all(np.isfinite(at_guess)):
        raise FitError("model is not finite at the initial guess")

    def residual_fn(p):
        return (model(p, data.x) - data.y) / sigma

    try:
        params, residuals, jac, nfev = _levenberg_marquardt(
            residual_fn, guess, (at_guess - data.y) / sigma, lo, hi, 100 * n_params
        )
    except FitError:
        raise
    except Exception as exc:
        raise FitError(
            f"the least-squares solve raised {type(exc).__name__}: {exc}"
        ) from exc
    return _fit_result(params, residuals, jac.T @ jac, data, param_names, nfev)


def _forward_jacobian(residual_fn, x, r, lo, hi) -> np.ndarray:
    """Forward differences with steps sqrt(eps) max(1, |x_j|), taken
    towards the interior where the forward point would leave the bounds."""
    h = math.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where((x + h > hi) | (x + h < lo), -h, h)
    jac = np.empty((len(r), len(x)))
    for j in range(len(x)):
        xj = x.copy()
        xj[j] += h[j]
        jac[:, j] = (residual_fn(xj) - r) / (xj[j] - x[j])
    return jac


def _levenberg_marquardt(residual_fn, x0, r, lo, hi, max_nfev):
    """Bounded Levenberg-Marquardt minimisation of |residual_fn(x)|^2 / 2
    from ``x0``, whose residuals ``r`` the caller has already evaluated (they
    count as the first evaluation).  Returns ``(x, residuals, jacobian,
    nfev)`` at the solution.

    Each iteration scales the Jacobian's columns by their largest norm so
    far, leaves out the parameters held at a bound by the gradient, solves
    the damped Gauss-Newton step by SVD and projects the trial point onto
    the bounds.  A step is kept when it lowers the cost; the damping
    follows the gain ratio (Nielsen's update).  It starts at 1, the scale of
    the normalised J^T J, so the first step is about half the Gauss-Newton
    step: an undamped first step from a Rabi frequency guess a fraction of a
    spectral bin off can land in the neighbouring minimum with theta of the
    wrong sign.  It stops on two relative tests only, so that scaling the
    residuals by a power of two leaves every step and the stopping point
    unchanged: a kept step with gain ratio above 1/4 that lowers the cost by
    less than ``_LM_TOL`` of it, or a step shorter than
    ``_LM_TOL (_LM_TOL + |x|)``.  It also stops when the bounds hold every
    parameter.  Reaching ``max_nfev`` evaluations (the Jacobian's not
    counted) first raises :class:`FitError`.
    """
    x = np.array(x0, dtype=float)
    if not np.isfinite(r).all():
        raise FitError("residuals are not finite at the start")
    nfev = 1
    with np.errstate(over="ignore"):
        cost = 0.5 * _sum_of_squares(r @ r, r)
    col_norms = np.zeros(len(x))
    damping, grow = 1.0, 2.0
    while True:
        jac = _forward_jacobian(residual_fn, x, r, lo, hi)
        col_norms = np.maximum(col_norms, np.sqrt(np.add.reduce(jac * jac, axis=0)))
        d = np.where(col_norms > 0, col_norms, 1.0)
        g = jac.T @ r
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        if not free.any():
            return x, r, jac, nfev
        u, s, vt = np.linalg.svd(jac[:, free] / d[free], full_matrices=False)
        ur = u.T @ r
        while True:
            if nfev >= max_nfev:
                raise FitError("least-squares fit did not converge")
            step = np.zeros(len(x))
            step[free] = -(vt.T @ (s * ur / (s * s + damping))) / d[free]
            x_new = np.clip(x + step, lo, hi)
            step = x_new - x
            r_new = residual_fn(x_new)
            nfev += 1
            if not np.isfinite(r_new).all():
                damping *= grow
                grow *= 2.0
                continue
            cost_new = 0.5 * float(r_new @ r_new)
            model_change = jac @ step
            predicted = -float(model_change @ r + 0.5 * model_change @ model_change)
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0 else 0.0
            done = (reduction < _LM_TOL * cost and ratio > 0.25) or (
                math.sqrt(step @ step) < _LM_TOL * (_LM_TOL + math.sqrt(x @ x))
            )
            if reduction > 0:
                x, r, cost = x_new, r_new, cost_new
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                grow = 2.0
            else:
                damping *= grow
                grow *= 2.0
            if done:
                if reduction > 0:
                    jac = _forward_jacobian(residual_fn, x, r, lo, hi)
                return x, r, jac, nfev
            if reduction > 0:
                break


def _sum_of_squares(total, residuals) -> float:
    """``total``, the sum of the squared ``residuals``, as a float.  Raises
    FitError when it is not a normal float while some residual is nonzero:
    the squares have left the float range, so no step and no chi-square can
    be judged.  The caller forms ``total`` with overflow ignored."""
    total, floats = float(total), np.finfo(float)
    if not floats.tiny <= total <= floats.max and residuals.any():
        raise FitError("the residuals' sum of squares is not a normal float; rescale the data")
    return total


def _fit_result(
    params, residuals, jtj, data: DataSeries, param_names, n_iterations, flags=(),
) -> FitResult:
    """Chi-square, covariance, uncertainties and flags at a solution.

    ``residuals`` are (model - y) / sigma and ``jtj`` is J^T J of those
    weighted residuals.  The covariance is inv(J^T J), scaled by the reduced
    chi-square when the data carry no sigma.  ``"degenerate_covariance"`` is
    added when J^T J cannot be inverted (a parameter the model does not
    depend on gives a zero row) or, normalised by its diagonal as
    D^-1/2 J^T J D^-1/2, has a smallest-to-largest eigenvalue ratio of at
    most 1e-12; the normalisation makes the test independent of the
    parameters' units, so only near-collinear Jacobian columns trip it.
    D^-1/2 is taken before the outer product, which cannot underflow while
    the diagonal is a normal float.
    ``"residual_structure"`` is added when a Wald-Wolfowitz runs test over
    eight or more points gives z < -3.  A chi-square that is not a normal
    float raises FitError (see :func:`_sum_of_squares`).
    """
    flags = list(flags)
    dof = len(data) - len(params)
    with np.errstate(over="ignore"):
        chisq = _sum_of_squares(np.sum(residuals**2), residuals)
    reduced = chisq / dof if dof > 0 else float("nan")
    try:
        cov = np.linalg.inv(jtj)
        if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) < 0):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        flags.append("degenerate_covariance")
    else:
        s = np.sqrt(np.diag(jtj))
        eigvals = np.linalg.eigvalsh(jtj / np.outer(s, s))
        if eigvals[0] <= 1e-12 * eigvals[-1]:
            flags.append("degenerate_covariance")
    if data.sigma is None and dof > 0:
        cov = cov * reduced
    if len(data) >= 8:
        z = _runs_test_z(residuals, np.argsort(data.x))
        if z < -RUNS_TEST_FLAG_Z:
            flags.append("residual_structure")
    return FitResult(
        params=params,
        uncertainties=np.sqrt(np.abs(np.diag(cov))),
        reduced_chisq=reduced,
        residuals=residuals,
        converged=True,
        n_iterations=int(n_iterations),
        param_names=tuple(param_names),
        flags=tuple(flags),
    )


# ----------------------------------------------------------------------
# recipes
# ----------------------------------------------------------------------

def fit_beam_profile(x, signal, sigma=None) -> FitResult:
    """Fit a Gaussian to a beam-profile scan (Rabi angle or rate vs position).

    Returns parameters ("amplitude", "center", "waist"), where waist is the
    1/e^2 intensity radius of the beam.  Raises FitError on flat data and
    on a scan whose maximum is not positive.  Structured residuals (e.g. a
    non-Gaussian shoulder) are flagged as ``"residual_structure"``.
    """
    data = DataSeries(x, signal, sigma)
    if len(data) < 5:
        raise FitError("beam-profile fit needs at least 5 points spanning the peak")
    amp0 = float(np.max(data.y))
    if amp0 <= 0 or amp0 - float(np.min(data.y)) < 1e-9 * max(amp0, 1e-300):
        raise FitError("beam-profile data has no peak structure")
    center0 = float(data.x[np.argmax(data.y)])
    weights = np.clip(data.y, 0.0, None)  # the peak makes their sum positive
    var = float(np.sum(weights * (data.x - center0) ** 2) / float(np.sum(weights)))
    waist0 = math.sqrt(2.0 * var) if var > 0 else 0.25 * np.ptp(data.x)
    xr = float(np.ptp(data.x))
    lo = [0.0, float(np.min(data.x)) - xr, 1e-6 * xr]
    hi = [np.inf, float(np.max(data.x)) + xr, 100.0 * xr]
    return fit_least_squares(
        gaussian_beam_model,
        data,
        guess=[amp0, center0, min(max(waist0, lo[2] * 2), hi[2] * 0.5)],
        bounds=(lo, hi),
        param_names=("amplitude", "center", "waist"),
    )


def damped_rabi_model(params, t):
    """Thermal Rabi p1 of :func:`ionchain.decoherence.rabi_trace`.

    params = (omega0, theta_1, ..., theta_k), one decay parameter per mode.
    """
    return _thermal_rabi(params[0], params[1:], t)[0]


def _rabi_frequency_guess(t, p1) -> float:
    """Dominant oscillation frequency from the discrete spectrum of p1(t)."""
    y = np.asarray(p1, dtype=float) - float(np.mean(p1))
    dt = float(np.mean(np.diff(t)))
    spectrum = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(len(y), dt)
    k = int(np.argmax(spectrum[1:]) + 1)
    return 2.0 * math.pi * float(freqs[k])


def _sorted_median(values) -> float:
    """Median of a sorted, finite, non-empty array, bit-equal to np.median
    (the mean of the two middle values for an even length), without the
    import of numpy.ma that np.median makes on first use."""
    lo, hi = values[(len(values) - 1) // 2], values[len(values) // 2]
    return float(0.5 * (lo + hi))


def fit_rabi_trace(t, p1, sigma=None) -> FitResult:
    """Fit a thermally damped Rabi oscillation.

    Parameters ("rabi_frequency", "theta"): one effective decay parameter.
    The initial Rabi-frequency guess comes from the dominant spectral peak
    of the trace and theta from the late-time envelope, which avoids
    period-aliased local minima.  For data sampled with ``shots`` shots per
    point, pass sigma = sqrt(p1 (1 - p1) / shots), floored at 1/(shots + 2)
    so that points at exactly 0 or 1 keep a finite weight.

    Adds flag ``"theta_consistent_with_zero"`` when |theta| < its 1-sigma
    uncertainty.  Requires the trace to span at least two oscillation
    periods.  The points may come in any order: the guesses are taken from
    a time-sorted copy, and the residuals keep the input order.
    """
    data = DataSeries(t, p1, sigma)
    order = np.argsort(data.x, kind="stable")
    t, p1 = data.x[order], data.y[order]
    omega0 = _rabi_frequency_guess(t, p1)
    if omega0 <= 0 or omega0 * float(np.max(t)) < 4.0 * math.pi:
        raise FitError("trace must span at least two oscillation periods")
    tail = slice(3 * len(t) // 4, None)
    c_est = float(np.clip(2.0 * np.max(np.abs(p1[tail] - 0.5)), 0.05, 1.0))
    t_tail = _sorted_median(t[tail])
    theta0 = math.sqrt(max(c_est**-2 - 1.0, 1e-12)) / (omega0 * t_tail)
    result = fit_least_squares(
        damped_rabi_model, data, [omega0, theta0],
        ([0.5 * omega0, -np.inf], [2.0 * omega0, np.inf]), ("rabi_frequency", "theta"),
    )
    if abs(result.params[1]) < result.uncertainties[1]:
        result = dataclasses.replace(
            result, flags=result.flags + ("theta_consistent_with_zero",)
        )
    return result


def fit_theta_growth(t_wait, theta, sigma=None) -> FitResult:
    """Weighted straight-line fit of decay parameters vs wait time.

    Parameters ("intercept", "slope"); the slope is the decay-parameter
    growth rate in 1/s.  A negative fitted slope is unphysical for heating
    and is flagged as ``"negative_slope"``.  Solved in closed form (normal
    equations), so two exact points reproduce the line exactly.  Raises
    FitError unless there are at least two distinct wait times.
    """
    data = DataSeries(t_wait, theta, sigma)
    if len(data) < 2 or np.ptp(data.x) == 0:
        raise FitError("linear growth fit needs at least two distinct wait times")
    w = 1.0 / data.sigma**2 if data.sigma is not None else np.ones(len(data))
    A = np.column_stack([np.ones(len(data)), data.x])
    Aw = A * w[:, None]
    jtj = A.T @ Aw
    try:  # distinct wait times a few ulp apart can still round J^T J singular
        params = np.linalg.inv(jtj) @ (Aw.T @ data.y)
    except np.linalg.LinAlgError:
        raise FitError("wait times too close together to solve for a slope")
    scaled_sigma = data.sigma if data.sigma is not None else np.ones(len(data))
    residuals = (A @ params - data.y) / scaled_sigma
    return _fit_result(
        params, residuals, jtj, data, ("intercept", "slope"), 1,
        flags=("negative_slope",) if params[1] < 0 else (),
    )


def fit_theta_power_law(omega0, rates, sigma=None) -> FitResult:
    """Fit decay-parameter growth rates vs trap frequency to a power law.

    Parameters ("amplitude", "alpha", "offset") of
    :func:`ionchain.heating.theta_rate_model`: the field-noise exponent
    alpha is bounded to [0, 2], and the amplitude and the offset, which
    absorbs frequency-independent heating, to >= 0.  At least 4 frequencies
    are required; spanning a decade or more is recommended for a
    well-conditioned exponent.

    Solved by variable projection: the model is linear in (amplitude,
    offset) for fixed alpha, so chi^2(alpha) is minimised over the two
    non-negative linear parameters at each alpha, and alpha by golden
    section over [0, 2] to 1e-12, the endpoints included.
    ``n_iterations`` counts the chi^2(alpha) evaluations.  The
    ``"degenerate_covariance"`` flag (see :func:`_fit_result`) fires when
    the exponent is unidentifiable, e.g. when the fitted amplitude is zero
    so that the rates do not depend on alpha.
    """
    data = DataSeries(omega0, rates, sigma)
    if len(data) < 4:
        raise FitError("power-law fit needs at least 4 frequency points")
    _positive_frequency(data.x)
    sigma = data.sigma if data.sigma is not None else np.ones(len(data))
    w = 1.0 / sigma
    # columns in units of the geometric-mean frequency stay O(1); in rad/s
    # the power-law column is ~1e-18 and lstsq would truncate it
    omega_ref = math.exp(float(np.mean(np.log(data.x))))
    log_u = np.log(data.x / omega_ref)
    wy = w * data.y
    with np.errstate(over="ignore"):  # the residuals at (a, offset) = 0 bound every chi^2
        _sum_of_squares(wy @ wy, wy)
    evaluations = 0

    def project(alpha):
        """Best non-negative (a, offset) of a u^(-2-alpha) + offset, and chi^2."""
        nonlocal evaluations
        evaluations += 1
        design = np.column_stack([w * np.exp((-2.0 - alpha) * log_u), w])
        coef = np.linalg.lstsq(design, wy, rcond=None)[0]
        if (coef < 0).any():  # optimum on a face: one column, clamped at 0
            faces = []
            for k in range(2):
                col = design[:, k]
                only = np.zeros(2)
                only[k] = max(float(col @ wy) / float(col @ col), 0.0)
                faces.append(only)
            coef = min(faces, key=lambda c: float(np.sum((design @ c - wy) ** 2)))
        resid = design @ coef - wy
        return coef, float(resid @ resid)

    a, b = 0.0, 2.0
    ends = ((a, project(a)[1]), (b, project(b)[1]))
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gold * (b - a), a + gold * (b - a)
    fc, fd = project(c)[1], project(d)[1]
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gold * (b - a)
            fc = project(c)[1]
        else:
            a, c, fc = c, d, fd
            d = a + gold * (b - a)
            fd = project(d)[1]
    best_alpha = min(ends + ((c, fc), (d, fd)), key=lambda e: e[1])[0]
    (a_ref, offset), _ = project(best_alpha)
    amplitude = a_ref * omega_ref ** (2.0 + best_alpha)
    residuals = (theta_rate_model(data.x, amplitude, best_alpha, offset) - data.y) / sigma
    power = data.x ** (-2.0 - best_alpha)
    jac = w[:, None] * np.column_stack(
        [power, -amplitude * np.log(data.x) * power, np.ones(len(data))]
    )
    return _fit_result(
        np.array([amplitude, best_alpha, offset]), residuals, jac.T @ jac, data,
        ("amplitude", "alpha", "offset"), evaluations,
    )
