"""Weighted nonlinear least squares and the fit recipes used by this package.

The core is a bounded Levenberg-Marquardt loop in numpy (the model's exact
Jacobian with norm-scaled columns, steps projected onto the bounds), solved
once from the recipe's guess and ended by undamped Gauss-Newton steps until
a step is below round-off of the parameters.  Where it stops is then set by
the minimum, not by the damped loop's path: the loop needs no finite
differences, whose noise and unit-dependent step used to set it.  Every fit,
including the closed-form line and the variable-projection power law, ends
in one summary step that gives covariance-based parameter uncertainties and
the diagnostic flags, from exact Jacobians.  When per-point sigmas are
supplied the covariance is absolute; otherwise it is scaled by the reduced
chi-square.

Recipes:

- beam profile: Gaussian amplitude vs position, recovering the 1/e^2
  intensity radius,
- Rabi trace: thermally damped oscillation, recovering the Rabi frequency
  and the effective decay parameter,
- decay-parameter growth: weighted straight line in wait time, in closed
  form,
- rate power law: A * omega^(-2-alpha) + B vs trap frequency, recovering the
  field-noise exponent by variable projection: (A, B) from 2 x 2 normal
  equations at each alpha, and alpha by Brent's method.

Each model's Jacobian sits next to it: :func:`gaussian_beam_jacobian`,
:func:`damped_rabi_jacobian` and :func:`power_law_jacobian`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .decoherence import _thermal_contrast, _thermal_rabi, gaussian_beam_model
from .errors import FitError, InputError
from .heating import _positive_frequency

RUNS_TEST_FLAG_Z = 3.0

_LM_TOL = 1e-10
"""Relative stopping tolerance of :func:`_levenberg_marquardt`; the
Gauss-Newton steps of :func:`_gauss_newton` take the fit on to round-off."""
_ROUNDOFF = 4.0
"""A Gauss-Newton step of at most this many eps |x_j| in every parameter
is round-off: its own rounding errors are of that size."""
_POLISH_STEPS = 8
"""Most Gauss-Newton steps of :func:`_gauss_newton`."""
_BRENT_XTOL = 1e-10
"""Absolute tolerance in alpha of :func:`_brent_minimum`."""


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
    jacobian: Callable,
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
    jacobian : callable
        Its derivatives ``jacobian(params, x) -> J``, J[i, j] = dy_i/dparams_j,
        of shape (len(x), len(params)).
    data : DataSeries
        Points to fit; ``sigma`` weights the residuals when present.
    guess : array
        Starting parameters; must produce finite model values of the data's
        shape and a finite Jacobian of the shape above.
    bounds : (lower, upper)
        Per-parameter bounds, +-inf where a side is free; each lower bound
        must lie below its upper one.
    param_names : sequence of str
        Names for lookup on the result, one per parameter.

    One :func:`_levenberg_marquardt` solve runs from the guess;
    ``n_iterations`` is its number of model evaluations (the Jacobian's are
    not counted).  See :func:`_fit_result` for the covariance and the flags.

    Raises
    ------
    InputError
        If the model's output or the Jacobian at the guess does not have the
        shape above, or the bounds are malformed or exclude the guess.
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
    jac_at_guess = jacobian(guess, data.x)
    if np.shape(jac_at_guess) != (len(data), n_params):
        raise InputError(
            f"Jacobian has shape {np.shape(jac_at_guess)} at the initial guess, "
            f"but the fit needs {(len(data), n_params)}"
        )
    if not np.all(np.isfinite(jac_at_guess)):
        raise FitError("Jacobian is not finite at the initial guess")
    column_sigma = sigma[:, None]

    def residual_fn(p):
        return (model(p, data.x) - data.y) / sigma

    def jacobian_fn(p):
        return jacobian(p, data.x) / column_sigma

    try:
        params, residuals, jac, nfev = _levenberg_marquardt(
            residual_fn, guess, (at_guess - data.y) / sigma, jacobian_fn,
            jac_at_guess / column_sigma, lo, hi, 100 * n_params,
        )
    except FitError:
        raise
    except Exception as exc:
        raise FitError(
            f"the least-squares solve raised {type(exc).__name__}: {exc}"
        ) from exc
    return _fit_result(params, residuals, jac.T @ jac, data, param_names, nfev)


def _scaled_svd(jac, r, x, lo, hi, d):
    """SVD of the Jacobian's free columns, each divided by its scale in
    ``d``: ``(free, s, u^T r, v^T)``, or None when the bounds hold every
    parameter.  A parameter at a bound is held when the gradient J^T r
    pushes it outwards."""
    g = jac.T @ r
    free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
    if not free.any():
        return None
    u, s, vt = np.linalg.svd(jac[:, free] / d[free], full_matrices=False)
    return free, s, u.T @ r, vt


def _levenberg_marquardt(residual_fn, x0, r, jacobian_fn, jac, lo, hi, max_nfev):
    """Bounded Levenberg-Marquardt minimisation of |residual_fn(x)|^2 / 2
    from ``x0``, whose residuals ``r`` and Jacobian ``jac`` the caller has
    already evaluated (the residuals count as the first evaluation); then
    :func:`_gauss_newton` from where it stops.  ``jacobian_fn(x)`` is the
    exact Jacobian of ``residual_fn``.  Returns ``(x, residuals, jacobian,
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
        col_norms = np.maximum(col_norms, np.sqrt(np.add.reduce(jac * jac, axis=0)))
        d = np.where(col_norms > 0, col_norms, 1.0)
        factors = _scaled_svd(jac, r, x, lo, hi, d)
        if factors is None:
            return x, r, jac, nfev
        free, s, ur, vt = factors
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
                jac = jacobian_fn(x)
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                grow = 2.0
            else:
                damping *= grow
                grow *= 2.0
            if done:
                return _gauss_newton(residual_fn, x, r, cost, jacobian_fn, jac, lo, hi, d, nfev)
            if reduction > 0:
                break


def _gauss_newton(residual_fn, x, r, cost, jacobian_fn, jac, lo, hi, d, nfev):
    """Undamped Gauss-Newton steps from the point where the Levenberg-Marquardt
    loop stopped, on its column scales ``d``, so that the fit ends at its
    minimum and not at the point where the damped loop happened to stop.

    Near the minimum the cost is flat to round-off long before the steps
    are, so the steps, not the cost, decide where it stops: before a step
    below round-off of the parameters, |step_j| <= ``_ROUNDOFF`` eps |x_j|
    for every j, or one no shorter than the step before it (scaled by
    ``d``), both relative tests, so scaling the residuals by a power of two
    changes no step.  It also stops, keeping the last point, where the cost
    is not finite or rises by more than ``_LM_TOL`` of itself, the least
    fall the damped loop still took for progress (a smaller rise is
    round-off: the cost sums n residuals each rounded to a few ulp of the
    model), and after ``_POLISH_STEPS`` steps.  Singular values below
    eps times the largest take no step.  Returns ``(x, residuals,
    jacobian, nfev)``.
    """
    eps = np.finfo(float).eps
    last = math.inf
    for _ in range(_POLISH_STEPS):
        factors = _scaled_svd(jac, r, x, lo, hi, d)
        if factors is None:
            break
        free, s, ur, vt = factors
        kept = s > eps * s[0]
        step = np.zeros(len(x))
        step[free] = -(vt[kept].T @ (ur[kept] / s[kept])) / d[free]
        x_new = np.clip(x + step, lo, hi)
        step = x_new - x
        length = math.sqrt(float(np.sum((d * step) ** 2)))
        if (np.abs(step) <= _ROUNDOFF * eps * np.abs(x)).all() or not length < last:
            break
        r_new = residual_fn(x_new)
        nfev += 1
        cost_new = 0.5 * float(r_new @ r_new)
        if not cost_new <= (1.0 + _LM_TOL) * cost:  # also nan or inf
            break
        x, r, cost, last = x_new, r_new, cost_new, length
        jac = jacobian_fn(x)
    return x, r, jac, nfev


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

def gaussian_beam_jacobian(params, x):
    """Derivatives of :func:`ionchain.decoherence.gaussian_beam_model` in
    (amplitude, center, waist): with s = (x - center) / waist and
    e = exp(-s^2), the columns e, 2 s A e / waist and 2 s^2 A e / waist."""
    amplitude, center, waist = params
    s = (x - center) / waist
    e = np.exp(-s * s)
    slope = (2.0 * amplitude / waist) * s * e
    return np.column_stack([e, slope, slope * s])


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
        gaussian_beam_jacobian,
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


def damped_rabi_jacobian(params, t):
    """Derivatives of :func:`damped_rabi_model` in (omega0, theta_1, ...).

    In complex form p1 = (1 - Re Z) / 2 with a_m = theta_m omega0 t and
    Z = e^(i omega0 t) prod_m (1 + i a_m)^(-1) = C e^(i psi), psi = omega0 t - phi,
    so that

        dZ/dtheta_m = -i omega0 t Z / (1 + i a_m),
        dZ/domega0  = i t Z (1 - sum_m theta_m / (1 + i a_m)),

    taken here in real arithmetic with h_m = 1 / (1 + a_m^2):
    dp1/dtheta_m = omega0 t h_m (a_m Re Z - Im Z) / 2 and dp1/domega0 =
    t (Im Z (1 - sum_m theta_m h_m) + Re Z sum_m theta_m a_m h_m) / 2.  C and a
    come from the contrast kernel, so its limits carry over: every column is
    0 at t = 0, and where some a_m or a_m^2 overflows, C = 0 gives columns
    of 0 with no warning.
    """
    params = np.asarray(params, dtype=float)
    thetas = params[1:]
    contrast, a = _thermal_contrast(thetas, params[0], t)
    with np.errstate(over="ignore", invalid="ignore"):  # a = inf: a h = nan, set to 0
        h = np.reciprocal(a * a + 1.0)
        ah = a * h
        ah[np.isinf(a)] = 0.0
    psi = params[0] * t - np.arctan(a).sum(axis=0)
    re_z, im_z = contrast * np.cos(psi), contrast * np.sin(psi)
    jac = np.empty((len(t), len(params)))
    jac[:, 0] = 0.5 * t * (im_z * (1.0 - thetas @ h) + re_z * (thetas @ ah))
    jac[:, 1:] = ((0.5 * params[0] * t) * (ah * re_z - h * im_z)).T
    return jac


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
        damped_rabi_model, damped_rabi_jacobian, data, [omega0, theta0],
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
    non-negative linear parameters at each alpha (the 2 x 2 normal
    equations, or one column clamped at 0 where they give a negative one),
    and alpha by :func:`_brent_minimum` inside [0, 2], with both endpoints
    then compared.  ``n_iterations`` counts the chi^2(alpha) evaluations,
    about 13 on the calibration benchmark's data.  The
    ``"degenerate_covariance"`` flag (see :func:`_fit_result`) fires when
    the exponent is unidentifiable, e.g. when the fitted amplitude is zero
    so that the rates do not depend on alpha.
    """
    data = DataSeries(omega0, rates, sigma)
    if len(data) < 4:
        raise FitError("power-law fit needs at least 4 frequency points")
    _positive_frequency(data.x)
    sigma = data.sigma if data.sigma is not None else np.ones(len(data))
    weighted = data.y / sigma
    with np.errstate(over="ignore"):  # the residuals at (a, offset) = 0 bound every chi^2
        _sum_of_squares(weighted @ weighted, weighted)
    # the search takes the weights 1/sigma, and the weighted rates, each
    # scaled by the power of two that puts its largest value in [1/2, 1):
    # it sees the same numbers for sigma and 2^k sigma, and the normal
    # equations' squares stay in range whatever the units of the data
    w = _unit_scaled(1.0 / sigma)[0]
    wy, y_exponent = _unit_scaled(w * data.y)
    # columns in units of the geometric-mean frequency stay O(1); in rad/s
    # the power-law column is ~1e-18
    omega_ref = math.exp(float(np.mean(_libm(math.log, data.x))))
    log_u = _libm(math.log, data.x / omega_ref)
    ww, w_wy = float(w @ w), float(w @ wy)
    evaluations = 0

    def project(alpha):
        """Best non-negative (a, offset) of a u^(-2-alpha) + offset, and chi^2
        in the weights' units, from the 2 x 2 normal equations."""
        nonlocal evaluations
        evaluations += 1
        col = w * _libm(math.exp, (-2.0 - alpha) * log_u)
        cc, cw, c_wy = float(col @ col), float(col @ w), float(col @ wy)
        det = cc * ww - cw * cw
        if det > 0:
            coef = ((c_wy * ww - cw * w_wy) / det, (cc * w_wy - cw * c_wy) / det)
        if det <= 0 or min(coef) < 0:  # optimum on a face: one column, clamped at 0
            faces = ((max(c_wy / cc, 0.0), 0.0), (0.0, max(w_wy / ww, 0.0)))
            coef = min(faces, key=lambda c: _chi_squared(c, col, w, wy))
        return coef, _chi_squared(coef, col, w, wy)

    alpha, chisq = _brent_minimum(lambda alpha: project(alpha)[1], 0.0, 2.0)
    best_alpha = min(((0.0, project(0.0)[1]), (2.0, project(2.0)[1]), (alpha, chisq)),
                     key=lambda e: e[1])[0]
    a_ref, offset = (math.ldexp(c, y_exponent) for c in project(best_alpha)[0])
    amplitude = a_ref * omega_ref ** (2.0 + best_alpha)
    jac = power_law_jacobian(data.x, amplitude, best_alpha)
    residuals = (amplitude * jac[:, 0] + offset - data.y) / sigma  # theta_rate_model
    jac /= sigma[:, None]
    return _fit_result(
        np.array([amplitude, best_alpha, offset]), residuals, jac.T @ jac, data,
        ("amplitude", "alpha", "offset"), evaluations,
    )


def power_law_jacobian(omega, amplitude, alpha):
    """Derivatives of :func:`ionchain.heating.theta_rate_model` in
    (amplitude, alpha, offset): omega^(-2-alpha), -A ln(omega) omega^(-2-alpha)
    and 1, with the power and the logarithm from libm (see :func:`_libm`)."""
    log_omega = _libm(math.log, omega)
    power = _libm(math.exp, (-2.0 - alpha) * log_omega)
    return np.column_stack([power, -amplitude * log_omega * power, np.ones(len(omega))])


def _unit_scaled(values) -> tuple[np.ndarray, int]:
    """``values`` times 2^-e, exactly, and e: the power of two that puts the
    largest |value| in [1/2, 1) (e = 0 for all zeros)."""
    exponent = math.frexp(float(np.max(np.abs(values))))[1]
    return np.ldexp(values, -exponent), exponent


def _libm(function, values) -> np.ndarray:
    """The :mod:`math` ``function`` of each value, as a float array.  libm's
    scalar results do not follow numpy's choice of SIMD loops for the CPU
    (numpy's AVX-512 exp and pow differ from libm in the last bit for some
    arguments), so the power law, whose few points make the loop cheap,
    prints the same digits on any CPU."""
    return np.array([function(v) for v in values.tolist()])


def _chi_squared(coef, col, w, wy) -> float:
    """|a col + offset w - wy|^2 for coef = (a, offset), summed from the
    residuals themselves, not the normal equations, whose terms cancel."""
    resid = coef[0] * col + coef[1] * w - wy
    return float(resid @ resid)


def _brent_minimum(f, lo, hi):
    """(x, f(x)) at a local minimum of ``f`` inside (lo, hi), by Brent's
    method: parabolic interpolation through the three best points, with a
    golden-section step wherever the parabola's step is not trusted (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5).  It
    stops once the bracket's midpoint is within 2 tol - (b - a)/2 of the
    best point, tol = sqrt(eps) |x| + _BRENT_XTOL / 3.  Only comparisons and
    ratios of differences of f enter, so scaling f by a power of two changes
    no step.  Never evaluates f at lo or hi."""
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    root_eps = math.sqrt(np.finfo(float).eps)
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = root_eps * abs(x) + _BRENT_XTOL / 3.0
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol:  # fit a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if x <= m else -tol
        if not parabolic:  # golden section into the larger part
            e = (a if x >= m else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
