"""Weighted nonlinear least squares and the fit recipes used by this package.

The core wraps scipy's trust-region least-squares solver with deterministic
multi-start (the base guess plus three jittered copies; the lowest chi-square
wins, ties going to the lowest restart index) and standard covariance-based
parameter uncertainties.  When per-point sigmas are supplied the covariance
is absolute; otherwise it is scaled by the reduced chi-square.

Recipes:

- beam profile: Gaussian amplitude vs position, recovering the 1/e^2
  intensity radius,
- Rabi trace: thermally damped oscillation, recovering the Rabi frequency
  and the effective decay parameter,
- decay-parameter growth: weighted straight line in wait time,
- rate power law: A * omega^(-2-alpha) + B vs trap frequency, recovering the
  field-noise exponent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .decoherence import _thermal_rabi
from .errors import FitError, InputError
from .heating import theta_rate_model

JITTER_SEED = 1333
"""Fixed seed for the multi-start jitter; makes every fit deterministic."""

RUNS_TEST_FLAG_Z = 3.0


@dataclass(frozen=True)
class DataSeries:
    """Measured (x, y) points with optional per-point standard deviations."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None
    x_label: str = "x"
    y_label: str = "y"

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

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FitResult:
    """Parameters, uncertainties and diagnostics of a least-squares fit."""

    params: np.ndarray
    uncertainties: np.ndarray
    covariance: np.ndarray
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


def binomial_sigma(p, n_shots: int) -> np.ndarray:
    """Per-point standard deviation for shot-sampled probabilities.

    sqrt(p (1 - p) / n_shots), floored at 1/(n_shots + 2) so that points at
    exactly 0 or 1 keep a finite weight.
    """
    if n_shots < 1:
        raise InputError("n_shots must be >= 1")
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    s = np.sqrt(p * (1.0 - p) / n_shots)
    return np.maximum(s, 1.0 / (n_shots + 2))


def _runs_test_z(residuals: np.ndarray, order: np.ndarray) -> float:
    """Wald-Wolfowitz runs-test z-score on residual signs (sorted by x).

    Structured (autocorrelated) residuals give strongly negative z.
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
    if var <= 0:
        return 0.0
    return (runs - mean) / math.sqrt(var)


def fit_least_squares(
    model: Callable,
    data: DataSeries,
    guess,
    bounds=None,
    param_names: Sequence[str] | None = None,
    n_restarts: int = 3,
    jitter_scale: float = 0.1,
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
    bounds : (lower, upper), optional
        Per-parameter bounds passed to the trust-region solver.
    param_names : sequence of str, optional
        Names for lookup on the result.
    n_restarts : int, optional
        Number of additional deterministically jittered starts.

    The result carries the ``"degenerate_covariance"`` flag when J^T J at
    the solution cannot be inverted, has a zero diagonal entry (a parameter
    the model does not depend on), or, normalised by its diagonal as
    D^-1/2 J^T J D^-1/2, has a smallest-to-largest eigenvalue ratio of
    at most 1e-12.  The normalisation makes the test independent of the
    parameters' units, so only near-collinear Jacobian columns trip it.

    Raises
    ------
    InputError
        If the model's output at the guess does not have the data's shape.
    FitError
        If there are fewer points than parameters, or no start converges.
        The exception carries the best attempt as ``best_result``; when
        every start raised, it is chained from the last start's exception.
    """
    guess = np.atleast_1d(np.asarray(guess, dtype=float))
    n_params = len(guess)
    if param_names is None:
        param_names = tuple(f"p{i}" for i in range(n_params))
    else:
        param_names = tuple(param_names)
        if len(param_names) != n_params:
            raise InputError("param_names must match the number of parameters")
    if len(data) < n_params:
        raise FitError(
            f"need at least {n_params} points to fit {n_params} parameters, "
            f"got {len(data)}"
        )
    sigma = data.sigma if data.sigma is not None else np.ones(len(data))
    at_guess = model(guess, data.x)
    if np.shape(at_guess) != data.y.shape:
        raise InputError(
            f"model output has shape {np.shape(at_guess)} at the initial guess, "
            f"but the data have shape {data.y.shape}"
        )
    if not np.all(np.isfinite(at_guess)):
        raise FitError("model is not finite at the initial guess")
    if bounds is None:
        lo = np.full(n_params, -np.inf)
        hi = np.full(n_params, np.inf)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
    if np.any(guess < lo) or np.any(guess > hi):
        raise InputError("initial guess violates the bounds")

    def residual_fn(p):
        return (model(p, data.x) - data.y) / sigma

    rng = np.random.default_rng(JITTER_SEED)
    scale = np.maximum(np.abs(guess), np.median(np.abs(guess)) + 1e-300)
    starts = [guess]
    for _ in range(n_restarts):
        jittered = guess + jitter_scale * scale * rng.standard_normal(n_params)
        starts.append(np.clip(jittered, lo, hi))

    from scipy.optimize import least_squares

    best = None
    best_cost = np.inf
    last_error = None
    for start in starts:
        try:
            res = least_squares(
                residual_fn,
                x0=start,
                bounds=(lo, hi),
                method="trf",
                x_scale="jac",
                xtol=1e-14,
                ftol=1e-14,
                gtol=1e-14,
            )
        except Exception as exc:
            last_error = exc
            continue
        if best is None or res.cost < best_cost - 1e-15 * max(abs(best_cost), 1.0):
            best = res
            best_cost = res.cost
    if best is None:
        raise FitError(
            "no least-squares start converged; the last start raised "
            f"{type(last_error).__name__}: {last_error}"
        ) from last_error

    residuals = best.fun
    dof = len(data) - n_params
    chisq = float(np.sum(residuals**2))
    reduced = chisq / dof if dof > 0 else float("nan")
    jac = best.jac
    flags = []
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
        if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) < 0):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        flags.append("degenerate_covariance")
    else:
        # near-singular information matrix also flags identifiability loss;
        # D^-1/2 JtJ D^-1/2 makes the test blind to the parameters' units
        diag = np.diag(jtj)
        if np.any(diag <= 0):
            flags.append("degenerate_covariance")
        else:
            eigvals = np.linalg.eigvalsh(jtj / np.sqrt(np.outer(diag, diag)))
            if eigvals[0] <= 1e-12 * eigvals[-1]:
                flags.append("degenerate_covariance")
    if data.sigma is None and dof > 0:
        cov = cov * reduced
    uncertainties = np.sqrt(np.abs(np.diag(cov)))
    if len(data) >= 8:
        z = _runs_test_z(residuals, np.argsort(data.x))
        if z < -RUNS_TEST_FLAG_Z:
            flags.append("residual_structure")
    converged = bool(best.status > 0)
    result = FitResult(
        params=best.x,
        uncertainties=uncertainties,
        covariance=cov,
        reduced_chisq=reduced,
        residuals=residuals,
        converged=converged,
        n_iterations=int(best.nfev),
        param_names=param_names,
        flags=tuple(flags),
    )
    if not converged:
        raise FitError("least-squares fit did not converge", best_result=result)
    return result


# ----------------------------------------------------------------------
# recipes
# ----------------------------------------------------------------------

def gaussian_beam_model(params, x):
    """amplitude * exp(-(x - center)^2 / waist^2)."""
    amplitude, center, waist = params
    s = (x - center) / waist
    return amplitude * np.exp(-s * s)


def fit_beam_profile(x, signal, sigma=None) -> FitResult:
    """Fit a Gaussian to a beam-profile scan (Rabi angle or rate vs position).

    Returns parameters ("amplitude", "center", "waist"), where waist is the
    1/e^2 intensity radius of the beam.  Raises FitError on flat or otherwise
    degenerate data.  Structured residuals (e.g. a non-Gaussian shoulder)
    are flagged as ``"residual_structure"``.
    """
    data = DataSeries(x, signal, sigma, x_label="position", y_label="signal")
    if len(data) < 5:
        raise FitError("beam-profile fit needs at least 5 points spanning the peak")
    span = float(np.max(data.y) - np.min(data.y))
    if span <= 0 or span < 1e-9 * max(abs(float(np.max(data.y))), 1e-300):
        raise FitError("beam-profile data has no peak structure")
    amp0 = float(np.max(data.y))
    center0 = float(data.x[np.argmax(data.y)])
    weights = np.clip(data.y, 0.0, None)
    wsum = float(np.sum(weights))
    if wsum > 0:
        var = float(np.sum(weights * (data.x - center0) ** 2) / wsum)
        waist0 = math.sqrt(2.0 * var) if var > 0 else 0.25 * np.ptp(data.x)
    else:
        waist0 = 0.25 * np.ptp(data.x)
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


def fit_rabi_trace(t, p1, sigma=None, n_shots=None, n_modes: int = 1) -> FitResult:
    """Fit a thermally damped Rabi oscillation.

    Parameters ("rabi_frequency", "theta") for the default single effective
    decay parameter; with ``n_modes > 1`` the thetas are named theta_0..  The
    initial Rabi-frequency guess comes from the dominant spectral peak of the
    trace and theta from the late-time envelope, which avoids period-aliased
    local minima.  If ``n_shots`` is given (and sigma is not), binomial
    uncertainties with a 1/(n_shots+2) floor are used.

    Adds flag ``"theta_consistent_with_zero"`` when |theta| < its 1-sigma
    uncertainty.  Requires the trace to span at least two oscillation
    periods.
    """
    t = np.asarray(t, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if sigma is None and n_shots is not None:
        sigma = binomial_sigma(p1, n_shots)
    if n_modes < 1:
        raise InputError("n_modes must be >= 1")
    data = DataSeries(t, p1, sigma, x_label="time", y_label="p1")
    omega0 = _rabi_frequency_guess(t, p1)
    if omega0 <= 0 or omega0 * float(np.max(t)) < 4.0 * math.pi:
        raise FitError("trace must span at least two oscillation periods")
    tail = slice(3 * len(t) // 4, None)
    c_est = float(np.clip(2.0 * np.max(np.abs(p1[tail] - 0.5)), 0.05, 1.0))
    t_tail = float(np.median(t[tail]))
    theta0 = math.sqrt(max(c_est**-2 - 1.0, 1e-12)) / (omega0 * t_tail)
    guess = [omega0] + [theta0 / math.sqrt(n_modes)] * n_modes
    if n_modes == 1:
        names = ("rabi_frequency", "theta")
    else:
        names = ("rabi_frequency",) + tuple(f"theta_{m}" for m in range(n_modes))
    lo = [0.5 * omega0] + [-np.inf] * n_modes
    hi = [2.0 * omega0] + [np.inf] * n_modes
    result = fit_least_squares(
        damped_rabi_model, data, guess, bounds=(lo, hi), param_names=names
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
    equations), so two exact points reproduce the line exactly.
    """
    data = DataSeries(t_wait, theta, sigma, x_label="wait time", y_label="theta")
    if len(data) < 2:
        raise FitError("linear growth fit needs at least 2 wait times")
    w = 1.0 / data.sigma**2 if data.sigma is not None else np.ones(len(data))
    A = np.column_stack([np.ones(len(data)), data.x])
    Aw = A * w[:, None]
    jtj = A.T @ Aw
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        raise FitError("degenerate wait-time design (all points identical?)")
    params = cov @ (Aw.T @ data.y)
    scaled_sigma = data.sigma if data.sigma is not None else np.ones(len(data))
    residuals = (A @ params - data.y) / scaled_sigma
    dof = len(data) - 2
    chisq = float(np.sum(residuals**2))
    reduced = chisq / dof if dof > 0 else float("nan")
    if data.sigma is None and dof > 0:
        cov = cov * reduced
    flags = []
    if params[1] < 0:
        flags.append("negative_slope")
    if len(data) >= 8:
        z = _runs_test_z(residuals, np.argsort(data.x))
        if z < -RUNS_TEST_FLAG_Z:
            flags.append("residual_structure")
    return FitResult(
        params=params,
        uncertainties=np.sqrt(np.abs(np.diag(cov))),
        covariance=cov,
        reduced_chisq=reduced,
        residuals=residuals,
        converged=True,
        n_iterations=1,
        param_names=("intercept", "slope"),
        flags=tuple(flags),
    )


def theta_rate_power_model(params, omega):
    """:func:`ionchain.heating.theta_rate_model` for params = (amplitude, alpha, offset)."""
    return theta_rate_model(omega, *params)


def fit_theta_power_law(omega0, rates, sigma=None) -> FitResult:
    """Fit decay-parameter growth rates vs trap frequency to a power law.

    Parameters ("amplitude", "alpha", "offset"): the field-noise exponent
    alpha is bounded to [0, 2] and the offset absorbs frequency-independent
    heating.  At least 4 frequencies are required; spanning a decade or more
    is recommended for a well-conditioned exponent.  The
    ``"degenerate_covariance"`` flag (see :func:`fit_least_squares`) fires
    when the exponent is unidentifiable, e.g. when the fitted amplitude is
    zero so that the rates do not depend on alpha; the amplitude's ~1e18
    scale next to alpha's ~1 does not by itself set it.
    """
    data = DataSeries(omega0, rates, sigma, x_label="frequency", y_label="rate")
    if len(data) < 4:
        raise FitError("power-law fit needs at least 4 frequency points")
    if np.any(data.x <= 0):
        raise InputError("frequencies must be positive")
    offset0 = max(0.5 * float(np.min(data.y)), 0.0)
    excess = np.maximum(data.y - offset0, 1e-300)
    slope, intercept = np.polyfit(np.log(data.x), np.log(excess), 1)
    alpha0 = float(np.clip(-slope - 2.0, 0.0, 2.0))
    amp0 = float(np.exp(intercept))
    return fit_least_squares(
        theta_rate_power_model,
        data,
        guess=[amp0, alpha0, offset0],
        bounds=([0.0, 0.0, 0.0], [np.inf, 2.0, np.inf]),
        param_names=("amplitude", "alpha", "offset"),
    )
