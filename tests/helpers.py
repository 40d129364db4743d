"""Independent numerical oracles used by the tests.

Everything here is deliberately written from first principles (finite
differences, coordinate descent, direct energy sums) so that it shares no
code path with the implementations it checks.  ``trig_arguments`` is the
hypothesis strategy for angles that the trigonometric forms are tested on.
"""

import math

import numpy as np
from hypothesis import strategies as st

from ionchain.constants import K_COULOMB


def central_diff(f, x, h):
    """Centered first derivative of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def chain_energy(positions, potential, species):
    """Total energy: trap plus pairwise Coulomb, by direct summation."""
    positions = np.asarray(positions, dtype=float)
    v, _, _ = potential.evaluate(positions, species)
    energy = float(np.sum(v))
    kq = K_COULOMB * (species.charge_coulomb) ** 2
    n = len(positions)
    for i in range(n):
        for j in range(i + 1, n):
            energy += kq / abs(positions[i] - positions[j])
    return energy


def chain_gradient_direct(positions, potential, species):
    """Energy gradient dE/dx_i in N (SI), assembled from the closed-form trap
    gradient and direct Coulomb sums (not the package's solver internals)."""
    x = np.asarray(positions, dtype=float)
    kq = K_COULOMB * (species.charge_coulomb) ** 2
    _, g_trap, _ = potential.evaluate(x, species)
    g = np.array(g_trap, dtype=float, copy=True)
    n = len(x)
    for i in range(n):
        for j in range(n):
            if i != j:
                r = x[i] - x[j]
                g[i] -= kq * np.sign(r) / r**2
    return g


def chain_hessian_fd(positions, potential, species, h):
    """Centered finite differences of :func:`chain_gradient_direct`."""
    positions = np.asarray(positions, dtype=float)

    def gradient(x):
        return chain_gradient_direct(x, potential, species)

    n = len(positions)
    hess = np.zeros((n, n))
    for j in range(n):
        up = positions.copy()
        dn = positions.copy()
        up[j] += h
        dn[j] -= h
        hess[:, j] = (gradient(up) - gradient(dn)) / (2 * h)
    return 0.5 * (hess + hess.T)


def coordinate_descent_minimum(positions0, potential, species, sweeps=400):
    """Minimize the chain energy one coordinate at a time (golden section).

    Slow but independent of any gradient information; used to validate the
    Newton equilibrium for small chains.
    """
    gold = (np.sqrt(5.0) - 1.0) / 2.0
    x = np.asarray(positions0, dtype=float).copy()
    scale = max(np.ptp(x) / max(len(x) - 1, 1), 1e-9)
    step = 0.5 * scale
    for sweep in range(sweeps):
        moved = 0.0
        for i in range(len(x)):
            lo, hi = x[i] - step, x[i] + step

            def f(xi):
                trial = x.copy()
                trial[i] = xi
                return chain_energy(trial, potential, species)

            a, b = lo, hi
            c = b - gold * (b - a)
            d = a + gold * (b - a)
            fc, fd = f(c), f(d)
            for _ in range(60):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - gold * (b - a)
                    fc = f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + gold * (b - a)
                    fd = f(d)
            best = 0.5 * (a + b)
            moved = max(moved, abs(best - x[i]))
            x[i] = best
        step = max(2.5 * moved, step * 0.3)
        if moved < 1e-13 * scale:
            break
    return np.sort(x)


def theta_profile_gaussian(x, waist, spread, nbar):
    """Closed-form decay parameter of one ion vs its offset x from the center
    of a Gaussian beam: theta(x) = 2 (xi/w)^2 (1 - 2 x^2/w^2) nbar, maximal
    on axis, zero at the inflection points x = +- w/sqrt(2)."""
    x = np.asarray(x, dtype=float)
    r = spread / waist
    return 2.0 * r * r * (1.0 - 2.0 * x * x / (waist * waist)) * nbar


def _nudged(x, steps):
    """x moved by |steps| floats, up for steps > 0 and down for steps < 0."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(math.inf, steps))
    return float(x)


def trig_arguments(limit=1e6):
    """Hypothesis strategy for angles with |x| <= limit: any float in range
    (subnormals included), +-0, and the floats within three steps of a
    multiple k pi / 2, where sin, cos and tan reach 0, +-1 and +-inf."""
    k_max = int(limit / (math.pi / 2))
    quarter_turns = st.builds(
        lambda k, steps: _nudged(k * (math.pi / 2), steps),
        st.integers(-k_max, k_max),
        st.integers(-3, 3),
    )
    return st.one_of(st.floats(-limit, limit), st.sampled_from([0.0, -0.0]), quarter_turns)
