"""The long-chain pipeline's N x N steps reuse their own buffers.

The chain kernels, the parity assembly, the sign rule, the beam coupling and
the thermal contrast each work in a buffer they already own, and the lowest-
mode theta rate builds only the coupling column it uses.  These tests pin
every output to the one-line formulas they replaced, bit for bit and in the
same memory layout, check that no caller's input is written to, and hold each
stage's peak transient memory (numpy reports its data to ``tracemalloc``)
within a budget.  The Monte-Carlo oracles likewise hold one copy of each
per-sample array.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ionchain import (
    EquilibriumChain,
    EquispacedLogPotential,
    GaussianBeam,
    HarmonicPotential,
    NoiseModel,
    QuadQuarticPotential,
    ThermalState,
    YB171,
    decay_parameters,
    find_equilibrium,
    gate_fidelity_bound,
    gate_fidelity_monte_carlo,
    normal_modes,
    rabi_trace,
    theta_rate,
)
from ionchain import chain as chain_module
from ionchain import decoherence, heating
from ionchain.errors import LowOccupancyWarning

EVEN_POTENTIALS = {
    "harmonic": lambda n: HarmonicPotential(2 * np.pi * 1e6),
    "quad_quartic": lambda n: QuadQuarticPotential(a2=1e-14, a4=2e-3),
    "equispaced": lambda n: EquispacedLogPotential(n, 4.4e-6),
}
SIZES = [1, 2, 25, 39, 40, 41, 120, 300, 301]
NOISE = NoiseModel(alpha=1.0, nbar_rate_ref=100.0, omega_ref=2 * np.pi * 3e6, offset=0.5)
OMEGA0 = 2 * np.pi * 5e4


# ----------------------------------------------------------------------
# the formulas the in-place kernels replaced
# ----------------------------------------------------------------------

def _old_chain_terms(u, grad_curv, n_rows):
    g_trap, c_trap = grad_curv(u[len(u) - n_rows :])
    r, a = chain_module._pair_separations(u, n_rows)
    return g_trap - (1.0 / (r * a)).sum(axis=1), a, c_trap


def _old_hessian_from(a, c_trap):
    H = -2.0 / a**3
    n_rows, n = H.shape
    H.reshape(-1)[n - n_rows :: n + 1] = c_trap - H.sum(axis=1)
    return H


def _old_parity_eigh(chain):
    n_ions = len(chain.positions)
    half = n_ions // 2
    odd_n = n_ions % 2
    rows = chain_module._hessian_rows(chain, n_ions - half)
    H = rows[odd_n:]
    A, BJ = H[:, n_ions - half :], H[:, half - 1 :: -1]
    even = np.empty((half + odd_n, half + odd_n))
    even[odd_n:, odd_n:] = A + BJ
    if odd_n:
        even[0, 0] = rows[0, half]
        even[0, 1:] = even[1:, 0] = math.sqrt(2.0) * H[:, half]
    even_values, even_vectors = np.linalg.eigh(even)
    odd_values, odd_vectors = np.linalg.eigh(A - BJ)
    vectors = np.zeros((n_ions, n_ions))
    positive = math.sqrt(0.5) * even_vectors[odd_n:]
    vectors[n_ions - half :, : half + odd_n] = positive
    vectors[:half, : half + odd_n] = positive[::-1]
    if odd_n:
        vectors[half, : half + 1] = even_vectors[0]
    positive = math.sqrt(0.5) * odd_vectors
    vectors[n_ions - half :, half + odd_n :] = positive
    vectors[:half, half + odd_n :] = -positive[::-1]
    eigenvalues = np.concatenate([even_values, odd_values])
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], vectors[:, order]


def _old_fix_signs(vectors):
    eps = chain_module._SIGN_TIE_EPS
    sums = vectors.T.copy().sum(axis=1)
    first = np.argmax(np.abs(vectors) > eps, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    tie = (np.abs(sums) <= eps) & (lead < -eps)
    return np.where((sums < -eps) | tie, -vectors, vectors)


def _old_coupling(modes, beams, x):
    """The beam coupling's last line, for a Gaussian beam on every ion."""
    centers = np.array([beams[i].center for i in range(len(x))])
    waists = np.array([beams[i].waist for i in range(len(x))])
    neg_curvature = -decoherence._gaussian_curvature_ratio(x, centers, waists)
    spreads_sq = decoherence._spread_sq(modes.species.mass, modes.frequencies)
    return modes.participation**2 * spreads_sq * neg_curvature[:, None]


def _old_theta_rate(modes, beams, x):
    coupling = _old_coupling(modes, beams, x)
    rates = (coupling * heating._mode_heating_rates(NOISE, modes)).sum(axis=1)
    rates[list(beams)] += NOISE.offset
    return rates


def _old_kernels(patch):
    patch.setattr(chain_module, "_chain_terms", _old_chain_terms)
    patch.setattr(chain_module, "_hessian_from", _old_hessian_from)
    patch.setattr(chain_module, "_parity_eigh", _old_parity_eigh)
    patch.setattr(chain_module, "_fix_signs", _old_fix_signs)


def _beams(x):
    """A Gaussian beam on every ion, its centre a little off the ion."""
    return {
        i: GaussianBeam(OMEGA0, float(xi) + 1e-8 * (i % 3 - 1), 0.9e-6)
        for i, xi in enumerate(x)
    }


def _outputs(chain, modes):
    x = chain.positions
    beams = _beams(x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowOccupancyWarning)
        thermal = ThermalState.uniform(modes.n_modes, 3.0)
    return {
        "positions": x,
        "residual": np.array(chain.residual),
        "frequencies": modes.frequencies,
        "participation": modes.participation,
        "uniform_drive_weights": modes.uniform_drive_weights(),
        "theta_rate": theta_rate(NOISE, modes, beams, x, all_modes=True),
        "decay_parameters": decay_parameters(modes, thermal, beams, x),
    }, beams, thermal


def _old_outputs(chain, modes):
    outputs, beams, thermal = _outputs(chain, modes)
    outputs["theta_rate"] = _old_theta_rate(modes, beams, chain.positions)
    outputs["decay_parameters"] = _old_coupling(modes, beams, chain.positions) * thermal.nbar
    return outputs


def _assert_same(new, old):
    for field in old:
        a, b = new[field], old[field]
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.flags.c_contiguous == b.flags.c_contiguous, field
        assert a.flags.f_contiguous == b.flags.f_contiguous, field
        assert np.array_equal(a, b), field


# ----------------------------------------------------------------------
# bit for bit, layout included
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in sorted(EVEN_POTENTIALS) for n in SIZES if n > 1 or kind != "equispaced"],
)
def test_pipeline_matches_the_old_formulas(kind, n):
    potential = EVEN_POTENTIALS[kind](n)
    chain = find_equilibrium(YB171, potential, n)
    new = _outputs(chain, normal_modes(chain))[0]
    with pytest.MonkeyPatch.context() as patch:
        _old_kernels(patch)
        old_chain = find_equilibrium(YB171, potential, n)
        old = _old_outputs(old_chain, normal_modes(old_chain))
    assert chain.criterion == old_chain.criterion
    _assert_same(new, old)


def test_chain_off_the_mirror_takes_the_full_path_bit_for_bit():
    solved = find_equilibrium(YB171, HarmonicPotential(2 * np.pi * 1e6), 60)
    x = solved.positions.copy()
    x[0] *= 1.0 + 1e-7  # no longer antisymmetric
    chain = EquilibriumChain(YB171, solved.potential, x)
    full_path = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_parity_eigh", lambda c: full_path.append(c))
        new = _outputs(chain, normal_modes(chain))[0]
        assert full_path == []
        _old_kernels(patch)
        old = _old_outputs(chain, normal_modes(chain))
    _assert_same(new, old)


# ----------------------------------------------------------------------
# no input is written to
# ----------------------------------------------------------------------

def test_pipeline_leaves_its_inputs_unchanged():
    chain = find_equilibrium(YB171, EquispacedLogPotential(41, 4.4e-6))
    positions = chain.positions.copy()
    modes = normal_modes(chain)
    frequencies, participation = modes.frequencies.copy(), modes.participation.copy()
    theta = _outputs(chain, modes)[0]["decay_parameters"]  # runs theta_rate too
    assert np.array_equal(chain.positions, positions)
    assert np.array_equal(modes.frequencies, frequencies)
    assert np.array_equal(modes.participation, participation)

    times = np.linspace(0.0, 300e-6, 51)
    kept_theta, kept_times = theta.copy(), times.copy()
    rabi_trace(OMEGA0, theta[20], times)  # a row view into theta, as callers pass one
    gate_fidelity_bound(theta[20], theta[21], 2)
    assert np.array_equal(theta, kept_theta) and np.array_equal(times, kept_times)


def test_thermal_contrast_leaves_its_argument_unchanged():
    a = np.random.default_rng(3).uniform(-2.0, 2.0, (40, 17))
    kept = a.copy()
    decoherence._thermal_contrast(a)
    decoherence._thermal_contrast(a.ravel())
    assert np.array_equal(a, kept)


# ----------------------------------------------------------------------
# peak transient memory
# ----------------------------------------------------------------------

N_MEMORY = 300
MATRIX_BYTES = N_MEMORY * N_MEMORY * 8


def _peak_bytes(f, *args, **kwargs):
    """Peak traced memory above the starting level during one call of f,
    after one untraced call warms every cache and lazy import."""
    f(*args, **kwargs)
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_long_chain_stages_stay_within_their_memory_budgets():
    """Peaks at equispaced N = 300, in units of one N x N float64 matrix
    (the Rabi trace in units of one modes x times matrix).  The budgets are
    the measured peaks plus about 10 %; building each N x N step in fresh
    temporaries, as before, needs about 2.8, 3.5, 2.1, 2.1 and 3.0."""
    potential = EquispacedLogPotential(N_MEMORY, 4.4e-6)
    chain = find_equilibrium(YB171, potential)
    modes = normal_modes(chain)
    outputs, beams, thermal = _outputs(chain, modes)
    x = chain.positions
    times = np.linspace(0.0, 300e-6, 101)
    peaks = {
        "find_equilibrium": _peak_bytes(find_equilibrium, YB171, potential) / MATRIX_BYTES,
        "normal_modes": _peak_bytes(normal_modes, chain) / MATRIX_BYTES,
        "theta_rate": _peak_bytes(theta_rate, NOISE, modes, beams, x, all_modes=True) / MATRIX_BYTES,
        "decay_parameters": _peak_bytes(decay_parameters, modes, thermal, beams, x) / MATRIX_BYTES,
        "rabi_trace": _peak_bytes(rabi_trace, OMEGA0, outputs["decay_parameters"][150], times)
        / (N_MEMORY * len(times) * 8),
    }
    budgets = {
        "find_equilibrium": 1.95,
        "normal_modes": 1.7,
        "theta_rate": 1.2,
        "decay_parameters": 1.2,
        "rabi_trace": 2.2,
    }
    over = {stage: round(peaks[stage], 3) for stage in budgets if peaks[stage] > budgets[stage]}
    assert not over, f"peaks over budget {budgets}: {over}"


# ----------------------------------------------------------------------
# the lowest-mode theta rate builds one coupling column
# ----------------------------------------------------------------------

def _old_lowest_mode_theta_rate(modes, beams, x):
    """theta_rate's default path as it was: the whole N x N coupling, then
    its first column."""
    coupling = decoherence._beam_coupling(modes, beams, x)[:, :1]
    coupling *= heating._mode_heating_rates(NOISE, modes)[:1]
    rates = coupling.sum(axis=1)
    rates[list(beams)] += NOISE.offset
    return rates


@pytest.mark.parametrize("n", [5, 25, 60, 301])
def test_lowest_mode_theta_rate_matches_the_whole_coupling_bit_for_bit(n):
    chain = find_equilibrium(YB171, EquispacedLogPotential(n, 4.4e-6))
    parity = []
    with pytest.MonkeyPatch.context() as patch:
        eigh = chain_module._parity_eigh
        patch.setattr(chain_module, "_parity_eigh", lambda c: parity.append(c) or eigh(c))
        modes = normal_modes(chain)
    assert bool(parity) == (n >= chain_module._PARITY_MIN_IONS)
    x = chain.positions
    for beams in (_beams(x), {n // 2: _beams(x)[n // 2]}):
        new = theta_rate(NOISE, modes, beams, x)
        old = _old_lowest_mode_theta_rate(modes, beams, x)
        assert new.dtype == old.dtype and new.shape == old.shape == (n,)
        assert np.array_equal(new, old)


def test_lowest_mode_theta_rate_stays_within_its_memory_budget():
    """Peak at equispaced N = 300 in units of one N x N float64 matrix:
    measured 0.038; building the whole coupling, as before, took 1.11."""
    chain = find_equilibrium(YB171, EquispacedLogPotential(N_MEMORY, 4.4e-6))
    modes = normal_modes(chain)
    beams = _beams(chain.positions)
    peak = _peak_bytes(theta_rate, NOISE, modes, beams, chain.positions) / MATRIX_BYTES
    assert peak <= 0.05


# ----------------------------------------------------------------------
# the Monte-Carlo oracles hold one copy of each per-sample array
# ----------------------------------------------------------------------

N_SAMPLES = 100_000
SLACK_BYTES = 64 * 1024


@pytest.mark.parametrize("n", [1, 7, N_SAMPLES])
@pytest.mark.parametrize("n_modes", [1, 3])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_mode_energy_rows_are_the_exponential_streams(seed, n_modes, n):
    samples = decoherence._mode_energy_samples(n_modes, n, seed)
    assert samples.shape == (n_modes, n)
    for m, row in enumerate(samples):
        assert np.array_equal(row, np.random.default_rng([seed, m]).exponential(1.0, n))


@pytest.mark.parametrize(
    "oracle, thetas, rows",
    [
        ("rabi", [0.05], 3),
        ("rabi", [0.05, 0.01, -0.02], 4),
        ("gate", [0.05], 3),
    ],
)
def test_monte_carlo_oracles_stay_within_their_working_sets(monkeypatch, oracle, thetas, rows):
    """Peaks in rows of ``N_SAMPLES`` doubles, with two workers.  Rabi: the
    samples (one row per mode) and the row they are reduced to, then that
    row and one scratch row per worker.  Gate: the samples and the two
    phasor rows.  Forming each row in fresh temporaries, as before, took 4,
    6 and 4."""
    monkeypatch.setattr(decoherence, "_usable_cpus", lambda: 2)
    if oracle == "rabi":
        times = np.linspace(0.0, 200e-6, 9)
        peak = _peak_bytes(decoherence.rabi_trace_monte_carlo, OMEGA0, thetas, times, N_SAMPLES)
    else:
        peak = _peak_bytes(gate_fidelity_monte_carlo, thetas, [0.04], 2, N_SAMPLES)
    assert peak <= rows * N_SAMPLES * 8 + SLACK_BYTES
