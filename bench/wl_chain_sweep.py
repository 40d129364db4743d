"""chain_sweep: the paper's pipeline at one chain size per op, in-process.

find_equilibrium -> normal_modes -> theta_rate(all_modes=True), every ion
under its own centred Gaussian beam -> decay_parameters -> rabi_trace for
the two central ions -> gate_fidelity_bound over the wait-time list.
"""

from __future__ import annotations

import math

import numpy as np

import inputs
import reference as ref
from harness import run_op_checked, timed

OMEGA_REF = 2.0 * math.pi * 3e6
ROUND_POOL = 40
"""Rounds generated at set-up; a longer run cycles through them again."""


class ChainSweep:
    name = "chain_sweep"
    min_rounds = 5
    """5 rounds x 20 ops = 100 ops, so p90 has at least 10 samples beyond."""
    tail_pct = 90.0

    def __init__(self, seed: int):
        import ionchain

        self.ic = ionchain
        self.rounds = [inputs.chain_round(seed, r) for r in range(ROUND_POOL)]

    def round_ops(self, r: int) -> list:
        return self.rounds[r % ROUND_POOL]

    def _potential(self, spec, n):
        ic = self.ic
        if spec[0] == "harmonic":
            return ic.HarmonicPotential(2.0 * math.pi * spec[1])
        if spec[0] == "quad_quartic":
            return ic.QuadQuarticPotential(spec[1], spec[2])
        return ic.EquispacedLogPotential(n, spec[1])

    def run_op(self, op, tr):
        return timed(self._pipeline, op, tr)

    def _pipeline(self, op, tr):
        ic = self.ic
        n, size = op.n_ions, op.size_class
        potential = self._potential(op.potential, n)
        chain = tr.call("chain.find_equilibrium", size, ic.find_equilibrium, ic.YB171, potential, n)
        modes = tr.call("chain.normal_modes", size, ic.normal_modes, chain)
        x = chain.positions
        beams = {i: ic.GaussianBeam(op.peak_rabi, float(x[i]), op.waist) for i in range(n)}
        noise = ic.NoiseModel(op.alpha, op.nbar_rate_ref, OMEGA_REF)
        rates = tr.call(
            "heating.theta_rate", size, ic.theta_rate, noise, modes, beams, x, all_modes=True
        )
        thermal = ic.ThermalState.uniform(modes.n_modes, op.nbar)
        theta = tr.call("decoherence.decay_parameters", None, ic.decay_parameters, modes, thermal, beams, x)
        i, j = central_ions(n)
        traces = [
            tr.call("decoherence.rabi_trace", None, ic.rabi_trace, op.peak_rabi, theta[k], inputs.RABI_TIMES_S)
            for k in (i, j)
        ]
        bounds = []
        for tw in inputs.WAIT_MS:
            ti, tj = heated(theta[i], rates[i], tw), heated(theta[j], rates[j], tw)
            bounds.append(tr.call("gates.gate_fidelity_bound", None, ic.gate_fidelity_bound, ti, tj, op.n_gates))
        return chain, modes, rates, theta, traces, bounds

    def check(self, op, output):
        chain, modes, rates, theta, traces, bounds = output
        freqs, b = modes.frequencies, modes.participation
        ref.check_force_balance(op.potential, chain.positions)
        ref.check_modes(op.potential, freqs, b)
        expected = ref.theta_rate_direct(freqs, b, op.waist, op.alpha, op.nbar_rate_ref, OMEGA_REF)
        ref.close(rates, expected, ref.KERNEL_TOL, "theta_rate")
        expected = ref.decay_parameters_direct(freqs, b, op.waist, op.nbar)
        ref.close(theta, expected, 0.0, "decay_parameters", ref.KERNEL_TOL * np.max(expected))
        i, j = central_ions(op.n_ions)
        for k, trace in zip((i, j), traces):
            p1, contrast, phase = ref.rabi_closed(op.peak_rabi, theta[k], inputs.RABI_TIMES_S)
            ref.close(trace.p1, p1, 0.0, "rabi_trace p1", ref.CLOSED_TOL)
            ref.close(trace.contrast, contrast, ref.CLOSED_TOL, "rabi_trace contrast")
            ref.close(trace.phase, phase, ref.CLOSED_TOL, "rabi_trace phase", ref.CLOSED_TOL)
        for tw, f in zip(inputs.WAIT_MS, bounds):
            ti, tj = heated(theta[i], rates[i], tw), heated(theta[j], rates[j], tw)
            ref.close(f, ref.gate_bound(ti, tj, op.n_gates), 0.0, "gate bound", ref.CLOSED_TOL)
        ref.require(np.all(np.diff(bounds) < 0), "gate bound does not fall with wait time")

    def traced_round_extra(self, tracer, stats):
        pass

    def layer_pass(self, tracer, stats):
        """One traced round, for the per-layer figures of another workload's run."""
        for op in self.round_ops(0):
            run_op_checked(self, op, tracer, stats, traced=True)


def central_ions(n: int):
    i = (n - 1) // 2
    return i, i + 1


def heated(theta_row, rate, wait_ms):
    """Decay parameters after a wait: the heating adds to the lowest mode."""
    out = np.array(theta_row, dtype=float)
    out[0] += rate * wait_ms * 1e-3
    return out
