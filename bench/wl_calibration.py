"""calibration: one synthetic experiment calibrated end to end per op.

The four fit recipes run on the experiment's noisy data sets; the fitted
Rabi frequency and decay parameter then drive rabi_trace_monte_carlo, and
the fitted growth line, read at GATE_WAIT_MS, drives
gate_fidelity_monte_carlo, both at the CLI's 1e5 samples.
"""

from __future__ import annotations

import math

import numpy as np

import inputs
import reference as ref
from harness import run_op_checked, timed

MC_SAMPLES = 100_000
POOL = 64
"""Experiments generated at set-up; a longer run cycles through them again."""
T_S = inputs.RABI_T_US * 1e-6
MC_T_S = T_S[::2]
"""Every other point of the trace: 51 drive times for the Monte Carlo."""
OMEGA_KHZ = 2.0 * math.pi * 1e3


class Calibration:
    name = "calibration"
    min_rounds = 40
    """One op per round; 40 ops, so p75 has at least 10 samples beyond."""
    tail_pct = 75.0

    def __init__(self, seed: int):
        import ionchain

        self.ic = ionchain
        self.pool = [inputs.make_experiment(seed, k) for k in range(POOL)]
        self.omega = OMEGA_KHZ * inputs.POWER_F_KHZ

    def round_ops(self, r: int) -> list:
        return [self.pool[r % POOL]]

    def run_op(self, exp, tr):
        return timed(self._calibrate, exp, tr)

    def _calibrate(self, exp, tr):
        ic = self.ic
        beam = tr.call(
            "fitting.fit_beam_profile", None, ic.fit_beam_profile,
            inputs.BEAM_X_UM, exp.beam_signal, np.full(inputs.BEAM_X_UM.size, inputs.BEAM_NOISE),
        )
        tr.annotate(nfev=beam.n_iterations)
        rabi = tr.call(
            "fitting.fit_rabi_trace", None, ic.fit_rabi_trace,
            T_S, exp.rabi_p1, sigma=np.full(T_S.size, inputs.RABI_NOISE),
        )
        tr.annotate(nfev=rabi.n_iterations)
        growth = tr.call(
            "fitting.fit_theta_growth", None, ic.fit_theta_growth,
            inputs.GROWTH_TW_MS * 1e-3, exp.growth_theta,
            np.full(inputs.GROWTH_TW_MS.size, inputs.GROWTH_NOISE),
        )
        tr.annotate(nfev=growth.n_iterations)
        power = tr.call(
            "fitting.fit_theta_power_law", None, ic.fit_theta_power_law,
            self.omega, exp.power_rate, exp.power_sigma,
        )
        tr.annotate(nfev=power.n_iterations)
        omega, theta = rabi.params
        mc = tr.call(
            "decoherence.rabi_trace_monte_carlo", None, ic.rabi_trace_monte_carlo,
            omega, [theta], MC_T_S, MC_SAMPLES, seed=exp.mc_seed,
        )
        tr.annotate(work=1 * MC_SAMPLES * MC_T_S.size)  # modes x samples x times
        theta_gate = gate_theta(growth)
        gate = tr.call(
            "gates.gate_fidelity_monte_carlo", None, ic.gate_fidelity_monte_carlo,
            [theta_gate], [theta_gate], exp.n_gates, MC_SAMPLES, seed=exp.mc_seed,
        )
        return beam, rabi, growth, power, mc, gate

    def check(self, exp, output):
        beam, rabi, growth, power, mc, gate = output
        fits = (
            ("beam", beam, {"amplitude": exp.beam_amp, "center": exp.beam_center_um,
                            "waist": exp.beam_waist_um}, ()),
            ("rabi", rabi, {"rabi_frequency": OMEGA_KHZ * exp.rabi_khz,
                            "theta": exp.rabi_theta}, ()),
            ("growth", growth, {"intercept": exp.growth_theta0, "slope": exp.growth_rate}, ()),
            ("power", power, {"amplitude": exp.power_amp, "alpha": exp.power_alpha,
                              "offset": exp.power_offset}, ("amplitude",)),
        )
        for what, result, truths, log_scale in fits:
            ref.require(result.converged, f"{what} fit not converged")
            params = {n: (result[n], result.uncertainty(n)) for n in truths}
            ref.check_fit(params, truths, f"{what} fit", log_scale)
        omega, theta = rabi.params
        p1, _, _ = ref.rabi_closed(omega, [theta], MC_T_S)
        ref.check_mc(mc.p1, mc.stderr, p1, "rabi_trace_monte_carlo")
        theta_gate = gate_theta(growth)
        exact = ref.gate_bound([theta_gate], [theta_gate], exp.n_gates)
        ref.check_mc(gate.f_parity, gate.f_parity_stderr, exact, "gate_fidelity_monte_carlo")

    def traced_round_extra(self, tracer, stats):
        pass

    def layer_pass(self, tracer, stats):
        """Two traced ops, for the per-layer figures of another workload's run."""
        for r in range(2):
            run_op_checked(self, self.round_ops(r)[0], tracer, stats, traced=True)


def gate_theta(growth) -> float:
    intercept, slope = growth.params
    return float(intercept + slope * inputs.GATE_WAIT_MS * 1e-3)
