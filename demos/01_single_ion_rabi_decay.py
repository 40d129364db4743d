"""Thermal decay of single-ion Rabi oscillations, weak vs stiff confinement.

A hot, weakly confined ion samples the curvature of its addressing beam, so
its Rabi oscillation loses contrast algebraically and accumulates a phase
lag.  Stiffening the axial confinement shrinks both the zero-point spread
and (at fixed occupancy scaling) the decay parameter, restoring long
coherent oscillations.  The closed-form trace is cross-checked against a
seeded Monte-Carlo average over thermal mode energies.

Run:  python demos/01_single_ion_rabi_decay.py
Writes CSV (and PNG, if matplotlib is available) into demos/out/.
"""

import pathlib

import numpy as np

from ionchain import (
    GaussianBeam,
    ThermalState,
    YB171,
    decay_parameters,
    rabi_trace,
    rabi_trace_monte_carlo,
    single_ion_modes,
    zero_point_spread,
)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

DRIVE = 2 * np.pi * 50e3          # carrier Rabi frequency, rad/s
WAIST = 870e-9                    # addressing-beam 1/e^2 intensity radius
TEMPERATURE_NBAR_AT_140K = 280.0  # occupancy at 140 kHz after Doppler cooling

times = np.linspace(0.0, 200e-6, 400)
beam = GaussianBeam(peak_rabi=DRIVE, center=0.0, waist=WAIST)

thetas, traces = {}, {}
for freq_khz in (140.0, 710.0):
    omega0 = 2 * np.pi * freq_khz * 1e3
    # Doppler-limited temperature is frequency independent, so nbar ~ 1/omega
    nbar = TEMPERATURE_NBAR_AT_140K * (140.0 / freq_khz)
    modes = single_ion_modes(YB171, omega0)
    theta = thetas[freq_khz] = decay_parameters(modes, ThermalState([nbar]), {0: beam}, [0.0])[0]
    traces[freq_khz] = rabi_trace(DRIVE, theta, times)
    print(
        f"axial {freq_khz:5.0f} kHz: nbar = {nbar:6.1f}, "
        f"zero-point spread = {zero_point_spread(YB171, omega0)*1e9:5.2f} nm, "
        f"theta = {theta[0]:.4f}"
    )

# Monte-Carlo cross-check of the weakly confined trace
mc = rabi_trace_monte_carlo(DRIVE, thetas[140.0], times, n_samples=200_000, seed=11)
print(f"max |closed form - Monte Carlo| = {np.max(np.abs(traces[140.0].p1 - mc.p1)):.2e}")

header = "t_us,p1_140khz,contrast_140khz,p1_710khz,contrast_710khz,p1_mc_140khz"
rows = np.column_stack(
    [
        times * 1e6,
        traces[140.0].p1,
        traces[140.0].contrast,
        traces[710.0].p1,
        traces[710.0].contrast,
        mc.p1,
    ]
)
np.savetxt(OUT / "rabi_decay.csv", rows, delimiter=",", header=header, comments="")
print(f"wrote {OUT/'rabi_decay.csv'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(7, 4))
ax.plot(times * 1e6, traces[140.0].p1, "k-", lw=1, label="140 kHz axial")
ax.plot(times * 1e6, traces[710.0].p1, "-", color="gray", lw=1, label="710 kHz axial")
ax.plot(times[::8] * 1e6, mc.p1[::8], "r.", ms=3, label="Monte Carlo (140 kHz)")
ax.set_xlabel("drive time (us)")
ax.set_ylabel("P(qubit in upper state)")
ax.legend()
fig.tight_layout()
fig.savefig(OUT / "rabi_decay.png", dpi=150)
print(f"wrote {OUT/'rabi_decay.png'}")
