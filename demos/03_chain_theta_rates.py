"""Decay-parameter growth across a uniformly spaced chain.

Uniform electric-field noise mostly heats the lowest ("in-phase") axial
mode, whose participation is largest for the middle ions.  The growth rate
of each ion's decay parameter is therefore middle-peaked, proportional to
b_i0^2 times the uniform-drive weight (sum_j b_j0)^2.  A band is drawn for
noise exponents between 0.8 and 1.0, anchored to a measured single-ion
heating rate of 88 quanta/s at 3 MHz.

Run:  python demos/03_chain_theta_rates.py
"""

import pathlib

import numpy as np

from ionchain import (
    EquispacedLogPotential,
    GaussianBeam,
    NoiseModel,
    YB171,
    addressed_theta_rates,
    find_equilibrium,
    normal_modes,
)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

SPACING = 4.4e-6
BEAM = GaussianBeam(peak_rabi=1.0, center=0.0, waist=870e-9)  # centred on each driven ion

results = {}
for n_ions, n_driven in ((15, 13), (25, 15)):
    chain = find_equilibrium(YB171, EquispacedLogPotential(n_ions, SPACING))
    modes = normal_modes(chain)
    first = (n_ions - n_driven) // 2
    driven = range(first, first + n_driven)
    band = {}  # alpha -> rate of each driven ion, in order
    for alpha in (0.8, 1.0):
        noise = NoiseModel(alpha=alpha, nbar_rate_ref=88.0, omega_ref=2 * np.pi * 3e6)
        band[alpha] = addressed_theta_rates(noise, modes, chain.positions, BEAM, driven)
    results[n_ions] = (driven, band)
    f0 = modes.frequencies[0] / 2 / np.pi / 1e3
    mid = n_ions // 2 - first
    print(
        f"N={n_ions}: lowest mode {f0:6.1f} kHz, middle-ion rate "
        f"{band[1.0][mid]:5.2f} (alpha=1) .. {band[0.8][mid]:5.2f} (alpha=0.8) /s"
    )

rows = []
for n_ions, (driven, band) in results.items():
    for k, i in enumerate(driven):
        rows.append((n_ions, i - n_ions // 2, band[0.8][k], band[1.0][k]))
np.savetxt(
    OUT / "chain_theta_rates.csv",
    np.array(rows),
    delimiter=",",
    header="n_ions,ion_index_centered,rate_alpha_0p8_per_s,rate_alpha_1_per_s",
    comments="",
)
print(f"wrote {OUT/'chain_theta_rates.csv'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(7, 4))
for color, (n_ions, (driven, band)) in zip(("k", "r"), results.items()):
    idx = np.array(list(driven)) - n_ions // 2
    lo = np.minimum(band[0.8], band[1.0])
    hi = np.maximum(band[0.8], band[1.0])
    ax.fill_between(idx, lo, hi, color=color, alpha=0.3, label=f"N = {n_ions}")
ax.set_xlabel("ion index from chain center")
ax.set_ylabel("d(theta)/dt (1/s)")
ax.legend()
fig.tight_layout()
fig.savefig(OUT / "chain_theta_rates.png", dpi=150)
print(f"wrote {OUT/'chain_theta_rates.png'}")
