"""How the lowest axial frequency and the gate error scale with chain size.

For chains held at fixed uniform spacing, the lowest axial mode frequency
falls off close to a power law in the ion number (exponent near -0.86), so
the in-phase mode becomes ever easier to heat.  Combined with the heating
power law this drives the gate error up as roughly N^(4+2*alpha): chains of
a hundred ions lose several orders of magnitude in error budget relative to
ten-ion chains unless the axial modes are re-cooled during the circuit.
Each N solves the equilibrium of the uniform-spacing potential designed for
that N and takes the lowest eigenfrequency of its normal modes.

Run:  python demos/05_chain_size_scaling.py
"""

import pathlib

import numpy as np

from ionchain import (
    YB171,
    EquispacedLogPotential,
    find_equilibrium,
    gate_error_scaling,
    normal_modes,
)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

SPACING = 4.4e-6
ALPHA = 1.0

n_list = np.unique(np.rint(np.geomspace(4, 250, 40)).astype(int))


def lowest_mode(n):
    chain = find_equilibrium(YB171, EquispacedLogPotential(n, SPACING))
    return normal_modes(chain).frequencies[0]


freq_khz = np.array([lowest_mode(n) for n in n_list.tolist()]) / 2 / np.pi / 1e3

fit_sel = n_list >= 10
slope, intercept = np.polyfit(np.log(n_list[fit_sel]), np.log(freq_khz[fit_sel]), 1)
print(f"power-law exponent of omega0(N) over N in [10, 250]: {slope:+.3f}")

rel_error = np.array([gate_error_scaling(int(n), int(n_list[0]), ALPHA) for n in n_list])
np.savetxt(
    OUT / "chain_size_scaling.csv",
    np.column_stack([n_list, freq_khz, rel_error]),
    delimiter=",",
    header="n_ions,omega0_khz,rel_gate_error",
    comments="",
)
print(f"wrote {OUT/'chain_size_scaling.csv'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, axes = plt.subplots(1, 2, figsize=(9, 3.8))
axes[0].loglog(n_list, freq_khz, "ko", ms=3)
nn = np.geomspace(n_list[0], n_list[-1], 200)
axes[0].loglog(nn, np.exp(intercept) * nn**slope, "b-", lw=1,
               label=f"N^{slope:+.3f}")
axes[0].set_xlabel("number of ions N")
axes[0].set_ylabel("lowest axial frequency (kHz)")
axes[0].legend()
axes[1].loglog(n_list, rel_error, "r-", lw=1.2)
axes[1].set_xlabel("number of ions N")
axes[1].set_ylabel(f"relative gate error, alpha={ALPHA}")
fig.tight_layout()
fig.savefig(OUT / "chain_size_scaling.png", dpi=150)
print(f"wrote {OUT/'chain_size_scaling.png'}")
