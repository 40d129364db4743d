"""Mapping an addressing beam and the spatial profile of the decay parameter.

Scanning a tightly confined ion across its beam maps the Gaussian amplitude
profile; fitting recovers the 1/e^2 intensity radius.  With the confinement
relaxed, the decay parameter theta(x) follows the beam curvature: largest on
axis and zero at the inflection points x = +- w/sqrt(2), in sharp contrast
to pointing-noise models that predict maximal dephasing on the beam slopes.
The theta map comes from ``decay_parameters`` for one ion in a harmonic
trap, placed at each scan position in a beam centered on the trap axis.

Run:  python demos/02_beam_profile_and_theta_map.py
"""

import pathlib

import numpy as np

from ionchain import (
    GaussianBeam,
    ThermalState,
    YB171,
    decay_parameters,
    fit_beam_profile,
    single_ion_modes,
)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(42)

WAIST_UM = 0.87
PULSE_ANGLE = 1.1  # peak Rabi angle of the mapping pulse, rad

# --- synthetic beam-mapping scan with shot noise --------------------------
x_um = np.linspace(-2.2, 2.2, 45)
beam = GaussianBeam(peak_rabi=PULSE_ANGLE, center=0.05e-6, waist=WAIST_UM * 1e-6)
angle = beam.rabi_at(x_um * 1e-6)
shots = 250
signal = rng.binomial(shots, np.sin(angle / 2) ** 2) / shots
angle_est = 2 * np.arcsin(np.sqrt(np.clip(signal, 0, 1)))

fit = fit_beam_profile(x_um, angle_est)
print(
    "beam fit: waist = {:.3f} +- {:.3f} um (true {:.3f}), center = {:+.3f} um".format(
        fit["waist"], fit.uncertainty("waist"), WAIST_UM, fit["center"]
    )
)

# --- decay-parameter profile for the weakly confined ion -------------------
modes = single_ion_modes(YB171, 2 * np.pi * 140e3)
thermal = ThermalState.uniform(1, 280.0)
axis_beam = GaussianBeam(peak_rabi=1.0, center=0.0, waist=WAIST_UM * 1e-6)
theta = np.array(
    [decay_parameters(modes, thermal, {0: axis_beam}, [x])[0, 0] for x in x_um * 1e-6]
)
x_zero = WAIST_UM / np.sqrt(2)
print(f"theta on axis = {theta[np.argmin(np.abs(x_um))]:.4f}, zeros at +-{x_zero:.3f} um")

np.savetxt(
    OUT / "beam_and_theta.csv",
    np.column_stack([x_um, angle_est, theta]),
    delimiter=",",
    header="x_um,rabi_angle_rad,theta",
    comments="",
)
print(f"wrote {OUT/'beam_and_theta.csv'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, axes = plt.subplots(2, 1, figsize=(6.5, 6), sharex=True)
axes[0].plot(x_um, angle_est, "ko", ms=3, label="mapping scan")
xf = np.linspace(x_um[0], x_um[-1], 400)
fitted = GaussianBeam(peak_rabi=fit["amplitude"], center=fit["center"], waist=fit["waist"])
axes[0].plot(xf, fitted.rabi_at(xf), "b-", lw=1, label=f"Gaussian fit, w = {fit['waist']:.2f} um")
axes[0].set_ylabel("Rabi angle (rad)")
axes[0].legend()
axes[1].plot(x_um, np.abs(theta), "k-", lw=1)
for s in (-1, 1):
    axes[1].axvline(s * x_zero, color="gray", ls=":", lw=1)
axes[1].set_xlabel("ion position (um)")
axes[1].set_ylabel("|theta|")
fig.tight_layout()
fig.savefig(OUT / "beam_and_theta.png", dpi=150)
print(f"wrote {OUT/'beam_and_theta.png'}")
