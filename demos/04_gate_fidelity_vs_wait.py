"""Two-qubit gate fidelity versus wait time after cooling.

With the in-phase mode heating at a constant rate, the decay parameters of
the two gated ions grow linearly in the wait time, and the achievable
fidelity of one or three chained fully entangling gates falls accordingly.
Curves are SPAM-adjusted and carry a first-order uncertainty band from the
rate uncertainties.  The product-form bound is validated against the seeded
Monte-Carlo thermal-ensemble estimate.

Run:  python demos/04_gate_fidelity_vs_wait.py
"""

import pathlib

import numpy as np

from ionchain import gate_fidelity_monte_carlo, gate_fidelity_vs_wait

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# linear growth fitted from wait-time scans of the two gated ions
RATE_I, RATE_J = 11.0, 13.0        # d(theta)/dt in 1/s
SIGMA_I, SIGMA_J = 1.5, 1.5        # 1-sigma rate uncertainties
SPAM_ERROR = 0.009

tw = np.linspace(0.0, 10e-3, 41)
rows = []
for n_gates in (1, 3):
    table = gate_fidelity_vs_wait(
        (0.0, 0.0), (RATE_I, RATE_J), (SIGMA_I, SIGMA_J), tw, n_gates, SPAM_ERROR
    )
    rows += [(n_gates, t * 1e3, *row) for t, row in zip(tw, table)]

# spot-check the bound against the thermal Monte Carlo at the largest theta
t, f3 = tw[-1], rows[-1][2]  # the last row: 3 gates at the longest wait
mc = gate_fidelity_monte_carlo([RATE_I * t], [RATE_J * t], 3, n_samples=200_000, seed=5)
print(
    f"bound {f3:.5f} vs Monte-Carlo parity estimate "
    f"{mc.f_parity:.5f} +- {mc.f_parity_stderr:.5f} "
    f"(plain overlap average {mc.f_overlap:.5f})"
)

np.savetxt(
    OUT / "gate_fidelity.csv",
    np.array(rows),
    delimiter=",",
    header="n_gates,tw_ms,F_bound,F_spam,F_err",
    comments="",
)
print(f"wrote {OUT/'gate_fidelity.csv'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

data = np.array(rows)
fig, ax = plt.subplots(figsize=(7, 4))
for n_gates, color in ((1, "tab:blue"), (3, "tab:orange")):
    sel = data[:, 0] == n_gates
    t_ms, f_spam, err = data[sel, 1], data[sel, 3], data[sel, 4]
    ax.plot(t_ms, f_spam, color=color, lw=1.2, label=f"{n_gates} gate(s)")
    ax.fill_between(t_ms, f_spam - err, f_spam + err, color=color, alpha=0.25)
ax.set_xlabel("wait time (ms)")
ax.set_ylabel("fidelity bound (SPAM adjusted)")
ax.legend()
fig.tight_layout()
fig.savefig(OUT / "gate_fidelity.png", dpi=150)
print(f"wrote {OUT/'gate_fidelity.png'}")
