"""Every demo runs to completion and writes its CSV.

Each demo is copied into a temporary directory and run there as a script
with ``src`` on PYTHONPATH, so the ``out/`` it writes next to itself lands in
that directory.  Without matplotlib a demo skips its plot.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

CSV_HEADERS = {
    "01_single_ion_rabi_decay.py": (
        "rabi_decay.csv",
        "t_us,p1_140khz,contrast_140khz,p1_710khz,contrast_710khz,p1_mc_140khz",
    ),
    "02_beam_profile_and_theta_map.py": ("beam_and_theta.csv", "x_um,rabi_angle_rad,theta"),
    "03_chain_theta_rates.py": (
        "chain_theta_rates.csv",
        "n_ions,ion_index_centered,rate_alpha_0p8_per_s,rate_alpha_1_per_s",
    ),
    "04_gate_fidelity_vs_wait.py": ("gate_fidelity.csv", "n_gates,tw_ms,F_bound,F_spam,F_err"),
    "05_chain_size_scaling.py": ("chain_size_scaling.csv", "n_ions,omega0_khz,rel_gate_error"),
    "06_frequency_sweep_fit_and_cooling.py": ("frequency_sweep.csv", "freq_khz,rate_per_s,sigma"),
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(CSV_HEADERS)


@pytest.mark.parametrize("name", sorted(CSV_HEADERS))
def test_demo_runs(tmp_path, name):
    shutil.copy(ROOT / "demos" / name, tmp_path)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, name],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    csv_name, header = CSV_HEADERS[name]
    assert (tmp_path / "out" / csv_name).read_text().splitlines()[0] == header
