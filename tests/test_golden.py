"""Byte-for-byte golden outputs of every shipped config and fit recipe.

Each case runs one CLI command with ``--out`` into a temporary directory, in
process through ``main`` and in a fresh ``python -m ionchain.cli`` process,
and compares every file it writes (including the ``.participation.csv`` and
``.residuals.csv`` siblings) with the file of the same name under
``tests/golden/``.  The fit inputs are the small fixed CSVs in
``tests/golden/data/``.  A golden is regenerated by running the same command
with ``--out tests/golden/<name>``; do that only for an intended change of
output, and record it in CHANGES.md.
"""

from pathlib import Path

import pytest

from helpers import run_module

from ionchain import config
from ionchain.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ROOT / "configs"
DATA = GOLDEN / "data"

CASES = {
    "modes.csv": ["modes", "--config", CONFIGS / "modes.yaml"],
    "rabi.csv": ["rabi", "--config", CONFIGS / "rabi.yaml"],
    "rabi_mc.csv": ["rabi", "--config", CONFIGS / "rabi.yaml", "--mc", "--seed", "7"],
    "rabi.json": ["rabi", "--config", CONFIGS / "rabi.yaml", "--format", "json"],
    "theta_scan.csv": ["theta-scan", "--config", CONFIGS / "theta_scan.yaml"],
    "theta_scan.json": ["theta-scan", "--config", CONFIGS / "theta_scan.yaml", "--format", "json"],
    "gate_fidelity.csv": ["gate-fidelity", "--config", CONFIGS / "gate_fidelity.yaml"],
    "gate_fidelity_rates.csv": ["gate-fidelity", "--config", DATA / "gate_rates.yaml"],
    "scaling.csv": ["scaling", "--config", CONFIGS / "scaling.yaml"],
    "cooling.json": ["cooling", "--config", CONFIGS / "cooling.yaml"],
    "fit_beam.json": ["fit", "beam", DATA / "beam.csv"],
    "fit_rabi.json": ["fit", "rabi", DATA / "rabi.csv"],
    "fit_theta_growth.json": ["fit", "theta-growth", DATA / "theta_growth.csv"],
    "fit_power_law.json": ["fit", "power-law", DATA / "power_law.csv"],
}

SIBLINGS = {
    "modes.csv": ["modes.participation.csv"],
    "fit_beam.json": ["fit_beam.residuals.csv"],
    "fit_rabi.json": ["fit_rabi.residuals.csv"],
    "fit_theta_growth.json": ["fit_theta_growth.residuals.csv"],
    "fit_power_law.json": ["fit_power_law.residuals.csv"],
}


def golden_argv(name, out_dir):
    return [str(a) for a in CASES[name]] + ["--out", str(out_dir / name)]


def assert_matches_golden(out_dir, name):
    expected = [name] + SIBLINGS.get(name, [])
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(expected)
    for file_name in expected:
        produced = (out_dir / file_name).read_bytes()
        assert produced == (GOLDEN / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tmp_path, name):
    assert main(golden_argv(name, tmp_path)) == 0
    assert_matches_golden(tmp_path, name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_process_output_matches_golden(tmp_path, name):
    # a command process runs without cyclic collections and exits frozen;
    # any warning, a numpy overflow or invalid value among them, fails it
    result = run_module(golden_argv(name, tmp_path), PYTHONWARNINGS="error")
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert_matches_golden(tmp_path, name)


@pytest.mark.parametrize("name", [name for name in sorted(CASES) if name.startswith("fit_")])
def test_fit_input_with_byte_order_mark_matches_golden(tmp_path, name):
    # spreadsheet exports often start a UTF-8 CSV with a byte-order mark
    command, recipe, data = CASES[name]
    marked = tmp_path / data.name
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main([command, recipe, str(marked), "--out", str(out_dir / name)]) == 0
    assert_matches_golden(out_dir, name)


def _reversed(declaration):
    """``declaration`` with its keys, and the keys of each nested mapping, in
    reverse order."""
    return {
        key: _reversed(value) if isinstance(value, dict) else value
        for key, value in reversed(declaration.items())
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_does_not_depend_on_declaration_order(tmp_path, monkeypatch, name):
    monkeypatch.setattr(config, "_SECTIONS", _reversed(config._SECTIONS))
    test_output_matches_golden(tmp_path, name)


# JSON prints floats at full precision, and one closed-form p1 of rabi.json
# moves by 1 ulp with the dispatch
DISPATCH_DEPENDENT = pytest.mark.xfail(
    strict=False,
    reason="ROADMAP item 'Byte-identical output on any CPU, not only on AVX-512'",
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=DISPATCH_DEPENDENT)
        if name == "rabi.json"
        else name
        for name in sorted(CASES)
    ],
)
def test_golden_without_avx512_dispatch(tmp_path, name):
    # numpy runs its AVX-512 loops (the Monte-Carlo oracle's tan among them)
    # where the CPU has them; with that dispatch switched off they run on
    # the baseline loops and libm, and the printed output must not change
    argv = golden_argv(name, tmp_path)
    result = run_module(argv, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert result.returncode == 0, result.stderr  # stderr may carry numpy's dispatch warnings
    assert_matches_golden(tmp_path, name)
