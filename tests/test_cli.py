import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import theta_profile_gaussian

import ionchain.cli
from ionchain import YB171
from ionchain.cli import main
from ionchain.config import read_section
from ionchain.decoherence import zero_point_spread
from ionchain.errors import LowOccupancyWarning, SolverError
from ionchain.fitting import gaussian_beam_model

YB = "species:\n  label: 171Yb+\n"
ROOT = Path(__file__).resolve().parent.parent


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(args):
    return main([str(a) for a in args])


def run_fresh(code):
    """Run ``code`` in a new interpreter (pytest itself has scipy loaded)."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


@pytest.fixture
def harmonic2(tmp_path):
    return write(
        tmp_path / "h2.yaml",
        YB + "potential:\n  kind: harmonic\n  axial_freq_khz: 500.0\n  n_ions: 2\n",
    )


class TestModes:
    def test_two_ion_frequency_ratio(self, tmp_path, harmonic2):
        out = tmp_path / "modes.csv"
        assert run(["modes", "--config", harmonic2, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["mode_index", "freq_khz", "participation_sum_sq"]
        assert rows.shape[0] == 2
        assert rows[1, 1] / rows[0, 1] == pytest.approx(np.sqrt(3.0), rel=1e-9)
        part = (tmp_path / "modes.participation.csv").read_text().splitlines()
        assert part[0] == "ion_index,mode_0,mode_1"
        assert len(part) == 3

    def test_equispaced_lowest_mode(self, tmp_path):
        cfg = write(
            tmp_path / "e15.yaml",
            YB + "potential:\n  kind: equispaced_log\n  n_ions: 15\n  spacing_um: 4.4\n",
        )
        out = tmp_path / "m.csv"
        assert run(["modes", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert abs(rows[0, 1] - 193.0) / 193.0 < 0.20

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        cfg = write(tmp_path / "bad.yaml", "species: [not, a, mapping\n")
        out = tmp_path / "m.csv"
        assert run(["modes", "--config", cfg, "--out", out]) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(
            tmp_path / "extra.yaml",
            YB + "potential:\n  kind: harmonic\n  axial_freq_khz: 500.0\n  typo_key: 1\n",
        )
        assert run(["modes", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["modes", "--config", tmp_path / "nope.yaml"]) == 2

    def test_json_format(self, tmp_path, harmonic2):
        out = tmp_path / "modes.json"
        assert run(["modes", "--config", harmonic2, "--out", out, "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["command"] == "modes"
        assert payload["columns"] == ["mode_index", "freq_khz", "participation_sum_sq"]
        assert len(payload["participation"]) == 2


RABI_EXPLICIT = (
    "rabi:\n  drive_khz: 50.0\n  t_max_us: 100.0\n  n_points: 101\n"
    "  n_samples: 20000\n  theta: [{theta}]\n"
)


class TestRabi:
    def test_zero_theta_is_undamped(self, tmp_path):
        cfg = write(tmp_path / "r0.yaml", RABI_EXPLICIT.format(theta=0.0))
        out = tmp_path / "r.csv"
        assert run(["rabi", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["t_us", "p1", "contrast", "phase_rad"]
        t = rows[:, 0] * 1e-6
        expected = np.sin(0.5 * 2 * np.pi * 50e3 * t) ** 2
        assert np.allclose(rows[:, 1], expected, atol=1e-10)
        assert np.all(rows[:, 2] == 1.0)

    def test_weak_confinement_decays_faster(self, tmp_path):
        def contrast_at_fixed_time(freq_khz):
            cfg = write(
                tmp_path / f"p{freq_khz}.yaml",
                YB
                + f"potential:\n  kind: harmonic\n  axial_freq_khz: {freq_khz}\n  n_ions: 1\n"
                + "beam:\n  kind: gaussian\n  waist_nm: 870.0\n"
                + "thermal:\n  nbar: 280.0\n"
                + "rabi:\n  drive_khz: 50.0\n  t_max_us: 80.0\n  n_points: 81\n",
            )
            out = tmp_path / f"t{freq_khz}.csv"
            assert run(["rabi", "--config", cfg, "--out", out]) == 0
            _, rows = read_csv(out)
            return rows[-1, 2]

        assert contrast_at_fixed_time(140.0) < contrast_at_fixed_time(710.0)

    def test_mc_deterministic_for_seed(self, tmp_path):
        cfg = write(tmp_path / "rmc.yaml", RABI_EXPLICIT.format(theta=0.08))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["rabi", "--config", cfg, "--mc", "--seed", 7, "--out", out1]) == 0
        assert run(["rabi", "--config", cfg, "--mc", "--seed", 7, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header[-1] == "mc_stderr"
        # a different seed changes the samples
        out3 = tmp_path / "c.csv"
        assert run(["rabi", "--config", cfg, "--mc", "--seed", 8, "--out", out3]) == 0
        assert out1.read_bytes() != out3.read_bytes()

    def test_mc_matches_closed_form(self, tmp_path):
        cfg = write(tmp_path / "r.yaml", RABI_EXPLICIT.format(theta=0.08))
        out_c, out_m = tmp_path / "c.csv", tmp_path / "m.csv"
        assert run(["rabi", "--config", cfg, "--out", out_c]) == 0
        assert run(["rabi", "--config", cfg, "--mc", "--seed", 1, "--out", out_m]) == 0
        _, closed = read_csv(out_c)
        _, mc = read_csv(out_m)
        assert np.max(np.abs(closed[:, 1] - mc[:, 1])) < 0.02

    def test_tabulated_beam_pipeline(self, tmp_path):
        # sampled Gaussian profile supplied as a measured-beam CSV gives the
        # same derived decay parameter as the analytic gaussian beam
        x_um = np.linspace(-2.2, 2.2, 441)
        rabi_khz = 50.0 * np.exp(-(x_um / 0.87) ** 2)
        beam_csv = tmp_path / "beam_profile.csv"
        lines = ["x_um,rabi_khz"] + [f"{a},{b}" for a, b in zip(x_um, rabi_khz)]
        beam_csv.write_text("\n".join(lines) + "\n")
        base = (
            YB
            + "potential:\n  kind: harmonic\n  axial_freq_khz: 140.0\n  n_ions: 1\n"
            + "thermal:\n  nbar: 280.0\n"
            + "rabi:\n  drive_khz: 50.0\n  t_max_us: 60.0\n  n_points: 61\n"
        )
        cfg_tab = write(
            tmp_path / "tab.yaml",
            base + f"beam:\n  kind: tabulated\n  csv: {beam_csv}\n",
        )
        cfg_gauss = write(
            tmp_path / "gauss.yaml",
            base + "beam:\n  kind: gaussian\n  waist_nm: 870.0\n",
        )
        out_t, out_g = tmp_path / "t.csv", tmp_path / "g.csv"
        assert run(["rabi", "--config", cfg_tab, "--out", out_t]) == 0
        assert run(["rabi", "--config", cfg_gauss, "--out", out_g]) == 0
        _, rows_t = read_csv(out_t)
        _, rows_g = read_csv(out_g)
        assert np.max(np.abs(rows_t[:, 1] - rows_g[:, 1])) < 1e-3


class TestThetaScan:
    CFG = (
        YB
        + "potential:\n  kind: harmonic\n  axial_freq_khz: 140.0\n  n_ions: 1\n"
        + "beam:\n  kind: gaussian\n  waist_nm: 870.0\n"
        + "thermal:\n  nbar: 280.0\n"
        + "scan:\n  x_min_um: -1.23\n  x_max_um: 1.23\n  n_points: 123\n"
    )

    def test_profile_shape(self, tmp_path):
        cfg = write(tmp_path / "scan.yaml", self.CFG)
        out = tmp_path / "scan.csv"
        assert run(["theta-scan", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["x_um", "theta"]
        x, theta = rows[:, 0], rows[:, 1]
        center = np.argmin(np.abs(x))
        assert theta[center] == np.max(theta)
        # sign change happens at |x| = waist/sqrt(2) = 0.615 um
        crossing = 0.87 / np.sqrt(2.0)
        inside = np.abs(x) < crossing - 0.02
        outside = np.abs(x) > crossing + 0.02
        assert np.all(theta[inside] > 0)
        assert np.all(theta[outside] < 0)

    def test_off_center_beam_matches_closed_form(self, tmp_path):
        cfg = write(
            tmp_path / "off.yaml",
            self.CFG.replace("waist_nm: 870.0\n", "waist_nm: 870.0\n  center_um: 0.37\n"),
        )
        out = tmp_path / "off.json"
        assert run(["theta-scan", "--config", cfg, "--out", out, "--format", "json"]) == 0
        rows = np.array(json.loads(out.read_text())["rows"])
        x = np.linspace(-1.23 * 1e-6, 1.23 * 1e-6, 123)
        assert np.array_equal(rows[:, 0], x * 1e6)
        xi = zero_point_spread(YB171, 2 * np.pi * 140e3)
        expected = theta_profile_gaussian(x - 0.37e-6, 870e-9, xi, 280.0)
        assert np.max(np.abs(rows[:, 1] - expected)) < 1e-12 * np.max(np.abs(expected))
        assert np.argmax(rows[:, 1]) == np.argmin(np.abs(x - 0.37e-6))

    def test_two_ions_rejected_like_rabi(self, tmp_path, capsys):
        body = (
            "potential:\n  kind: harmonic\n  axial_freq_khz: 140.0\n  n_ions: 2\n"
            + "beam:\n  kind: gaussian\n  waist_nm: 870.0\n"
            + "thermal:\n  nbar: 280.0\n"
        )
        scan = write(
            tmp_path / "scan2.yaml",
            YB + body + "scan:\n  x_min_um: -1.0\n  x_max_um: 1.0\n",
        )
        rabi = write(
            tmp_path / "rabi2.yaml",
            YB + body + "rabi:\n  drive_khz: 50.0\n  t_max_us: 10.0\n",
        )
        capsys.readouterr()
        assert run(["theta-scan", "--config", scan]) == 2
        scan_err = capsys.readouterr().err
        assert run(["rabi", "--config", rabi]) == 2
        rabi_err = capsys.readouterr().err
        assert scan_err.startswith("ionchain theta-scan: config error: ")
        assert rabi_err.startswith("ionchain rabi: config error: ")
        message = scan_err.split("config error: ", 1)[1]
        assert message == rabi_err.split("config error: ", 1)[1]
        assert "single ion in a harmonic potential" in message

    def test_low_occupancy_warns_like_rabi(self, tmp_path):
        cfg = write(tmp_path / "cold.yaml", self.CFG.replace("nbar: 280.0", "nbar: 5.0"))
        with pytest.warns(LowOccupancyWarning) as record:
            assert run(["theta-scan", "--config", cfg]) == 0
        assert record[0].filename == ionchain.cli.__file__

    def test_peak_rabi_key_is_unknown(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "peak.yaml",
            self.CFG.replace("waist_nm: 870.0\n", "waist_nm: 870.0\n  peak_rabi_khz: 50.0\n"),
        )
        assert run(["theta-scan", "--config", cfg]) == 2
        assert "unknown key(s) in beam: peak_rabi_khz" in capsys.readouterr().err


RABI_BEAM = (
    YB
    + "potential:\n  kind: harmonic\n  axial_freq_khz: 140.0\n  n_ions: 1\n"
    + "beam:\n  kind: gaussian\n  waist_nm: 870.0\n  center_um: 0.0\n"
    + "thermal:\n  nbar: 280.0\n"
    + "rabi:\n  drive_khz: 50.0\n  t_max_us: 80.0\n  n_points: 81\n"
)
EQUISPACED_MODES = YB + "potential:\n  kind: equispaced_log\n  n_ions: 5\n  spacing_um: 4.4\n"


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "command, text, old, new, key",
        [
            ("rabi", RABI_BEAM, "center_um: 0.0", "center_um: .nan", "beam.center_um"),
            ("rabi", RABI_BEAM, "waist_nm: 870.0", "waist_nm: .inf", "beam.waist_nm"),
            ("modes", EQUISPACED_MODES, "spacing_um: 4.4", "spacing_um: .inf", "potential.spacing_um"),
            ("rabi", RABI_EXPLICIT.format(theta=0.01), "[0.01]", "[0.01, .nan]", "rabi.theta[1]"),
            ("rabi", RABI_BEAM, "nbar: 280.0", "nbar: -.inf", "thermal.nbar[0]"),
            ("modes", EQUISPACED_MODES, "spacing_um: 4.4", "spacing_um: 1" + "0" * 400, "potential.spacing_um"),
            ("rabi", RABI_BEAM, "nbar: 280.0", "nbar: [-1" + "0" * 400 + "]", "thermal.nbar[0]"),
        ],
        ids=[
            "center_nan", "waist_inf", "spacing_inf", "theta_list_nan", "nbar_minus_inf",
            "spacing_huge_int", "nbar_list_huge_int",
        ],
    )
    def test_rejected_with_the_key(self, tmp_path, capsys, command, text, old, new, key):
        assert text.count(old) == 1
        cfg = write(tmp_path / "nonfinite.yaml", text.replace(old, new))
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ionchain {command}: config error: {key} must be finite, got ")
        assert not out.exists()


_SPECIES = {"label": "171Yb+"}
_ONE_ION = {
    "species": _SPECIES,
    "potential": {"kind": "harmonic", "axial_freq_khz": 140.0, "n_ions": 1},
    "beam": {"kind": "gaussian", "waist_nm": 870.0},
    "thermal": {"nbar": 280.0},
    "rabi": {"drive_khz": 50.0, "t_max_us": 10.0, "n_points": 11},
}
_DERIVED_GATE = {
    "species": _SPECIES,
    "potential": {"kind": "harmonic", "axial_freq_khz": 500.0, "n_ions": 2},
    "beam": {"kind": "gaussian", "waist_nm": 870.0},
    "noise": {"alpha": 1.0, "reference_rate_quanta_per_s": 88.0, "reference_freq_mhz": 3.0},
    "gate": {"ion_i": 0, "ion_j": 1, "tw_list_ms": [0.0, 1.0]},
}
_COOLING = {
    "coolant_fraction": 0.5, "spacing_um": 4.0, "wavelength_nm": 297.0,
    "linewidth_mhz": 4.3, "isotope_splitting_ghz": 2.4,
}
# (section, id, command, valid config, keys whose absence is "missing required key")
CONFIG_SCHEMA = [
    ("species", "species", "modes", {"species": _SPECIES, "potential": _ONE_ION["potential"]}, ()),
    ("potential", "potential-harmonic", "modes", _ONE_ION, ("axial_freq_khz",)),
    (
        "potential", "potential-equispaced_log", "modes",
        {"species": _SPECIES, "potential": {"kind": "equispaced_log", "n_ions": 3, "spacing_um": 4.4}},
        ("n_ions", "spacing_um"),
    ),
    (
        "potential", "potential-quad_quartic", "modes",
        {"species": _SPECIES, "potential": {"kind": "quad_quartic", "a2_j_per_m2": 1.0e-14, "n_ions": 3}},
        (),
    ),
    ("beam", "beam-gaussian", "rabi", _ONE_ION, ("waist_nm",)),
    ("beam", "beam-tabulated", "rabi", {**_ONE_ION, "beam": {"kind": "tabulated", "csv": None}}, ()),
    ("thermal", "thermal", "rabi", _ONE_ION, ("nbar",)),
    ("noise", "noise", "gate-fidelity", _DERIVED_GATE, ("alpha", "reference_rate_quanta_per_s", "reference_freq_mhz")),
    ("rabi", "rabi", "rabi", {"rabi": {"drive_khz": 50.0, "t_max_us": 10.0, "theta": [0.1]}}, ("drive_khz", "t_max_us")),
    ("scan", "scan", "theta-scan", {**_ONE_ION, "scan": {"x_min_um": -1.0, "x_max_um": 1.0}}, ("x_min_um", "x_max_um")),
    ("gate", "gate", "gate-fidelity", _DERIVED_GATE, ("ion_i", "ion_j")),
    (
        "scaling", "scaling", "scaling",
        {"species": _SPECIES, "scaling": {"n_list": [3], "alpha": 1.0, "spacing_um": 4.4}},
        ("n_list", "alpha", "spacing_um"),
    ),
    ("cooling", "cooling", "cooling", {"cooling": _COOLING}, tuple(_COOLING)),
]


class TestConfigSchema:
    """Every section (and kind) rejects an extra key and each missing required key."""

    @staticmethod
    def run_edited(tmp_path, capsys, command, config, section, edit):
        config = {name: dict(body) for name, body in config.items()}
        if config.get("beam", {}).get("kind") == "tabulated":
            x_um = np.linspace(-2.0, 2.0, 41)
            lines = ["x_um,rabi_khz"] + [f"{a},{50.0 * np.exp(-a * a)}" for a in x_um]
            beam_csv = tmp_path / "beam.csv"
            beam_csv.write_text("\n".join(lines) + "\n")
            config["beam"]["csv"] = str(beam_csv)
        edit(config[section])
        cfg = write(tmp_path / "schema.yaml", yaml.safe_dump(config))
        capsys.readouterr()
        code = run([command, "--config", cfg])
        return code, capsys.readouterr().err.strip()

    @pytest.mark.parametrize(
        "section, command, config", [case[:1] + case[2:4] for case in CONFIG_SCHEMA],
        ids=[case[1] for case in CONFIG_SCHEMA],
    )
    def test_extra_key(self, tmp_path, capsys, section, command, config):
        code, err = self.run_edited(
            tmp_path, capsys, command, config, section, lambda body: body.update(zz_extra=1)
        )
        assert code == 2
        assert err == f"ionchain {command}: config error: unknown key(s) in {section}: zz_extra"

    @pytest.mark.parametrize(
        "section, command, config, key",
        [case[:1] + case[2:4] + (key,) for case in CONFIG_SCHEMA for key in case[4]],
        ids=[f"{case[1]}-{key}" for case in CONFIG_SCHEMA for key in case[4]],
    )
    def test_missing_required_key(self, tmp_path, capsys, section, command, config, key):
        code, err = self.run_edited(
            tmp_path, capsys, command, config, section, lambda body: body.pop(key)
        )
        assert code == 2
        assert err == f"ionchain {command}: config error: missing required key {section}.{key}"

    @pytest.mark.parametrize("key", ["theta0", "rate_sigmas_per_s"])
    def test_a_mutated_list_default_leaves_the_next_read_unchanged(self, key):
        section = {"gate": {"ion_i": 0, "ion_j": 1}}
        getattr(read_section(section, "gate"), key)[0] = 9.0
        assert getattr(read_section(section, "gate"), key) == [0.0, 0.0]

    def test_unedited_configs_run(self, tmp_path, capsys):
        for section, _, command, config, _ in CONFIG_SCHEMA:
            edit = lambda body: None
            assert self.run_edited(tmp_path, capsys, command, config, section, edit) == (0, "")


class TestChecksBeforeSolve:
    """Bad list overrides, wait times and beams are rejected before any chain
    is solved or any decay parameter computed."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the inputs were checked")

        monkeypatch.setattr(ionchain.cli, "find_equilibrium", solve)
        monkeypatch.setattr(ionchain.cli, "decay_parameters", solve)

    def run_flags(self, tmp_path, capsys, command, config, *flags):
        cfg = write(tmp_path / "flags.yaml", yaml.safe_dump(config))
        capsys.readouterr()
        code = run([command, "--config", cfg, *flags])
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "command, config, flag, key",
        [
            (
                "scaling", {"species": _SPECIES, "scaling": {"alpha": 1.0, "spacing_um": 4.4}},
                "--n-list", "scaling.n_list",
            ),
            ("gate-fidelity", _DERIVED_GATE, "--tw-list", "gate.tw_list_ms"),
        ],
        ids=["n_list", "tw_list"],
    )
    def test_empty_list_override(self, tmp_path, capsys, command, config, flag, key):
        code, captured = self.run_flags(tmp_path, capsys, command, config, flag, ",")
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip() == (
            f"ionchain {command}: config error: {key} must be a non-empty list of numbers"
        )

    def test_negative_wait_override(self, tmp_path, capsys):
        code, captured = self.run_flags(
            tmp_path, capsys, "gate-fidelity", _DERIVED_GATE, "--tw-list", "0,-1"
        )
        assert (code, captured.out) == (2, "")
        assert captured.err.strip() == "ionchain gate-fidelity: config error: wait times must be >= 0"

    @pytest.mark.parametrize(
        "command, config, section, edit, message",
        [
            (
                "gate-fidelity", _DERIVED_GATE, "gate",
                lambda body: body.update(tw_list_ms=[0.0, -1.0]), "wait times must be >= 0",
            ),
            (
                "gate-fidelity", {**_DERIVED_GATE, "beam": {"kind": "tabulated", "csv": None}},
                "beam", lambda body: None, "derived theta rates require a gaussian beam",
            ),
            (
                "gate-fidelity", _DERIVED_GATE, "gate",
                lambda body: body.update(spam_error=1.5), "gate.spam_error must lie in [0, 1)",
            ),
            (
                "gate-fidelity", _DERIVED_GATE, "gate",
                lambda body: body.update(rate_sigmas_per_s=[0.5, -0.5]),
                "gate.rate_sigmas_per_s must be >= 0",
            ),
            (
                "theta-scan",
                {
                    **_ONE_ION,
                    "beam": {"kind": "tabulated", "csv": None},
                    "scan": {"x_min_um": -1.0, "x_max_um": 1.0},
                },
                "beam", lambda body: None, "theta-scan requires a gaussian beam",
            ),
        ],
        ids=[
            "negative_wait", "tabulated_gate_beam", "spam_error", "negative_rate_sigma",
            "tabulated_scan_beam",
        ],
    )
    def test_config_rejected(self, tmp_path, capsys, command, config, section, edit, message):
        code, err = TestConfigSchema.run_edited(tmp_path, capsys, command, config, section, edit)
        assert (code, err) == (2, f"ionchain {command}: config error: {message}")


class TestFit:
    def test_beam_round_trip(self, tmp_path, rng):
        x = np.linspace(-2.0, 2.0, 41)
        y = gaussian_beam_model([1.2, 0.05, 0.87], x) + rng.normal(0, 0.01, x.size)
        data = tmp_path / "beam.csv"
        lines = ["x_um,signal"] + [f"{a},{b}" for a, b in zip(x, y)]
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "beam", data, "--out", out]) == 0
        payload = json.loads(out.read_text())
        waist = payload["parameters"]["waist_um"]
        assert abs(waist["value"] - 0.87) < 3 * waist["sigma"] + 0.01
        residuals = (tmp_path / "fit.residuals.csv").read_text().splitlines()
        assert residuals[0] == "x_um,signal,model,residual"
        assert len(residuals) == x.size + 1

    def test_power_law_round_trip(self, tmp_path):
        freq_khz = np.geomspace(100, 1200, 10)
        omega = 2 * np.pi * freq_khz * 1e3
        rates = 22.0 * (2 * np.pi * 140e3) ** 2.8 * omega ** (-2.8) + 0.9
        data = tmp_path / "rates.csv"
        lines = ["freq_khz,rate_per_s"] + [f"{a},{b}" for a, b in zip(freq_khz, rates)]
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pl.json"
        assert run(["fit", "power-law", data, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["parameters"]["alpha"]["value"] == pytest.approx(0.8, abs=1e-4)
        assert payload["parameters"]["offset_per_s"]["value"] == pytest.approx(0.9, rel=1e-3)

    def test_rabi_rows_in_any_order(self, tmp_path):
        golden = ROOT / "tests/golden/data/rabi.csv"
        header, *rows = golden.read_text().splitlines()
        random.Random(1).shuffle(rows)
        shuffled = write(tmp_path / "shuffled.csv", "\n".join([header, *rows]) + "\n")
        for data, out in ((golden, "a.json"), (shuffled, "b.json")):
            assert run(["fit", "rabi", data, "--out", tmp_path / out]) == 0
        sorted_fit, shuffled_fit = (
            json.loads((tmp_path / name).read_text())["parameters"] for name in ("a.json", "b.json")
        )
        for name, param in sorted_fit.items():
            assert shuffled_fit[name]["value"] == pytest.approx(param["value"], rel=1e-12)
            assert shuffled_fit[name]["sigma"] == pytest.approx(param["sigma"], rel=1e-9)
        # the residual rows follow the input rows
        _, residual_rows = read_csv(tmp_path / "b.residuals.csv")
        assert [format(t, "g") for t in residual_rows[:, 0]] == [r.split(",")[0] for r in rows]

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["fit", "beam", tmp_path / "absent.csv"]) == 2

    def test_non_numeric_cell_diagnosed(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x_um,signal\n0.0,1.0\n0.1,oops\n")
        assert run(["fit", "beam", data]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 2" in err

    def test_wrong_header_exits_2(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n3,4\n")
        assert run(["fit", "beam", data]) == 2

    def test_flat_data_exits_3(self, tmp_path):
        data = tmp_path / "flat.csv"
        rows = "\n".join(f"{x},0.5" for x in np.linspace(-1, 1, 21))
        data.write_text("x_um,signal\n" + rows + "\n")
        assert run(["fit", "beam", data]) == 3


GATE_CFG = (
    "gate:\n  ion_i: 0\n  ion_j: 1\n  n_gates: {n_gates}\n  spam_error: 0.009\n"
    "  rates_per_s: [11.0, 13.0]\n  rate_sigmas_per_s: [1.0, 1.0]\n"
    "  tw_list_ms: [0.0, 2.0, 5.0, 10.0]\n"
)


class TestGateFidelity:
    def test_zero_wait_gives_spam_limited(self, tmp_path):
        cfg = write(tmp_path / "g.yaml", GATE_CFG.format(n_gates=1))
        out = tmp_path / "g.csv"
        assert run(["gate-fidelity", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["tw_ms", "F_bound", "F_spam", "F_err"]
        assert rows[0, 1] == 1.0
        assert rows[0, 2] == pytest.approx(0.991)
        assert np.all(np.diff(rows[:, 1]) < 0)  # monotone decreasing

    def test_three_gates_below_one(self, tmp_path):
        out1, out3 = tmp_path / "g1.csv", tmp_path / "g3.csv"
        cfg1 = write(tmp_path / "g1.yaml", GATE_CFG.format(n_gates=1))
        cfg3 = write(tmp_path / "g3.yaml", GATE_CFG.format(n_gates=3))
        assert run(["gate-fidelity", "--config", cfg1, "--out", out1]) == 0
        assert run(["gate-fidelity", "--config", cfg3, "--out", out3]) == 0
        _, r1 = read_csv(out1)
        _, r3 = read_csv(out3)
        assert np.all(r3[1:, 1] < r1[1:, 1])

    def test_derived_rates_pipeline(self, tmp_path):
        cfg = write(
            tmp_path / "gp.yaml",
            YB
            + "potential:\n  kind: equispaced_log\n  n_ions: 15\n  spacing_um: 4.4\n"
            + "beam:\n  kind: gaussian\n  waist_nm: 870.0\n"
            + "noise:\n  alpha: 1.0\n  reference_rate_quanta_per_s: 88.0\n"
            + "  reference_freq_mhz: 3.0\n"
            + "gate:\n  ion_i: 7\n  ion_j: 8\n  spam_error: 0.009\n"
            + "  tw_list_ms: [0.0, 5.0, 10.0]\n",
        )
        out = tmp_path / "gp.csv"
        assert run(["gate-fidelity", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows[0, 1] == 1.0
        assert np.all(np.diff(rows[:, 1]) < 0)

    @pytest.mark.parametrize(
        "center_um, flat", [(0.0, False), (0.87 / np.sqrt(2), True)], ids=["centered", "flat"]
    )
    def test_beam_center_offsets_each_gated_ion(self, tmp_path, center_um, flat):
        # a gaussian beam's curvature vanishes at waist/sqrt(2) from its centre
        beam = {**_DERIVED_GATE["beam"], "center_um": float(center_um)}
        gate = {**_DERIVED_GATE["gate"], "tw_list_ms": [0.0, 5.0, 10.0]}
        cfg = write(tmp_path / "g.yaml", yaml.safe_dump({**_DERIVED_GATE, "beam": beam, "gate": gate}))
        out = tmp_path / "g.json"
        assert run(["gate-fidelity", "--config", cfg, "--format", "json", "--out", out]) == 0
        f_bound = np.array(json.loads(out.read_text())["rows"])[:, 1]
        if flat:
            np.testing.assert_allclose(f_bound, 1.0, rtol=0, atol=1e-12)
        else:
            assert np.all(f_bound[1:] < 1.0 - 1e-6)

    def test_tw_list_override(self, tmp_path):
        cfg = write(tmp_path / "g.yaml", GATE_CFG.format(n_gates=1))
        out = tmp_path / "o.csv"
        assert run(["gate-fidelity", "--config", cfg, "--tw-list", "1.5", "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows.shape[0] == 1
        assert rows[0, 0] == 1.5


class TestScaling:
    def test_single_n_single_row(self, tmp_path):
        cfg = write(
            tmp_path / "s.yaml",
            YB + "scaling:\n  n_list: [12]\n  alpha: 1.0\n  spacing_um: 4.4\n",
        )
        out = tmp_path / "s.csv"
        assert run(["scaling", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["n_ions", "omega0_khz", "rel_gate_error"]
        assert rows.shape == (1, 3)
        assert rows[0, 2] == 1.0

    def test_inverse_n_power_law(self, tmp_path):
        cfg = write(
            tmp_path / "s.yaml",
            YB
            + "scaling:\n  n_list: [10, 20, 40]\n  alpha: 1.0\n"
            + "  omega0_mode: inverse_n\n  spacing_um: 4.4\n",
        )
        out = tmp_path / "s.csv"
        assert run(["scaling", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows[:, 2] == pytest.approx([1.0, 2.0**6, 4.0**6], rel=1e-12)

    def test_omega_column_decreasing(self, tmp_path):
        cfg = write(
            tmp_path / "s.yaml",
            YB + "scaling:\n  n_list: [5, 10, 20]\n  alpha: 1.0\n  spacing_um: 4.4\n",
        )
        out = tmp_path / "s.csv"
        assert run(["scaling", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        assert np.all(np.diff(rows[:, 1]) < 0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_exact_exponent_below_inverse_n(self, tmp_path, alpha):
        # inverse_n's N^(4 + 2 alpha) assumes omega0 ~ 1/N; the exact lowest
        # mode falls more slowly, so the local exponent only climbs towards it
        n_list = [5, 10, 15, 25, 50, 100, 200, 300, 400]
        cfg = write(
            tmp_path / "s.yaml",
            YB + f"scaling:\n  n_list: {n_list}\n  alpha: {alpha}\n  spacing_um: 4.4\n",
        )
        out = tmp_path / "s.csv"
        assert run(["scaling", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out)
        exponents = np.diff(np.log(rows[:, 2])) / np.diff(np.log(rows[:, 0]))
        assert np.all(np.diff(exponents) > 0)
        assert exponents[-1] < 4.0 + 2.0 * alpha


class TestCooling:
    CFG = (
        "cooling:\n  coolant_fraction: {r}\n  spacing_um: 4.0\n"
        "  wavelength_nm: 297.0\n  linewidth_mhz: 4.3\n  isotope_splitting_ghz: 2.4\n"
    )

    def test_reference_value(self, tmp_path):
        cfg = write(tmp_path / "c.yaml", self.CFG.format(r=0.5))
        out = tmp_path / "c.json"
        assert run(["cooling", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["crosstalk_rate_per_s"] <= 2e-3
        assert payload["crosstalk_rate_per_s"] == pytest.approx(1.87e-3, rel=0.01)
        assert "note" in payload

    def test_zero_fraction(self, tmp_path):
        cfg = write(tmp_path / "c.yaml", self.CFG.format(r=0.0))
        out = tmp_path / "c.json"
        assert run(["cooling", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["crosstalk_rate_per_s"] == 0.0

    def test_missing_splitting_exits_2(self, tmp_path):
        text = self.CFG.format(r=0.5).replace("  isotope_splitting_ghz: 2.4\n", "")
        cfg = write(tmp_path / "c.yaml", text)
        assert run(["cooling", "--config", cfg]) == 2

    def test_csv_format_rejected(self, tmp_path):
        cfg = write(tmp_path / "c.yaml", self.CFG.format(r=0.5))
        assert run(["cooling", "--config", cfg, "--format", "csv"]) == 2


class TestNumericalErrors:
    def test_stalled_solve_reports_residual(self, monkeypatch, harmonic2, capsys):
        def stalled(*args, **kwargs):
            raise SolverError("equilibrium search stalled", residual=2.5e-11)

        monkeypatch.setattr(ionchain.cli, "find_equilibrium", stalled)
        assert run(["modes", "--config", harmonic2]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "ionchain modes: numerical error: equilibrium search stalled (residual 2.500e-11)"
        )

    def test_stalled_solve_logs_positions_at_debug(self, harmonic2):
        code = (
            "import sys, numpy as np, ionchain.cli\n"
            "from ionchain.errors import SolverError\n"
            "def stalled(*args, **kwargs):\n"
            "    raise SolverError('equilibrium search stalled', residual=2.5e-11,\n"
            "                      positions=np.array([-3.1234567e-6, 0.0, 2.5e-6]))\n"
            "ionchain.cli.find_equilibrium = stalled\n"
            f"sys.exit(ionchain.cli.main(['modes', '--config', {harmonic2!r}]))\n"
        )
        message = "ionchain modes: numerical error: equilibrium search stalled (residual 2.500e-11)"
        runs = {}
        for level in ("DEBUG", None):
            env = {k: v for k, v in os.environ.items() if k != "IONCHAIN_LOG"}
            if level:
                env["IONCHAIN_LOG"] = level
            runs[level] = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
        debug, default = runs["DEBUG"], runs[None]
        assert debug.returncode == default.returncode == 3
        assert debug.stdout == default.stdout == ""
        assert default.stderr.strip() == message
        lines = debug.stderr.strip().splitlines()
        assert lines[0] == message
        assert lines[1].endswith(
            "ionchain DEBUG solver positions at failure (3 ions, um): -3.12346 0 2.5"
        )
        assert len(lines) == 2

    def test_error_without_residual_keeps_its_message(self, monkeypatch, harmonic2, capsys):
        def failed(*args, **kwargs):
            raise SolverError("uniform-chain fit failed: positions are not finite")

        monkeypatch.setattr(ionchain.cli, "find_equilibrium", failed)
        assert run(["modes", "--config", harmonic2]) == 3
        assert capsys.readouterr().err.strip() == (
            "ionchain modes: numerical error: uniform-chain fit failed: positions are not finite"
        )


CONFIGS = ROOT / "configs"
GOLDEN_DATA = ROOT / "tests" / "golden" / "data"
SHIPPED_COMMANDS = {
    "modes": ["modes", "--config", CONFIGS / "modes.yaml"],
    "rabi": ["rabi", "--config", CONFIGS / "rabi.yaml"],
    "rabi --mc": ["rabi", "--config", CONFIGS / "rabi.yaml", "--mc", "--seed", "7"],
    "theta-scan": ["theta-scan", "--config", CONFIGS / "theta_scan.yaml"],
    "gate-fidelity": ["gate-fidelity", "--config", CONFIGS / "gate_fidelity.yaml"],
    "scaling": ["scaling", "--config", CONFIGS / "scaling.yaml"],
    "cooling": ["cooling", "--config", CONFIGS / "cooling.yaml"],
}
FIT_COMMANDS = {
    f"fit {recipe}": ["fit", recipe, GOLDEN_DATA / f"{recipe.replace('-', '_')}.csv"]
    for recipe in ("beam", "rabi", "theta-growth", "power-law")
}
SHIPPED_TABLES = [argv for name, argv in SHIPPED_COMMANDS.items() if name != "cooling"]


@pytest.mark.parametrize("argv", SHIPPED_TABLES, ids=lambda argv: " ".join(map(str, argv[:1] + argv[3:])))
def test_json_rows_match_csv(tmp_path, argv):
    out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
    assert run(argv + ["--out", out_csv]) == 0
    assert run(argv + ["--out", out_json, "--format", "json"]) == 0
    lines = out_csv.read_text().splitlines()
    payload = json.loads(out_json.read_text())
    assert payload["columns"] == lines[0].split(",")
    assert [[format(v, ".12g") for v in row] for row in payload["rows"]] == [
        line.split(",") for line in lines[1:]
    ]
    assert payload["provenance"]["command"] == argv[0]
    assert isinstance(payload["inputs"], dict) and payload["inputs"]


class TestCliContract:
    """The messages and exit codes every command shares, pinned verbatim."""

    @staticmethod
    def run_captured(capsys, argv):
        capsys.readouterr()
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "beam", ROOT / "tests" / "golden" / "data" / "beam.csv"],
            ["cooling", "--config", ROOT / "configs" / "cooling.yaml"],
        ],
        ids=["fit", "cooling"],
    )
    def test_csv_rejected_for_json_commands(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        code, captured = self.run_captured(capsys, argv + ["--format", "csv", "--out", out])
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"ionchain {argv[0]}: config error: "
            f"{argv[0]} emits JSON; use --format json (the default here)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command", ["modes", "rabi", "theta-scan", "gate-fidelity", "scaling", "cooling"]
    )
    def test_missing_config(self, capsys, command):
        code, captured = self.run_captured(capsys, [command])
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"ionchain {command}: config error: this command requires --config <file>\n"
        )

    def test_fit_rejects_config(self, capsys):
        data = ROOT / "tests" / "golden" / "data" / "beam.csv"
        argv = ["fit", "beam", data, "--config", "/nonexistent.yaml"]
        code, captured = self.run_captured(capsys, argv)
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith(
            "ionchain: error: unrecognized arguments: --config /nonexistent.yaml\n"
        )

    @pytest.mark.parametrize("command", list(ionchain.cli._COMMANDS))
    def test_help_lists_config_only_where_read(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, captured = self.run_captured(capsys, [command, "--help"])
        assert code == 0
        listed = ("[--config CONFIG]" in captured.out, "YAML run configuration" in captured.out)
        assert listed == (command != "fit",) * 2
        assert "[--out OUT]" in captured.out

    def test_negative_seed(self, capsys, harmonic2):
        code, captured = self.run_captured(capsys, ["modes", "--config", harmonic2, "--seed", "-1"])
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith("\nionchain: error: --seed must be >= 0\n")

    def test_out_into_missing_directory(self, tmp_path, capsys, harmonic2):
        out = tmp_path / "missing" / "m.csv"
        code, captured = self.run_captured(capsys, ["modes", "--config", harmonic2, "--out", out])
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"ionchain modes: i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )

    def test_gate_ions_outside_chain(self, tmp_path, capsys):
        config = {**_DERIVED_GATE, "gate": {**_DERIVED_GATE["gate"], "ion_j": 2}}
        cfg = write(tmp_path / "g.yaml", yaml.safe_dump(config))
        code, captured = self.run_captured(capsys, ["gate-fidelity", "--config", cfg])
        assert (code, captured.out) == (2, "")
        assert captured.err == "ionchain gate-fidelity: config error: gate ions outside the chain\n"

    def test_help_lists_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, captured = self.run_captured(capsys, ["--help"])
        assert code == 0
        commands = "{modes,rabi,theta-scan,fit,gate-fidelity,scaling,cooling}"
        assert captured.out.startswith(f"usage: ionchain [-h] [--version]\n{' ' * 16}{commands} ...\n")
        block = (
            f"positional arguments:\n  {commands}\n"
            "    modes               chain normal-mode table\n"
            "    rabi                thermal Rabi trace\n"
            "    theta-scan          decay parameter vs position\n"
            "    fit                 least-squares fits\n"
            "    gate-fidelity       fidelity bound vs wait time\n"
            "    scaling             lowest mode and gate error vs chain size\n"
            "    cooling             cooling crosstalk bound\n"
        )
        assert block in captured.out


class TestDeterminismAndPlumbing:
    def test_modes_byte_identical(self, tmp_path, harmonic2):
        out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert run(["modes", "--config", harmonic2, "--out", out1]) == 0
        assert run(["modes", "--config", harmonic2, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_final_newline(self, tmp_path, harmonic2):
        out = tmp_path / "m.csv"
        run(["modes", "--config", harmonic2, "--out", out])
        assert out.read_bytes().endswith(b"\n")

    def test_stdout_output(self, tmp_path, harmonic2, capsys):
        assert run(["modes", "--config", harmonic2]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("mode_index,freq_khz,participation_sum_sq")

    def test_module_entrypoint(self, tmp_path, harmonic2):
        result = subprocess.run(
            [sys.executable, "-m", "ionchain.cli", "modes", "--config", harmonic2],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("mode_index")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_config_required(self):
        assert main(["modes"]) == 2

    def test_closed_flag_is_unknown(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["rabi", "--closed"])
        assert excinfo.value.code == 2

    def test_config_does_not_import_cli(self, tmp_path):
        beam_csv = tmp_path / "beam.csv"
        x_um = np.linspace(-2.0, 2.0, 41)
        lines = ["x_um,rabi_khz"] + [f"{a},{50.0 * np.exp(-a * a)}" for a in x_um]
        beam_csv.write_text("\n".join(lines) + "\n")
        code = (
            "import sys, ionchain.config as c; "
            f"c.build_beam({{'beam': {{'kind': 'tabulated', 'csv': {str(beam_csv)!r}}}}}); "
            "assert 'ionchain.cli' not in sys.modules"
        )
        run_fresh(code)


def with_out(argvs, out_dir, stem):
    """Each argv as strings, writing to its own file in ``out_dir``."""
    return [
        [str(a) for a in argv] + ["--out", str(out_dir / f"{stem}{k}")]
        for k, argv in enumerate(argvs)
    ]


def modules_loaded(code, **env):
    """The ``ionchain.*`` modules, ``yaml`` and ``logging`` that a new
    interpreter has loaded once it has run ``code``; IONCHAIN_LOG is unset
    unless given in ``env``."""
    environ = {k: v for k, v in os.environ.items() if k != "IONCHAIN_LOG"}
    environ.update(env)
    code += (
        "\nimport sys\nprint(*sorted(m for m in sys.modules"
        " if m.startswith('ionchain.') or m in ('yaml', 'logging')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=environ
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def run_main(argv):
    return f"import ionchain.cli\nassert ionchain.cli.main({argv!r}) == 0\n"


class TestImportBudget:
    def test_shipped_configs_run_without_scipy(self, tmp_path):
        argvs = with_out(SHIPPED_COMMANDS.values(), tmp_path, "out")
        run_fresh(
            "import sys, ionchain, ionchain.cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert ionchain.cli.main(argv) == 0, argv\n"
            f"loaded = {SCIPY_LOADED}\n"
            "assert loaded == [], loaded\n"
        )

    def test_scipy_users_still_work(self, tmp_path):
        # every fit recipe, the tabulated beam and the line fit once used scipy
        argvs = with_out(FIT_COMMANDS.values(), tmp_path, "fit")
        run_fresh(
            "import sys, numpy as np\n"
            "from ionchain import (HarmonicPotential, TabulatedBeam, YB171,\n"
            "                      find_equilibrium, spacing_deviation)\n"
            "from ionchain.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "x = np.linspace(-2.0, 2.0, 9)\n"
            "assert TabulatedBeam(x, np.exp(-x * x)).curvature_ratio(0.0) < 0\n"
            "chain = find_equilibrium(YB171, HarmonicPotential(2 * np.pi * 1e6), 5)\n"
            "assert spacing_deviation(chain) > 0\n"
            f"loaded = {SCIPY_LOADED}\n"
            "assert loaded == [], loaded\n"
        )

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """The modules each shipped command and fit recipe has loaded after
        ``main``, each run in its own new interpreter."""
        commands = {**SHIPPED_COMMANDS, **FIT_COMMANDS}
        argvs = with_out(commands.values(), tmp_path_factory.mktemp("budget"), "out")
        return {name: modules_loaded(run_main(argv)) for name, argv in zip(commands, argvs)}

    def test_bare_import_loads_no_submodule(self):
        assert modules_loaded("import ionchain") == set()

    @pytest.mark.parametrize("name", FIT_COMMANDS)
    def test_fits_load_no_config_parser_logging_gates_or_cooling(self, loaded, name):
        assert not loaded[name] & {"yaml", "logging", "ionchain.gates", "ionchain.cooling"}

    @pytest.mark.parametrize("name", ["modes", "rabi", "rabi --mc", "theta-scan"])
    def test_chain_and_trace_commands_load_no_fits_gates_heating_or_cooling(self, loaded, name):
        unused = {"ionchain.fitting", "ionchain.gates", "ionchain.heating", "ionchain.cooling"}
        assert not loaded[name] & unused

    def test_logging_loads_only_for_ionchain_log(self, loaded, tmp_path):
        assert [name for name, modules in loaded.items() if "logging" in modules] == []
        argv = with_out([SHIPPED_COMMANDS["modes"]], tmp_path, "out")[0]
        assert "logging" in modules_loaded(run_main(argv), IONCHAIN_LOG="INFO")
