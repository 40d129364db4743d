"""cli: one op is one fresh ``python -m ionchain.cli`` process, run from src.

A round runs every shipped config once (modes, rabi, rabi --mc,
theta-scan, gate-fidelity, scaling, cooling) and the four fit recipes on
CSVs generated from the seed.  Each output is checked against closed forms
computed here, and must be byte-identical to every other output of the
same command in the run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

import inputs
import reference as ref
from harness import ProgramFailure, run_child

FIT_RECIPES = ("beam", "rabi", "theta-growth", "power-law")


class Cli:
    name = "cli"
    min_rounds = 4
    """4 rounds x 11 ops = 44 ops, so p77 has at least 10 samples beyond."""
    tail_pct = 77.0

    def __init__(self, seed: int, workdir: Path, checkout: Path):
        self.workdir = workdir
        self.src = checkout / "src"
        configs = checkout / "configs"
        self.config = {
            stem: yaml.safe_load((configs / f"{stem}.yaml").read_text(encoding="utf-8"))
            for stem in ("modes", "rabi", "theta_scan", "gate_fidelity", "scaling", "cooling")
        }
        exp = inputs.make_experiment(seed, 0)
        self.truths = inputs.fit_truths(exp)
        for recipe, text in inputs.fit_csvs(exp).items():
            (workdir / f"data_{recipe}.csv").write_text(text, encoding="utf-8")
        mc_seed = str(exp.mc_seed % 1_000_000)

        def cfg(stem):
            return ["--config", str(configs / f"{stem}.yaml")]

        def out(name):
            return ["--out", str(workdir / name)]

        self.ops = [
            ("modes", ["modes", *cfg("modes"), *out("modes.csv")]),
            ("rabi", ["rabi", *cfg("rabi"), *out("rabi.csv")]),
            ("rabi_mc", ["rabi", *cfg("rabi"), "--mc", "--seed", mc_seed, *out("rabi_mc.csv")]),
            ("theta_scan", ["theta-scan", *cfg("theta_scan"), *out("theta_scan.csv")]),
            ("gate_fidelity", ["gate-fidelity", *cfg("gate_fidelity"), *out("gate_fidelity.csv")]),
            ("scaling", ["scaling", *cfg("scaling"), *out("scaling.csv")]),
            ("cooling", ["cooling", *cfg("cooling"), *out("cooling.json")]),
        ] + [
            (
                "fit_" + r.replace("-", "_"),
                ["fit", r, str(workdir / f"data_{r}.csv"), *out(f"fit_{r}.json")],
            )
            for r in FIT_RECIPES
        ]
        self.reference = {}

    # ------------------------------------------------------------------
    def round_ops(self, r: int) -> list:
        return self.ops

    def outputs(self, argv) -> dict:
        out = Path(argv[argv.index("--out") + 1])
        files = {out.name: out.read_bytes()}
        for suffix in (".participation.csv", ".residuals.csv"):
            sibling = out.with_name(out.stem + suffix)
            if sibling.exists():
                files[sibling.name] = sibling.read_bytes()
        return files

    def clear(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        for suffix in (out.suffix, ".participation.csv", ".residuals.csv"):
            out.with_name(out.stem + suffix).unlink(missing_ok=True)

    def run_op(self, op, tr):
        tag, argv = op
        self.clear(argv)
        result = run_child(
            [sys.executable, "-m", "ionchain.cli", *argv],
            self.src, self.workdir / "stdout.txt", self.workdir / "stderr.txt",
        )
        if result.output != 0:
            err = (self.workdir / "stderr.txt").read_text(errors="replace").strip()
            raise ProgramFailure(f"exit {result.output}: {err[-300:]}")
        result.output = self.outputs(argv)
        return result

    def warm_up(self):
        """One untimed pass over the round; its outputs become the reference."""
        for op in self.ops:
            self.check(op, self.run_op(op, None).output)

    # ------------------------------------------------------------------
    def check(self, op, files: dict):
        tag, argv = op
        if tag in self.reference:
            ref.require(files == self.reference[tag], f"{tag}: output differs from an earlier run")
            return
        getattr(self, "_check_" + tag.split("_")[0])(tag, files)
        self.reference[tag] = files

    def _check_modes(self, tag, files):
        _, rows = read_csv(files["modes.csv"])
        header, part = read_csv(files["modes.participation.csv"])
        b = part[:, 1:]
        n = self.config["modes"]["potential"]["n_ions"]
        ref.require(b.shape == (n, n) and rows.shape[0] == n, "modes: wrong mode count")
        ref.require(np.max(np.abs(b.T @ b - np.eye(n))) <= ref.PRINT_TOL, "modes: not orthonormal")
        ref.require(np.all(np.diff(rows[:, 1]) > 0) and rows[0, 1] > 0, "modes: frequencies not ascending")
        ref.close(rows[:, 2], b.sum(axis=0) ** 2, ref.PRINT_TOL, "modes: participation sums", ref.PRINT_TOL)

    def _rabi_columns(self, files, name):
        header, rows = read_csv(files[name])
        c = self.config["rabi"]
        omega = 2.0 * math.pi * c["rabi"]["drive_khz"] * 1e3
        t = rows[:, 0] * 1e-6
        ref.close(rows[:, 0], np.linspace(0.0, c["rabi"]["t_max_us"], c["rabi"]["n_points"]),
                  ref.PRINT_TOL, "rabi: time grid", ref.PRINT_TOL)
        theta = ref.single_ion_theta(
            c["potential"]["axial_freq_khz"], c["beam"]["waist_nm"], c["thermal"]["nbar"]
        )
        _, contrast, phase = ref.rabi_closed(omega, [theta], t)
        ref.close(rows[:, 2], contrast, ref.PRINT_TOL, "rabi: contrast vs CODATA theta")
        ref.close(rows[:, 3], phase, ref.PRINT_TOL, "rabi: phase vs CODATA theta", ref.PRINT_TOL)
        own = 0.5 * (1.0 - rows[:, 2] * np.cos(omega * t - rows[:, 3]))
        return header, rows, own

    def _check_rabi(self, tag, files):
        if tag == "rabi_mc":
            header, rows, own = self._rabi_columns(files, "rabi_mc.csv")
            ref.require(header[-1] == "mc_stderr", "rabi --mc: no stderr column")
            ref.check_mc(rows[:, 1], rows[:, 4], own, "rabi --mc")
        else:
            _, rows, own = self._rabi_columns(files, "rabi.csv")
            ref.close(rows[:, 1], own, 0.0, "rabi: p1 vs its own C and phase", ref.PRINT_TOL)

    def _check_theta(self, tag, files):
        _, rows = read_csv(files["theta_scan.csv"])
        c = self.config["theta_scan"]
        s = c["scan"]
        ref.close(rows[:, 0], np.linspace(s["x_min_um"], s["x_max_um"], s["n_points"]),
                  ref.PRINT_TOL, "theta-scan: grid", ref.PRINT_TOL)
        expected = ref.theta_profile(
            rows[:, 0] * 1e-6, c["beam"].get("center_um", 0.0) * 1e-6,
            c["potential"]["axial_freq_khz"], c["beam"]["waist_nm"], c["thermal"]["nbar"],
        )
        ref.close(rows[:, 1], expected, 0.0, "theta-scan", ref.PRINT_TOL * np.max(expected))

    def _check_gate(self, tag, files):
        _, rows = read_csv(files["gate_fidelity.csv"])
        gate = self.config["gate_fidelity"]["gate"]
        ref.close(rows[:, 0], gate["tw_list_ms"], 0.0, "gate-fidelity: wait times", ref.PRINT_TOL)
        ref.require(rows[0, 0] == 0.0 and abs(rows[0, 1] - 1.0) <= 1e-12, "gate-fidelity: F(0) != 1")
        ref.require(np.all(np.diff(rows[:, 1]) < 0), "gate-fidelity: F does not fall with wait time")
        ref.close(rows[:, 2], rows[:, 1] * (1.0 - gate["spam_error"]), ref.PRINT_TOL,
                  "gate-fidelity: F_spam != F (1 - spam)")

    def _check_scaling(self, tag, files):
        _, rows = read_csv(files["scaling.csv"])
        ref.close(rows[:, 0], self.config["scaling"]["scaling"]["n_list"], 0.0, "scaling: N list")
        ref.require(np.all(np.diff(rows[:, 1]) < 0) and rows[-1, 1] > 0, "scaling: omega0 does not fall with N")

    def _check_cooling(self, tag, files):
        payload = json.loads(files["cooling.json"])
        c = self.config["cooling"]["cooling"]
        expected = ref.crosstalk_bound(
            c["coolant_fraction"], c["spacing_um"], c["wavelength_nm"],
            c["linewidth_mhz"], c["isotope_splitting_ghz"],
        )
        ref.close(payload["crosstalk_rate_per_s"], expected, ref.PRINT_TOL, "cooling bound")

    def _check_fit(self, tag, files):
        recipe = tag[4:].replace("_", "-")
        payload = json.loads(files[f"fit_{recipe}.json"])
        ref.require(payload["converged"] is True, f"fit {recipe}: not converged")
        params = {k: (v["value"], v["sigma"]) for k, v in payload["parameters"].items()}
        ref.check_fit(params, self.truths[recipe], f"fit {recipe}", log_scale=("amplitude_rad_s",))

    # ------------------------------------------------------------------
    def traced_round_extra(self, tracer, stats):
        """Per-layer figures of one round: a bare interpreter, a fresh import
        and, in this process, config.load_config and cli.main per command."""
        import ionchain.cli
        import ionchain.config

        scratch = (self.workdir / "stdout.txt", self.workdir / "stderr.txt")
        py = sys.executable
        tracer.call("cli.interp_start", None, run_child, [py, "-c", "pass"], self.src, *scratch)
        tracer.call("cli.import_process", None, run_child,
                    [py, "-c", "import ionchain.cli"], self.src, *scratch)
        for op in self.ops:
            tag, argv = op
            stats.attempted += 1
            if "--config" in argv:
                path = argv[argv.index("--config") + 1]
                tracer.call("config.load_config", None, ionchain.config.load_config, path)
            self.clear(argv)
            code = tracer.call("cli.main", tag, ionchain.cli.main, list(argv))
            if code != 0:
                stats.failed += 1
                stats.note("failed", f"in-process {tag}", f"exit {code}")
                continue
            try:
                self.check(op, self.outputs(argv))
            except ref.CheckError as exc:
                stats.wrong += 1
                stats.note("wrong", f"in-process {tag}", exc)

    def layer_pass(self, tracer, stats):
        self.traced_round_extra(tracer, stats)


def read_csv(data: bytes):
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows
