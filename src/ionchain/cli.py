"""Command-line interface.

Subcommands mirror the library's capabilities and write plot-ready CSV (or
JSON) tables:

- ``modes``          chain normal-mode table plus participation matrix
- ``rabi``           thermally averaged Rabi trace, closed form or Monte Carlo
- ``theta-scan``     decay parameter vs beam-ion offset
- ``fit``            beam / rabi / theta-growth / power-law fits of CSV data
- ``gate-fidelity``  fidelity bound vs wait time, with SPAM adjustment
- ``scaling``        lowest mode frequency and relative gate error vs N
- ``cooling``        sympathetic-cooling crosstalk bound

Outputs are deterministic: identical config and seed give byte-identical
files.  Exit codes: 0 success, 2 input or configuration error, 3 numerical
or solver failure.  Set IONCHAIN_LOG=DEBUG (or INFO, ...) for diagnostics on
standard error.

A command imports only the modules it runs: the chain, decay-parameter and
config readers every config-driven command shares are imported here, the
fits, gate bounds, heating and cooling models inside the commands that use
them, and ``logging`` only when IONCHAIN_LOG is set or the process already
has it.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .chain import (
    EquispacedLogPotential,
    HarmonicPotential,
    find_equilibrium,
    normal_modes,
    single_ion_modes,
)
from .config import (
    build_beam,
    build_cooling,
    build_noise,
    build_potential,
    build_species,
    load_config,
    read_gate,
    read_numeric_csv,
    read_scaling,
    read_scan,
    read_section,
)
from .decoherence import (
    GaussianBeam,
    ThermalState,
    decay_parameters,
    rabi_trace,
    rabi_trace_monte_carlo,
)
from .errors import (
    ConfigError,
    DegenerateChainError,
    FitError,
    InputError,
    SolverError,
    UnstableChainError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _log(method: str, message: str, *args) -> None:
    """Log ``message`` at level ``method`` ("info", "debug") on the "ionchain"
    logger when logging is loaded; :func:`main` loads it only for IONCHAIN_LOG,
    without which nothing below WARNING would be shown anyway."""
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger("ionchain"), method)(message, *args)


def render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format(float(v), ".12g") for v in row])
    return buf.getvalue()


def _write_text(out: Path | None, text: str):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def write_table(args, columns, rows, inputs: dict, **extra):
    """Emit a table as CSV (default) or JSON, honoring --out.  ``inputs`` and
    any ``extra`` fields go into JSON output only."""
    if args.format == "json":
        columns, rows = list(columns), [[float(v) for v in row] for row in rows]
        write_json_payload(args, {"columns": columns, "rows": rows, "inputs": inputs, **extra})
    else:
        _write_text(args.out, render_csv(columns, rows))


def write_json_payload(args, payload: dict):
    """Write ``payload`` as JSON after the run's provenance, honoring --out."""
    import json

    provenance = dict(tool="ionchain", version=__version__, command=args.command, seed=args.seed)
    _write_text(args.out, json.dumps({"provenance": provenance, **payload}, indent=2) + "\n")


def write_sibling_csv(args, suffix: str, columns, rows):
    """Write a CSV table next to --out, as ``<stem><suffix>``."""
    _write_text(args.out.with_name(args.out.stem + suffix), render_csv(columns, rows))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_modes(args, config) -> None:
    species = build_species(config)
    potential, n_ions = build_potential(config)
    chain = find_equilibrium(species, potential, n_ions)
    modes = normal_modes(chain)
    freq_khz = modes.frequencies / (2 * math.pi) / 1e3
    rows = zip(range(modes.n_modes), freq_khz, modes.uniform_drive_weights())
    inputs = {
        "species": species.label or species.mass_amu,
        "potential": type(potential).__name__,
        "n_ions": n_ions,
    }
    write_table(
        args,
        ("mode_index", "freq_khz", "participation_sum_sq"),
        rows,
        inputs,
        participation=modes.participation.tolist(),
    )
    if args.out is not None and args.format == "csv":
        part_cols = ["ion_index"] + [f"mode_{m}" for m in range(modes.n_modes)]
        part_rows = [[i, *modes.participation[i]] for i in range(modes.n_ions)]
        write_sibling_csv(args, ".participation.csv", part_cols, part_rows)


def _single_ion_thetas(config, positions, beam):
    """Decay parameter of a single ion in a harmonic trap at each position x
    (m) in ``beam``, from :func:`decay_parameters`.

    Returns (theta array, trap frequency rad/s, nbar).
    """
    species = build_species(config)
    potential, n_ions = build_potential(config)
    if not isinstance(potential, HarmonicPotential) or n_ions != 1:
        raise ConfigError(
            "deriving theta needs a single ion in a harmonic potential (plus "
            "beam and thermal sections); the rabi command also accepts rabi.theta"
        )
    modes = single_ion_modes(species, potential.omega0)
    nbar = read_section(config, "thermal").nbar[0]
    thermal = ThermalState(nbar)
    theta = [decay_parameters(modes, thermal, {0: beam}, [x])[0, 0] for x in positions]
    return np.array(theta), potential.omega0, nbar


def cmd_rabi(args, config) -> None:
    rabi = read_section(config, "rabi")
    if rabi.theta is None:
        rabi.theta = _single_ion_thetas(config, [0.0], build_beam(config))[0]
    thetas = np.asarray(rabi.theta)
    omega0 = 2 * math.pi * rabi.drive_khz * 1e3
    times = np.linspace(0.0, rabi.t_max_us * 1e-6, rabi.n_points)
    closed = rabi_trace(omega0, thetas, times)
    columns = {
        "t_us": times * 1e6, "p1": closed.p1, "contrast": closed.contrast, "phase_rad": closed.phase
    }
    if args.mc:
        mc = rabi_trace_monte_carlo(omega0, thetas, times, rabi.n_samples, seed=args.seed)
        columns.update(p1=mc.p1, mc_stderr=mc.stderr)
    inputs = {
        "drive_khz": rabi.drive_khz,
        "theta": thetas.tolist(),
        "monte_carlo": bool(args.mc),
        "n_samples": rabi.n_samples if args.mc else None,
    }
    write_table(args, columns, zip(*columns.values()), inputs)


def cmd_theta_scan(args, config) -> None:
    scan = read_scan(config)
    beam = build_beam(config)
    if not isinstance(beam, GaussianBeam):
        raise ConfigError("theta-scan requires a gaussian beam")
    x = np.linspace(scan.x_min_um * 1e-6, scan.x_max_um * 1e-6, scan.n_points)
    theta, omega0, nbar = _single_ion_thetas(config, x, beam)
    rows = [(xi * 1e6, theta[k]) for k, xi in enumerate(x)]
    inputs = {
        "waist_nm": beam.waist * 1e9,
        "axial_freq_khz": omega0 / (2 * math.pi) / 1e3,
        "nbar": nbar,
    }
    write_table(args, ("x_um", "theta"), rows, inputs)


class _Recipe(NamedTuple):
    """One fit recipe: the CSV's x and y columns, the fit's name in
    :mod:`ionchain.fitting`, x converted to the fit's units, and the output
    parameters with the factor each is scaled by."""

    columns: tuple
    fit: str
    fit_x: Callable
    names: tuple
    scale: tuple


_FIT_RECIPES = {
    "beam": _Recipe(
        ("x_um", "signal"), "fit_beam_profile", lambda x: x,
        ("amplitude", "center_um", "waist_um"), (1.0, 1.0, 1.0),
    ),
    "rabi": _Recipe(
        ("t_us", "p1"), "fit_rabi_trace", lambda x: x * 1e-6,
        ("rabi_freq_khz", "theta"), (1.0 / (2 * math.pi * 1e3), 1.0),
    ),
    "theta-growth": _Recipe(
        ("tw_ms", "theta"), "fit_theta_growth", lambda x: x * 1e-3,
        ("theta0", "rate_per_s"), (1.0, 1.0),
    ),
    "power-law": _Recipe(
        ("freq_khz", "rate_per_s"), "fit_theta_power_law", lambda x: 2 * math.pi * x * 1e3,
        ("amplitude_rad_s", "alpha", "offset_per_s"), (1.0, 1.0, 1.0),
    ),
}


def cmd_fit(args, config) -> None:
    from . import fitting

    recipe = _FIT_RECIPES[args.recipe]
    header, rows = read_numeric_csv(args.data, recipe.columns, optional_sigma=True)
    data = np.array(rows)
    x, y = data[:, 0], data[:, 1]
    sigma = data[:, 2] if data.shape[1] > 2 else None
    result = getattr(fitting, recipe.fit)(recipe.fit_x(x), y, sigma)
    values = result.params * np.array(recipe.scale)
    sigmas = result.uncertainties * np.array(recipe.scale)

    payload = {
        "recipe": args.recipe,
        "parameters": {
            name: {"value": float(v), "sigma": float(s)}
            for name, v, s in zip(recipe.names, values, sigmas)
        },
        "reduced_chisq": float(result.reduced_chisq) if np.isfinite(result.reduced_chisq) else None,
        "converged": result.converged,
        "n_points": int(len(x)),
        "flags": list(result.flags),
    }
    write_json_payload(args, payload)
    if args.out is not None:
        weights = sigma if sigma is not None else np.ones_like(y)
        model_y = y + result.residuals * weights  # residuals are (model - y)/sigma
        res_cols = (header[0], header[1], "model", "residual")
        write_sibling_csv(args, ".residuals.csv", res_cols, zip(x, y, model_y, y - model_y))


def cmd_gate_fidelity(args, config) -> None:
    from .gates import gate_fidelity_bound, gate_fidelity_slope, spam_adjust_prediction

    gate = read_gate(config, args.tw_list)
    pair = (gate.ion_i, gate.ion_j)
    if gate.rates_per_s is None:
        from .heating import theta_rate

        species = build_species(config)
        potential, n_ions = build_potential(config)
        if max(pair) >= n_ions:
            raise ConfigError("gate ions outside the chain")
        noise = build_noise(config)
        beam = build_beam(config)
        if not isinstance(beam, GaussianBeam):
            raise ConfigError("derived theta rates require a gaussian beam")
        chain = find_equilibrium(species, potential, n_ions)
        modes = normal_modes(chain)
        # each addressed ion gets its own copy of the beam, offset from it by beam.center
        beams = {
            idx: GaussianBeam(beam.peak_rabi, chain.positions[idx] + beam.center, beam.waist)
            for idx in pair
        }
        all_rates = theta_rate(noise, modes, beams, chain.positions)
        gate.rates_per_s = [all_rates[idx] for idx in pair]
        _log("info", "derived theta rates: %s /s", gate.rates_per_s)

    rows = []
    for tw in gate.tw_list_ms:
        t = tw * 1e-3
        ti, tj = (theta0 + rate * t for theta0, rate in zip(gate.theta0, gate.rates_per_s))
        f_bound = gate_fidelity_bound([ti], [tj], gate.n_gates)
        f_spam = spam_adjust_prediction(f_bound, gate.spam_error)
        sigma_s = math.hypot(*gate.rate_sigmas_per_s) * t
        f_err = (1.0 - gate.spam_error) * gate_fidelity_slope(ti + tj, gate.n_gates) * sigma_s
        rows.append((tw, f_bound, f_spam, f_err))
    inputs = {
        "ion_i": gate.ion_i,
        "ion_j": gate.ion_j,
        "n_gates": gate.n_gates,
        "spam_error": gate.spam_error,
        "theta0": gate.theta0,
        "rates_per_s": [float(r) for r in gate.rates_per_s],
        "rate_sigmas_per_s": gate.rate_sigmas_per_s,
    }
    write_table(args, ("tw_ms", "F_bound", "F_spam", "F_err"), rows, inputs)


def cmd_scaling(args, config) -> None:
    from .heating import NoiseModel, gate_error_scaling, theta_rate

    scaling = read_scaling(config, args.n_list)
    n_list, spacing = scaling.n_list, scaling.spacing_um
    species = build_species(config)
    # only the ratio to the first chain's rate is output, so the noise
    # anchor and the beam's waist cancel
    noise = NoiseModel(scaling.alpha, nbar_rate_ref=1.0, omega_ref=1.0)

    rows = []
    ref = None
    for n in n_list:
        chain = find_equilibrium(species, EquispacedLogPotential(n, spacing * 1e-6))
        modes = normal_modes(chain)
        omega0 = modes.frequencies[0]
        if scaling.omega0_mode == "exact":
            center = n // 2
            beam = GaussianBeam(1.0, chain.positions[center], spacing * 1e-6)
            rate = theta_rate(noise, modes, {center: beam}, chain.positions)[center]
            if ref is None:
                ref = rate
            rel_error = (rate / ref) ** 2
        else:
            rel_error = gate_error_scaling(n, n_list[0], scaling.alpha)
        rows.append((n, omega0 / (2 * math.pi) / 1e3, rel_error))
    inputs = {"alpha": scaling.alpha, "omega0_mode": scaling.omega0_mode, "spacing_um": spacing}
    write_table(args, ("n_ions", "omega0_khz", "rel_gate_error"), rows, inputs)


def cmd_cooling(args, config) -> None:
    from .cooling import crosstalk_rate

    cfg = build_cooling(config)
    rate = crosstalk_rate(cfg)
    write_json_payload(
        args,
        {
            "crosstalk_rate_per_s": rate,
            "inputs": {
                "coolant_fraction": cfg.coolant_fraction,
                "spacing_um": cfg.spacing * 1e6,
                "wavelength_nm": cfg.wavelength * 1e9,
                "linewidth_mhz": cfg.linewidth / (2 * math.pi) / 1e6,
                "isotope_splitting_ghz": cfg.isotope_splitting / (2 * math.pi) / 1e9,
            },
            "note": (
                "Upper bound at unity repump saturation; dark-state cooling and "
                "elastic scattering typically reduce the true rate by an order "
                "of magnitude or more. Not applied numerically."
            ),
        },
    )


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def _comma_list(cast, what):
    def parse(text):
        try:
            return [cast(item) for item in text.split(",") if item.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}: {text!r}")

    return parse


class _Command(NamedTuple):
    """One subcommand: its function, its help line, whether it emits JSON
    only, whether it reads --config, and its own arguments as (name, options)."""

    run: Callable
    help: str
    json_only: bool = False
    needs_config: bool = True
    arguments: tuple = ()


_COMMANDS = {
    "modes": _Command(cmd_modes, "chain normal-mode table"),
    "rabi": _Command(cmd_rabi, "thermal Rabi trace", arguments=(
        ("--mc", dict(
            action="store_true", help="Monte-Carlo thermal average (default: closed form)"
        )),
    )),
    "theta-scan": _Command(cmd_theta_scan, "decay parameter vs position"),
    "fit": _Command(
        cmd_fit, "least-squares fits", json_only=True, needs_config=False, arguments=(
            ("recipe", dict(choices=tuple(_FIT_RECIPES))),
            ("data", dict(help="CSV data file")),
        ),
    ),
    "gate-fidelity": _Command(cmd_gate_fidelity, "fidelity bound vs wait time", arguments=(
        ("--tw-list", dict(type=_comma_list(float, "numbers"), help="wait times in ms")),
    )),
    "scaling": _Command(cmd_scaling, "lowest mode and gate error vs chain size", arguments=(
        ("--n-list", dict(type=_comma_list(int, "integers"), help="chain sizes")),
    )),
    "cooling": _Command(cmd_cooling, "cooling crosstalk bound", json_only=True),
}


def build_parser() -> argparse.ArgumentParser:
    json_only = " and ".join(name for name, command in _COMMANDS.items() if command.json_only)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="YAML run configuration")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, help="output file (default: stdout)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help=f"table output format (default csv; {json_only} are json)",
    )

    parser = argparse.ArgumentParser(
        prog="ionchain",
        description="Ion-chain modes, thermal Rabi decoherence and gate-fidelity bounds.",
    )
    parser.add_argument("--version", action="version", version=f"ionchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        parents = [config, common] if command.needs_config else [common]
        command_parser = sub.add_parser(name, parents=parents, help=command.help)
        for argument, options in command.arguments:
            command_parser.add_argument(argument, **options)
    return parser


def _configure_logging() -> None:
    """Send log records to stderr at the IONCHAIN_LOG level (default WARNING),
    importing ``logging`` only when that is set or already imported."""
    level = os.environ.get("IONCHAIN_LOG")
    if level is None and "logging" not in sys.modules:
        return
    import logging

    logging.basicConfig(
        level=getattr(logging, (level or "WARNING").upper(), logging.WARNING),
        stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    command = _COMMANDS[args.command]
    if args.format is None:
        args.format = "json" if command.json_only else "csv"
    try:
        if command.json_only and args.format == "csv":
            raise ConfigError(f"{args.command} emits JSON; use --format json (the default here)")
        if command.needs_config and not args.config:
            raise ConfigError("this command requires --config <file>")
        command.run(args, load_config(args.config) if command.needs_config else None)
        return EXIT_OK
    except ConfigError as exc:
        print(f"ionchain {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, UnstableChainError, DegenerateChainError, FitError) as exc:
        residual = getattr(exc, "residual", None)
        detail = "" if residual is None else f" (residual {residual:.3e})"
        print(f"ionchain {args.command}: numerical error: {exc}{detail}", file=sys.stderr)
        positions = getattr(exc, "positions", None)
        if positions is not None:
            _log(
                "debug",
                "solver positions at failure (%d ions, um): %s",
                len(positions),
                " ".join(f"{x * 1e6:.6g}" for x in positions),
            )
        return EXIT_NUMERICAL
    except InputError as exc:
        print(f"ionchain {args.command}: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"ionchain {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
