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

Each command returns one :class:`_Output` record and writes nothing;
:func:`main` writes it, the table as CSV or the whole record as JSON, to
--out or stdout, and with --out each sibling table next to it as
``<stem><suffix>`` (``modes`` the participation matrix, ``fit`` the
residuals), whatever the format.  A command that fails writes no file.

Outputs are deterministic: identical config and seed give byte-identical
files.  Exit codes: 0 success, 2 input or configuration error, 3 numerical
or solver failure.  Set IONCHAIN_LOG=DEBUG (or INFO, ...) for diagnostics on
standard error.

Imports: the chain solver, the decay parameters and the config readers,
which most commands run, are imported here, so every command loads them:
``fit`` and ``cooling`` load the chain solver, and ``modes`` the decay
parameters, without running them.  The fits, gate bounds, heating and
cooling models are imported inside the commands that use them, and
``logging`` only when IONCHAIN_LOG is set or the process already has it.
Importing the first three inside the commands too raised the peak RSS of a
``modes`` or ``rabi`` process by about 0.7 MiB, so they stay here.

Garbage collection: what a command process allocates at import time (numpy,
PyYAML, the ``ionchain`` modules) lives until exit, so the cyclic
collector's passes over it find nothing.  Run as ``python -m ionchain.cli``,
this module disables the collector before its first heavy import, for the
whole command.  :func:`entrypoint` freezes every tracked object
(``gc.freeze``) once :func:`main` returns, so the collections of
interpreter teardown skip them; the process still exits through
``sys.exit``, so atexit handlers, logging shutdown and the flush of stdout
and stderr run as usual.  The ``ionchain`` console script imports this
module under its own name, so it gets the freeze only.  :func:`main` leaves
the collector alone, so tests and notebooks can call it in process.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()

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
from .errors import ConfigError, InputError, IonChainError

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


class _Output(NamedTuple):
    """What a command computed.  ``fields`` go into JSON output only, after
    the table's ``columns`` and ``rows`` when the command has one; each of
    ``siblings`` maps a file-name suffix to the ``(columns, rows)`` of a CSV
    table written next to --out."""

    fields: dict
    columns: tuple = ()
    rows: list = []
    siblings: dict = {}


def _write(args, output: _Output) -> None:
    """Write ``output`` as CSV, or as JSON after the run's provenance, to
    --out or stdout; with --out, write each sibling as ``<stem><suffix>``."""
    if args.format == "json":
        import json

        provenance = dict(tool="ionchain", version=__version__, command=args.command,
                          seed=args.seed)
        rows = [[float(v) for v in row] for row in output.rows]
        table = {"columns": list(output.columns), "rows": rows} if output.columns else {}
        text = json.dumps({"provenance": provenance, **table, **output.fields}, indent=2) + "\n"
    else:
        text = render_csv(output.columns, output.rows)
    if args.out is None:
        sys.stdout.write(text)
        return
    args.out.write_text(text, encoding="utf-8")
    for suffix, (columns, rows) in output.siblings.items():
        sibling = args.out.with_name(args.out.stem + suffix)
        sibling.write_text(render_csv(columns, rows), encoding="utf-8")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_modes(args, config) -> _Output:
    species = build_species(config)
    potential, n_ions = build_potential(config)
    chain = find_equilibrium(species, potential, n_ions)
    modes = normal_modes(chain)
    freq_khz = modes.frequencies / (2 * math.pi) / 1e3
    rows = list(zip(range(modes.n_modes), freq_khz, modes.uniform_drive_weights()))
    inputs = {
        "species": species.label or read_section(config, "species").mass_amu,
        "potential": type(potential).__name__,
        "n_ions": n_ions,
    }
    part_cols = ["ion_index"] + [f"mode_{m}" for m in range(modes.n_modes)]
    part_rows = [[i, *modes.participation[i]] for i in range(modes.n_ions)]
    return _Output(
        {"inputs": inputs, "participation": modes.participation.tolist()},
        ("mode_index", "freq_khz", "participation_sum_sq"),
        rows,
        {".participation.csv": (part_cols, part_rows)},
    )


def _single_ion_thetas(config, positions, beam):
    """Decay parameter of a single ion in a harmonic trap at each position x
    (m) in ``beam``, from :func:`decay_parameters`, as an array."""
    species = build_species(config)
    potential, n_ions = build_potential(config)
    if not isinstance(potential, HarmonicPotential) or n_ions != 1:
        raise ConfigError(
            "deriving theta needs a single ion in a harmonic potential (plus "
            "beam and thermal sections); the rabi command also accepts rabi.theta"
        )
    modes = single_ion_modes(species, potential.omega0)
    thermal = ThermalState(read_section(config, "thermal").nbar[0])
    theta = [decay_parameters(modes, thermal, {0: beam}, [x])[0, 0] for x in positions]
    return np.array(theta)


def cmd_rabi(args, config) -> _Output:
    rabi = read_section(config, "rabi")
    if rabi.theta is None:
        rabi.theta = _single_ion_thetas(config, [0.0], build_beam(config))
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
    return _Output({"inputs": inputs}, tuple(columns), list(zip(*columns.values())))


def cmd_theta_scan(args, config) -> _Output:
    scan = read_scan(config)
    beam = build_beam(config)
    if not isinstance(beam, GaussianBeam):
        raise ConfigError("theta-scan requires a gaussian beam")
    x = np.linspace(scan.x_min_um * 1e-6, scan.x_max_um * 1e-6, scan.n_points)
    theta = _single_ion_thetas(config, x, beam)
    rows = [(xi * 1e6, theta[k]) for k, xi in enumerate(x)]
    inputs = {
        "waist_nm": read_section(config, "beam").waist_nm,
        "axial_freq_khz": read_section(config, "potential").axial_freq_khz,
        "nbar": read_section(config, "thermal").nbar[0],
    }
    return _Output({"inputs": inputs}, ("x_um", "theta"), rows)


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


def cmd_fit(args, config) -> _Output:
    from . import fitting

    recipe = _FIT_RECIPES[args.recipe]
    header, rows = read_numeric_csv(args.data, recipe.columns, optional_sigma=True)
    data = np.array(rows)
    x, y = data[:, 0], data[:, 1]
    sigma = data[:, 2] if data.shape[1] > 2 else None
    result = getattr(fitting, recipe.fit)(recipe.fit_x(x), y, sigma)
    values = result.params * np.array(recipe.scale)
    sigmas = result.uncertainties * np.array(recipe.scale)

    fields = {
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
    weights = sigma if sigma is not None else np.ones_like(y)
    model_y = y + result.residuals * weights  # residuals are (model - y)/sigma
    residuals = (header[0], header[1], "model", "residual"), list(zip(x, y, model_y, y - model_y))
    return _Output(fields, siblings={".residuals.csv": residuals})


def cmd_gate_fidelity(args, config) -> _Output:
    from .gates import _gate_angle, gate_fidelity_vs_wait

    gate = read_gate(config, args.tw_list)
    _gate_angle(gate.n_gates)  # an overflowing count is rejected before any solve
    pair = (gate.ion_i, gate.ion_j)
    if gate.rates_per_s is None:
        from .heating import addressed_theta_rates

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
        gate.rates_per_s = addressed_theta_rates(noise, modes, chain.positions, beam, pair).tolist()
        _log("info", "derived theta rates: %s /s", gate.rates_per_s)

    table = gate_fidelity_vs_wait(
        gate.theta0, gate.rates_per_s, gate.rate_sigmas_per_s,
        [tw * 1e-3 for tw in gate.tw_list_ms], gate.n_gates, gate.spam_error,
    )
    rows = [(tw, *row) for tw, row in zip(gate.tw_list_ms, table)]
    inputs = {
        "ion_i": gate.ion_i,
        "ion_j": gate.ion_j,
        "n_gates": gate.n_gates,
        "spam_error": gate.spam_error,
        "theta0": gate.theta0,
        "rates_per_s": gate.rates_per_s,
        "rate_sigmas_per_s": gate.rate_sigmas_per_s,
    }
    return _Output({"inputs": inputs}, ("tw_ms", "F_bound", "F_spam", "F_err"), rows)


def cmd_scaling(args, config) -> _Output:
    from .heating import NoiseModel, addressed_theta_rates, gate_error_scaling

    scaling = read_scaling(config, args.n_list)
    n_list, spacing = scaling.n_list, scaling.spacing_um
    species = build_species(config)
    # only the ratio to the first chain's rate is output, so the noise
    # anchor and the beam's waist cancel
    noise = NoiseModel(scaling.alpha, nbar_rate_ref=1.0, omega_ref=1.0)
    beam = GaussianBeam(1.0, 0.0, spacing * 1e-6)

    rows = []
    ref = None
    for n in n_list:
        chain = find_equilibrium(species, EquispacedLogPotential(n, spacing * 1e-6))
        modes = normal_modes(chain)
        omega0 = modes.frequencies[0]
        if scaling.omega0_mode == "exact":
            [rate] = addressed_theta_rates(noise, modes, chain.positions, beam, [n // 2]).tolist()
            if ref is None:
                ref = rate
            rel_error = (rate / ref) ** 2
        else:
            rel_error = gate_error_scaling(n, n_list[0], scaling.alpha)
        rows.append((n, omega0 / (2 * math.pi) / 1e3, rel_error))
    inputs = {"alpha": scaling.alpha, "omega0_mode": scaling.omega0_mode, "spacing_um": spacing}
    return _Output({"inputs": inputs}, ("n_ions", "omega0_khz", "rel_gate_error"), rows)


def cmd_cooling(args, config) -> _Output:
    from .cooling import crosstalk_rate

    rate = crosstalk_rate(build_cooling(config))
    cooling = read_section(config, "cooling")
    return _Output({
        "crosstalk_rate_per_s": rate,
        "inputs": {
            "coolant_fraction": cooling.coolant_fraction,
            "spacing_um": cooling.spacing_um,
            "wavelength_nm": cooling.wavelength_nm,
            "linewidth_mhz": cooling.linewidth_mhz,
            "isotope_splitting_ghz": cooling.isotope_splitting_ghz,
        },
        "note": (
            "Upper bound at unity repump saturation; dark-state cooling and "
            "elastic scattering typically reduce the true rate by an order "
            "of magnitude or more. Not applied numerically."
        ),
    })


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
        _write(args, command.run(args, load_config(args.config) if command.needs_config else None))
        return EXIT_OK
    except ConfigError as exc:
        print(f"ionchain {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"ionchain {args.command}: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IonChainError as exc:
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
    except OSError as exc:
        print(f"ionchain {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
