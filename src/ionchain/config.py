"""Run-configuration loading, schema validation and object construction.

Configurations are YAML mappings with one section per concern (species,
potential, beam, thermal, noise, rabi, scan, gate, scaling, cooling).  Keys
carry their unit in the name (``axial_freq_khz``, ``spacing_um``).  Each
section (each ``kind`` of potential and beam) is declared once, every key
with its type, default or requirement and range; one reader checks a section
against its declaration, rejects unknown keys and returns a record named by
its keys.  Every value check runs before any chain is solved.  Frequencies
given in kHz/MHz/GHz are ordinary frequencies, converted to angular ones.
"""

from __future__ import annotations

import csv
import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

import numpy as np

from .chain import (
    EquispacedLogPotential,
    HarmonicPotential,
    QuadQuarticPotential,
    TrapPotential,
)
from .constants import KNOWN_SPECIES, IonSpecies
from .decoherence import GaussianBeam, TabulatedBeam
from .errors import ConfigError

if TYPE_CHECKING:
    from .cooling import CoolingConfig
    from .heating import NoiseModel

_NUMBER = (int, float)


class _Key(NamedTuple):
    """One config key: its type (float, int, str, list of floats, or a tuple
    of the allowed strings), whether it must be given, its default and range."""

    type: Any
    required: bool = False
    default: Any = None
    positive: bool = False
    minimum: int | None = None
    length: int | None = None


# Every key of every section, declared once; the sections of _DEFAULT_KIND
# declare their keys per kind.
_SECTIONS = {
    "species": {
        "label": _Key(str),
        "mass_amu": _Key(float, positive=True),
        "charge": _Key(int, default=1, minimum=1),
    },
    "potential": {
        "harmonic": {
            "axial_freq_khz": _Key(float, required=True, positive=True),
            "n_ions": _Key(int, default=1, minimum=1),
        },
        "equispaced_log": {
            "n_ions": _Key(int, required=True, minimum=2),
            "spacing_um": _Key(float, required=True, positive=True),
        },
        "quad_quartic": {
            "a2_j_per_m2": _Key(float, default=0.0),
            "a4_j_per_m4": _Key(float, default=0.0),
            "n_ions": _Key(int, default=1, minimum=1),
        },
    },
    "beam": {
        "gaussian": {
            "waist_nm": _Key(float, required=True, positive=True),
            "center_um": _Key(float, default=0.0),
        },
        "tabulated": {"csv": _Key(str, required=True)},
    },
    "thermal": {"nbar": _Key(list, required=True, length=1)},
    "noise": {
        "alpha": _Key(float, required=True),
        "reference_rate_quanta_per_s": _Key(float, required=True),
        "reference_freq_mhz": _Key(float, required=True, positive=True),
        "offset_per_s": _Key(float, default=0.0),
    },
    "rabi": {
        "drive_khz": _Key(float, required=True, positive=True),
        "t_max_us": _Key(float, required=True, positive=True),
        "n_points": _Key(int, default=200, minimum=2),
        "n_samples": _Key(int, default=100_000, minimum=2),
        "theta": _Key(list),
    },
    "scan": {
        "x_min_um": _Key(float, required=True),
        "x_max_um": _Key(float, required=True),
        "n_points": _Key(int, default=121, minimum=2),
    },
    "gate": {
        "ion_i": _Key(int, required=True, minimum=0),
        "ion_j": _Key(int, required=True, minimum=0),
        "n_gates": _Key(int, default=1, minimum=1),
        "spam_error": _Key(float, default=0.0),
        "theta0": _Key(list, default=[0.0, 0.0], length=2),
        "rates_per_s": _Key(list, length=2),
        "rate_sigmas_per_s": _Key(list, default=[0.0, 0.0], length=2),
        "tw_list_ms": _Key(list),
    },
    "scaling": {
        "n_list": _Key(list, required=True),
        "alpha": _Key(float, required=True),
        "omega0_mode": _Key(("exact", "inverse_n"), default="exact"),
        "spacing_um": _Key(float, required=True, positive=True),
    },
    "cooling": {
        "coolant_fraction": _Key(float, required=True),
        "spacing_um": _Key(float, required=True, positive=True),
        "wavelength_nm": _Key(float, required=True, positive=True),
        "linewidth_mhz": _Key(float, required=True, positive=True),
        "isotope_splitting_ghz": _Key(float, required=True, positive=True),
    },
}

_DEFAULT_KIND = {"potential": None, "beam": "gaussian"}


def _require_mapping(obj, where: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _number(value, name) -> float:
    """``value`` as a finite float; an integer beyond the float range is infinite."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def _value(section, key: str, spec: _Key, where: str):
    """The value of ``key`` in ``section`` checked against ``spec``."""
    name = f"{where}.{key}"
    if key not in section:
        if spec.required:
            raise ConfigError(f"missing required key {name}")
        # a list default is copied, so records never share (and mutate) it
        return list(spec.default) if isinstance(spec.default, list) else spec.default
    value = section[key]
    if spec.type is list:
        if isinstance(value, _NUMBER) and not isinstance(value, bool):
            value = [value]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list of numbers")
        out = [_number(item, f"{name}[{i}]") for i, item in enumerate(value)]
        if spec.length is not None and len(out) != spec.length:
            raise ConfigError(f"{name} must have length {spec.length}, got {len(out)}")
        return out
    if isinstance(spec.type, tuple):
        if value not in spec.type:
            raise ConfigError(f"{name} must be one of {', '.join(spec.type)}; got {value!r}")
        return value
    if spec.type is str:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if spec.type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if spec.minimum is not None and value < spec.minimum:
            raise ConfigError(f"{name} must be >= {spec.minimum}, got {value}")
        return value
    number = _number(value, name)
    if spec.positive and not number > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return number


def read_section(config: Mapping, name: str, **overrides) -> SimpleNamespace:
    """Section ``name`` checked against its declaration, as a record with one
    attribute per declared key, and ``kind`` for a section with kinds.
    Overrides that are not None replace the section's value of the same key."""
    if name not in config:
        raise ConfigError(f"command requires a '{name}' section in the config")
    section = config[name]
    keys = allowed = _SECTIONS[name]
    record = SimpleNamespace()
    if name in _DEFAULT_KIND:
        default = _DEFAULT_KIND[name]
        record.kind = _value(section, "kind", _Key(tuple(keys), default is None, default), name)
        keys = keys[record.kind]
        allowed = {"kind", *keys}
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    section = {**section, **{k: v for k, v in overrides.items() if v is not None}}
    vars(record).update((key, _value(section, key, spec, name)) for key, spec in keys.items())
    return record


def read_numeric_csv(path, expected, optional_sigma=False):
    """Read a small numeric CSV with a header row.

    Returns (header, rows of floats).  Raises ConfigError with row/column
    diagnostics on missing files, bad headers or non-numeric cells.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError(f"{path}: empty file")
            header = [h.strip() for h in header]
            want = list(expected)
            ok = header[: len(want)] == want and (
                len(header) == len(want)
                or (optional_sigma and header[len(want):] == ["sigma"])
            )
            if not ok:
                suffix = " [,sigma]" if optional_sigma else ""
                raise ConfigError(
                    f"{path}: expected header {','.join(want)}{suffix}, "
                    f"got {','.join(header)}"
                )
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise ConfigError(
                        f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}"
                    )
                values = []
                for col_no, cell in enumerate(row, start=1):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise ConfigError(
                            f"{path}: non-numeric value {cell!r} at row {line_no}, "
                            f"column {col_no} ({header[col_no - 1]})"
                        )
                rows.append(values)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return header, rows


def load_config(path) -> dict:
    """Read and structurally validate a YAML run configuration."""
    import yaml  # only the commands that read a config pay for the parser

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    if raw is None:
        raw = {}
    config = _require_mapping(raw, "config")
    unknown = sorted(set(config) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown key(s) in config: {', '.join(unknown)}")
    for name in config:
        _require_mapping(config[name], f"config.{name}")
    return dict(config)


def build_species(config: Mapping) -> IonSpecies:
    species = read_section(config, "species")
    label, charge = species.label, species.charge
    if species.mass_amu is not None:
        return IonSpecies.from_amu(species.mass_amu, charge=charge, label=label or "")
    if label is None:
        raise ConfigError("species needs either a known label or mass_amu")
    if label not in KNOWN_SPECIES:
        known = ", ".join(sorted(KNOWN_SPECIES))
        raise ConfigError(f"unknown species label {label!r}; known: {known}")
    base = KNOWN_SPECIES[label]
    if charge != base.charge:
        return IonSpecies(mass=base.mass, charge=charge, label=label)
    return base


def build_potential(config: Mapping) -> tuple[TrapPotential, int]:
    """Return (potential, n_ions) from the potential section."""
    p = read_section(config, "potential")
    if p.kind == "harmonic":
        return HarmonicPotential(omega0=2 * math.pi * p.axial_freq_khz * 1e3), p.n_ions
    if p.kind == "equispaced_log":
        return EquispacedLogPotential(n_ions=p.n_ions, spacing=p.spacing_um * 1e-6), p.n_ions
    return QuadQuarticPotential(a2=p.a2_j_per_m2, a4=p.a4_j_per_m4), p.n_ions


def build_beam(config: Mapping):
    """Beam from the beam section.  A gaussian beam gets unit peak Rabi
    frequency: theta depends only on the curvature ratio Omega''/Omega."""
    beam = read_section(config, "beam")
    if beam.kind == "gaussian":
        return GaussianBeam(peak_rabi=1.0, center=beam.center_um * 1e-6, waist=beam.waist_nm * 1e-9)
    x_um, rabi_khz = np.array(read_numeric_csv(beam.csv, ("x_um", "rabi_khz"))[1]).T
    return TabulatedBeam(x_um * 1e-6, rabi_khz * 2 * math.pi * 1e3)


def build_noise(config: Mapping) -> NoiseModel:
    from .heating import NoiseModel

    noise = read_section(config, "noise")
    return NoiseModel(
        alpha=noise.alpha,
        nbar_rate_ref=noise.reference_rate_quanta_per_s,
        omega_ref=2 * math.pi * noise.reference_freq_mhz * 1e6,
        offset=noise.offset_per_s,
    )


def build_cooling(config: Mapping) -> CoolingConfig:
    from .cooling import CoolingConfig

    cooling = read_section(config, "cooling")
    return CoolingConfig(
        coolant_fraction=cooling.coolant_fraction,
        spacing=cooling.spacing_um * 1e-6,
        wavelength=cooling.wavelength_nm * 1e-9,
        linewidth=2 * math.pi * cooling.linewidth_mhz * 1e6,
        isotope_splitting=2 * math.pi * cooling.isotope_splitting_ghz * 1e9,
    )


def read_scan(config: Mapping) -> SimpleNamespace:
    """The scan section, checked."""
    scan = read_section(config, "scan")
    if not scan.x_max_um > scan.x_min_um:
        raise ConfigError("scan.x_max_um must exceed scan.x_min_um")
    return scan


def read_gate(config: Mapping, wait_times_ms=None) -> SimpleNamespace:
    """The gate section, checked; given ``wait_times_ms`` replace the
    section's wait times."""
    gate = read_section(config, "gate", tw_list_ms=wait_times_ms)
    if gate.ion_i == gate.ion_j:
        raise ConfigError("gate.ion_i and gate.ion_j must differ")
    if not 0.0 <= gate.spam_error < 1.0:
        raise ConfigError("gate.spam_error must lie in [0, 1)")
    if any(s < 0 for s in gate.rate_sigmas_per_s):
        raise ConfigError("gate.rate_sigmas_per_s must be >= 0")
    if gate.tw_list_ms is None:
        raise ConfigError("provide --tw-list or gate.tw_list_ms")
    if any(tw < 0 for tw in gate.tw_list_ms):
        raise ConfigError("wait times must be >= 0")
    return gate


def read_scaling(config: Mapping, chain_sizes=None) -> SimpleNamespace:
    """The scaling section, checked, with the chain sizes as ints; given
    ``chain_sizes`` replace the section's."""
    scaling = read_section(config, "scaling", n_list=chain_sizes)
    n_list = [int(n) for n in scaling.n_list]
    if n_list != scaling.n_list:
        raise ConfigError("scaling.n_list must contain integers")
    if any(n < 2 for n in n_list):
        raise ConfigError("scaling.n_list entries must be >= 2")
    if not 0.0 <= scaling.alpha <= 2.0:
        raise ConfigError("scaling.alpha must lie in [0, 2]")
    scaling.n_list = n_list
    return scaling
