"""Run-configuration loading, schema validation and object construction.

Configurations are YAML mappings with one section per concern (species,
potential, beam, thermal, noise, rabi, scan, gate, scaling, cooling).  Keys
carry their unit in the name (``axial_freq_khz``, ``spacing_um``); unknown
sections or keys are rejected before any computation runs.  Frequencies given
in kHz/MHz/GHz refer to ordinary frequencies and are converted to angular
frequencies internally.
"""

from __future__ import annotations

import csv
import math
from typing import Any, Mapping

import numpy as np
import yaml

from .chain import (
    EquispacedLogPotential,
    HarmonicPotential,
    QuadQuarticPotential,
    TrapPotential,
)
from .constants import KNOWN_SPECIES, IonSpecies
from .cooling import CoolingConfig
from .decoherence import GaussianBeam, TabulatedBeam
from .errors import ConfigError
from .heating import NoiseModel

_NUMBER = (int, float)


def _require_mapping(obj, where: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(section: Mapping[str, Any], allowed, where: str):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _finite_float(value, name) -> float:
    """``value`` as a float; ConfigError if it is NaN, infinite or an integer
    beyond the float range."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def _get_number(section, key, where, required=False, default=None, positive=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    number = _finite_float(value, f"{where}.{key}")
    if positive and not number > 0:
        raise ConfigError(f"{where}.{key} must be positive, got {value}")
    return number


def _get_int(section, key, where, required=False, default=None, minimum=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {value}")
    return value


def _get_number_list(section, key, where, required=False, length=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {where}.{key}")
        return None
    value = section[key]
    if isinstance(value, _NUMBER) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}.{key} must be a non-empty list of numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, _NUMBER):
            raise ConfigError(f"{where}.{key}[{i}] must be a number, got {item!r}")
        out.append(_finite_float(item, f"{where}.{key}[{i}]"))
    if length is not None and len(out) != length:
        raise ConfigError(f"{where}.{key} must have length {length}, got {len(out)}")
    return out


def read_numeric_csv(path, expected=None, optional_sigma=False):
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
            if expected is not None:
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


KNOWN_SECTIONS = (
    "species",
    "potential",
    "beam",
    "thermal",
    "noise",
    "rabi",
    "scan",
    "gate",
    "scaling",
    "cooling",
)


def load_config(path) -> dict:
    """Read and structurally validate a YAML run configuration."""
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
    _check_keys(config, KNOWN_SECTIONS, "config")
    for name in config:
        _require_mapping(config[name], f"config.{name}")
    return dict(config)


def require_section(config: Mapping, name: str) -> Mapping[str, Any]:
    if name not in config:
        raise ConfigError(f"command requires a '{name}' section in the config")
    return config[name]


def build_species(config: Mapping) -> IonSpecies:
    section = require_section(config, "species")
    _check_keys(section, ("label", "mass_amu", "charge"), "species")
    label = section.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"species.label must be a string, got {label!r}")
    mass_amu = _get_number(section, "mass_amu", "species", positive=True)
    charge = _get_int(section, "charge", "species", default=1, minimum=1)
    if mass_amu is not None:
        return IonSpecies.from_amu(mass_amu, charge=charge, label=label or "")
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
    section = require_section(config, "potential")
    kind = section.get("kind")
    if kind == "harmonic":
        _check_keys(section, ("kind", "axial_freq_khz", "n_ions"), "potential")
        freq = _get_number(section, "axial_freq_khz", "potential", required=True, positive=True)
        n_ions = _get_int(section, "n_ions", "potential", default=1, minimum=1)
        return HarmonicPotential(omega0=2 * math.pi * freq * 1e3), n_ions
    if kind == "equispaced_log":
        _check_keys(section, ("kind", "n_ions", "spacing_um"), "potential")
        n_ions = _get_int(section, "n_ions", "potential", required=True, minimum=2)
        spacing = _get_number(section, "spacing_um", "potential", required=True, positive=True)
        return EquispacedLogPotential(n_ions=n_ions, spacing=spacing * 1e-6), n_ions
    if kind == "quad_quartic":
        _check_keys(section, ("kind", "a2_j_per_m2", "a4_j_per_m4", "n_ions"), "potential")
        a2 = _get_number(section, "a2_j_per_m2", "potential", default=0.0)
        a4 = _get_number(section, "a4_j_per_m4", "potential", default=0.0)
        n_ions = _get_int(section, "n_ions", "potential", default=1, minimum=1)
        return QuadQuarticPotential(a2=a2, a4=a4), n_ions
    raise ConfigError(
        "potential.kind must be one of harmonic, equispaced_log, quad_quartic; "
        f"got {kind!r}"
    )


def build_beam(config: Mapping):
    """Beam from the beam section.  A gaussian beam gets unit peak Rabi
    frequency: theta depends only on the curvature ratio Omega''/Omega."""
    section = require_section(config, "beam")
    kind = section.get("kind", "gaussian")
    if kind == "gaussian":
        _check_keys(section, ("kind", "waist_nm", "center_um"), "beam")
        waist = _get_number(section, "waist_nm", "beam", required=True, positive=True)
        center = _get_number(section, "center_um", "beam", default=0.0)
        return GaussianBeam(peak_rabi=1.0, center=center * 1e-6, waist=waist * 1e-9)
    if kind == "tabulated":
        _check_keys(section, ("kind", "csv"), "beam")
        path = section.get("csv")
        if not isinstance(path, str):
            raise ConfigError("beam.csv must be a file path string")
        columns, rows = read_numeric_csv(path, expected=("x_um", "rabi_khz"))
        x = np.array([r[0] for r in rows]) * 1e-6
        rabi = np.array([r[1] for r in rows]) * 2 * math.pi * 1e3
        return TabulatedBeam(x, rabi)
    raise ConfigError(f"beam.kind must be gaussian or tabulated, got {kind!r}")


def build_noise(config: Mapping) -> NoiseModel:
    section = require_section(config, "noise")
    _check_keys(
        section,
        (
            "alpha",
            "reference_rate_quanta_per_s",
            "reference_freq_mhz",
            "offset_per_s",
        ),
        "noise",
    )
    alpha = _get_number(section, "alpha", "noise", required=True)
    rate = _get_number(section, "reference_rate_quanta_per_s", "noise", required=True)
    ref_mhz = _get_number(section, "reference_freq_mhz", "noise", required=True, positive=True)
    offset = _get_number(section, "offset_per_s", "noise", default=0.0)
    return NoiseModel(
        alpha=alpha,
        nbar_rate_ref=rate,
        omega_ref=2 * math.pi * ref_mhz * 1e6,
        offset=offset,
    )


def build_thermal_nbar(config: Mapping) -> float:
    """The single-ion occupancy from the thermal section: a number or a
    one-entry list."""
    section = require_section(config, "thermal")
    _check_keys(section, ("nbar",), "thermal")
    return _get_number_list(section, "nbar", "thermal", required=True, length=1)[0]


def build_cooling(config: Mapping) -> CoolingConfig:
    section = require_section(config, "cooling")
    _check_keys(
        section,
        (
            "coolant_fraction",
            "spacing_um",
            "wavelength_nm",
            "linewidth_mhz",
            "isotope_splitting_ghz",
        ),
        "cooling",
    )
    fraction = _get_number(section, "coolant_fraction", "cooling", required=True)
    spacing = _get_number(section, "spacing_um", "cooling", required=True, positive=True)
    wavelength = _get_number(section, "wavelength_nm", "cooling", required=True, positive=True)
    linewidth = _get_number(section, "linewidth_mhz", "cooling", required=True, positive=True)
    splitting = _get_number(
        section, "isotope_splitting_ghz", "cooling", required=True, positive=True
    )
    return CoolingConfig(
        coolant_fraction=fraction,
        spacing=spacing * 1e-6,
        wavelength=wavelength * 1e-9,
        linewidth=2 * math.pi * linewidth * 1e6,
        isotope_splitting=2 * math.pi * splitting * 1e9,
    )
