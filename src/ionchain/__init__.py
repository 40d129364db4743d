"""Thermal-motion decoherence modeling for individually addressed ion chains.

Provides chain normal modes for several axial confinement models, decay
parameters and thermally averaged Rabi traces for tightly focused addressing
beams, power-law heating of the decay parameters with wait time, two-qubit
gate-fidelity bounds with SPAM handling, the sympathetic-cooling crosstalk
bound, and the weighted least-squares recipes used to fit measured data.

The names below load their module on first use (PEP 562), so ``import
ionchain`` loads none of the package's modules: a CLI command or a script
pays only for the modules it runs.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .chain import (
        EquilibriumChain,
        EquispacedLogPotential,
        HarmonicPotential,
        ModeDecomposition,
        QuadQuarticPotential,
        TrapPotential,
        find_equilibrium,
        hessian_matrix,
        normal_modes,
        single_ion_modes,
        spacing_deviation,
    )
    from .constants import AMU, ECHARGE, EPSILON0, HBAR, KNOWN_SPECIES, YB171, IonSpecies
    from .cooling import CoolingConfig, crosstalk_rate
    from .decoherence import (
        BeamProfile,
        GaussianBeam,
        MonteCarloRabiTrace,
        RabiTrace,
        TabulatedBeam,
        ThermalState,
        decay_parameters,
        rabi_trace,
        rabi_trace_monte_carlo,
        zero_point_spread,
    )
    from .errors import (
        ConfigError,
        DegenerateChainError,
        DomainError,
        FitError,
        InputError,
        IonChainError,
        LowOccupancyWarning,
        SolverError,
        UnstableChainError,
    )
    from .fitting import (
        DataSeries,
        FitResult,
        fit_beam_profile,
        fit_least_squares,
        fit_rabi_trace,
        fit_theta_growth,
        fit_theta_power_law,
    )
    from .gates import (
        GateFidelityEstimate,
        gate_fidelity_bound,
        gate_fidelity_monte_carlo,
        spam_adjust_prediction,
    )
    from .heating import (
        NoiseModel,
        addressed_theta_rates,
        gate_error_scaling,
        heating_rate_at,
        theta_rate,
        theta_rate_model,
    )

__version__ = "0.1.0"

_EXPORTS = {
    "chain": (
        "EquilibriumChain", "EquispacedLogPotential", "HarmonicPotential", "ModeDecomposition",
        "QuadQuarticPotential", "TrapPotential", "find_equilibrium", "hessian_matrix",
        "normal_modes", "single_ion_modes", "spacing_deviation",
    ),
    "constants": ("AMU", "ECHARGE", "EPSILON0", "HBAR", "KNOWN_SPECIES", "YB171", "IonSpecies"),
    "cooling": ("CoolingConfig", "crosstalk_rate"),
    "decoherence": (
        "BeamProfile", "GaussianBeam", "MonteCarloRabiTrace", "RabiTrace", "TabulatedBeam",
        "ThermalState", "decay_parameters", "rabi_trace", "rabi_trace_monte_carlo",
        "zero_point_spread",
    ),
    "errors": (
        "ConfigError", "DegenerateChainError", "DomainError", "FitError", "InputError",
        "IonChainError", "LowOccupancyWarning", "SolverError", "UnstableChainError",
    ),
    "fitting": (
        "DataSeries", "FitResult", "fit_beam_profile", "fit_least_squares", "fit_rabi_trace",
        "fit_theta_growth", "fit_theta_power_law",
    ),
    "gates": (
        "GateFidelityEstimate", "gate_fidelity_bound", "gate_fidelity_monte_carlo",
        "spam_adjust_prediction",
    ),
    "heating": (
        "NoiseModel", "addressed_theta_rates", "gate_error_scaling", "heating_rate_at",
        "theta_rate", "theta_rate_model",
    ),
}
"""The package's modules and the names each one exports, as imported above."""

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name's module (or a submodule) on first use; the
    name is then bound here, so later lookups skip this function."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
