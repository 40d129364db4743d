"""Thermal-motion decoherence modeling for individually addressed ion chains.

Provides chain normal modes for several axial confinement models, decay
parameters and thermally averaged Rabi traces for tightly focused addressing
beams, power-law heating of the decay parameters with wait time, two-qubit
gate-fidelity bounds with SPAM handling, the sympathetic-cooling crosstalk
bound, and the weighted least-squares recipes used to fit measured data.
"""

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
    in_phase_theta,
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
    gate_error_scaling,
    heating_rate_at,
    theta_rate,
    theta_rate_model,
)

__version__ = "0.1.0"
