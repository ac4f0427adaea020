"""Four-mode bright squeezed-vacuum Bell states in truncated Fock space.

Polarization Bell states carrying macroscopic photon numbers: state
construction and transformation, Stokes-operator algebra, variance
witnesses, entanglement measures, truncation-error budgets, and a
reproducible Monte-Carlo photocounting experiment.
"""

__version__ = "0.1.0"

from .basis import FourModeBasis
from .states import (
    BellLabel,
    FourModeState,
    InputError,
    NumericError,
    TruncationMassError,
    build_bell_state,
    geometric_ratio,
    mean_photons_per_mode,
    schmidt_spectrum,
)
from .polarization import (
    BasisTransform,
    apply_transform,
    half_wave_plate,
    identify_bell_state,
    pi_phase_on_bh,
    polarization_rotator,
    quarter_wave_plate,
)
from .stokes import expectation, variance_of_combination
from .witnesses import (
    WitnessKind,
    WitnessReport,
    cross_witness_matrix,
    cutoff_for_edge_mass,
    evaluate_witness,
    matched_witness,
)
from .measures import (
    WidthConvention,
    fedorov_ratio,
    gain_scan,
    kbar,
    log_negativity,
    negativity,
    trace_norm,
)
from .truncation import (
    CompressionPoint,
    alpha_from_epsilon,
    compression_scan,
    cutoff_for_epsilon,
    dimension_scan,
    epsilon_from_cutoff,
    occupancy_at_epsilon,
    subspace_dimension,
    truncated_kbar,
)
from .simulate import (
    FedorovEstimate,
    SimConfig,
    SweepPoint,
    SweepResult,
    efficiency_sweep,
    estimate_fedorov,
    estimate_witness,
    witness_under_loss,
)

__all__ = [
    "__version__",
    "FourModeBasis",
    "BellLabel", "FourModeState", "InputError", "NumericError", "TruncationMassError",
    "build_bell_state", "geometric_ratio",
    "mean_photons_per_mode", "schmidt_spectrum",
    "BasisTransform", "apply_transform", "half_wave_plate",
    "identify_bell_state", "pi_phase_on_bh", "polarization_rotator",
    "quarter_wave_plate",
    "expectation", "variance_of_combination",
    "WitnessKind", "WitnessReport", "cross_witness_matrix",
    "cutoff_for_edge_mass", "evaluate_witness", "matched_witness",
    "WidthConvention", "fedorov_ratio", "gain_scan", "kbar",
    "log_negativity", "negativity", "trace_norm",
    "CompressionPoint", "alpha_from_epsilon", "compression_scan",
    "cutoff_for_epsilon", "dimension_scan", "epsilon_from_cutoff",
    "occupancy_at_epsilon", "subspace_dimension", "truncated_kbar",
    "FedorovEstimate", "SimConfig", "SweepPoint", "SweepResult",
    "efficiency_sweep", "estimate_fedorov", "estimate_witness", "witness_under_loss",
]
