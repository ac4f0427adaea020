"""Four-mode bright squeezed-vacuum Bell states in truncated Fock space.

Polarization Bell states carrying macroscopic photon numbers: state
construction and transformation, Stokes-operator algebra, variance
witnesses, entanglement measures, truncation-error budgets, and a
reproducible Monte-Carlo photocounting experiment.

``import macrobell`` loads nothing else: each public name, and each
submodule below (``macrobell.simulate``), is imported on first access.
"""

import importlib

__version__ = "0.1.0"

#: the public names of each submodule, in ``__all__`` order
_EXPORTS = {
    "states": "BellLabel FourModeState InputError NumericError TruncationMassError "
              "build_bell_state geometric_ratio mean_photons_per_mode schmidt_spectrum",
    "polarization": "apply_transform half_wave_plate identify_bell_state pi_phase_on_bh "
                    "polarization_rotator quarter_wave_plate",
    "stokes": "expectation variance_of_combination",
    "witnesses": "WitnessKind WitnessReport cross_witness_matrix evaluate_witness "
                 "matched_witness",
    "measures": "WidthConvention fedorov_ratio gain_scan kbar log_negativity negativity "
                "trace_norm",
    "truncation": "CompressionPoint alpha_from_epsilon cutoff_for_epsilon dimension_scan "
                  "epsilon_from_cutoff occupancy_at_epsilon subspace_dimension truncated_kbar",
    "simulate": "FedorovEstimate SimConfig SweepPoint SweepResult efficiency_sweep "
                "estimate_fedorov estimate_witness witness_under_loss",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """A submodule or public name, imported on first access (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
