"""twistlab: one-axis-twisting spin metrology toolkit.

Exact Dicke-basis simulation of collective spins, quantum Fisher information
in closed form and from state evolution, twist-untwist interferometry with
method-of-moments error analysis, finite-range Ising rings with analytic
variance formulas, exact direction maximizers, and a CLI for reproducible
sweeps.

The public names below are loaded on first use (PEP 562), so `import twistlab`
imports neither numpy nor any submodule, and a CLI command loads only the
modules it runs.
"""
import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_SOURCES = {
    "numerics": ("IndeterminateRatioError",),
    "spin_core": ("CollectiveState", "Direction", "StateNormError", "X_AXIS", "Y_AXIS",
                  "Z_AXIS", "coherent_state", "expectation", "ghz_state", "husimi_q",
                  "oat_evolve", "rotate", "variance"),
    "optimizer": ("JointMaximum", "SphereMaximum", "maximize_limit", "maximize_quadratic_form",
                  "maximize_slope_ratio"),
    "oat_metrology": ("ScanRecord", "asymptotic_predictor", "covariance_matrix",
                      "ghz_parity_error", "max_qfi_over_directions", "mom_reciprocal_at_zero",
                      "phase_diagram_scan", "protocol_moments", "qfi_closed_form",
                      "qfi_numeric", "small_phi_slope", "time_averaged_qfi"),
    "lattice_fr": ("LatticeState", "LatticeSystem", "build_system", "fr_covariance_matrix",
                   "fr_evolve", "fr_interpolation_forms", "fr_max_qfi", "fr_optimal_protocol",
                   "fr_protocol_moments", "fr_variance_analytic", "lattice_moments",
                   "lattice_variance", "plus_state", "qfi_decibels"),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_HOME, *_SOURCES])


def __getattr__(name: str):
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
