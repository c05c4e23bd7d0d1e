"""twistlab: one-axis-twisting spin metrology toolkit.

Exact Dicke-basis simulation of collective spins, quantum Fisher information
in closed form and from state evolution, twist-untwist interferometry with
method-of-moments error analysis, finite-range Ising rings with analytic
variance formulas, exact direction maximizers, and a CLI for reproducible
sweeps.
"""

__version__ = "0.1.0"

from .numerics import IndeterminateRatioError
from .spin_core import (CollectiveState, Direction, StateNormError, X_AXIS,
                        Y_AXIS, Z_AXIS, coherent_state, expectation, ghz_state,
                        husimi_q, oat_evolve, rotate, variance)
from .optimizer import (JointMaximum, SphereMaximum, maximize_limit,
                        maximize_quadratic_form, maximize_slope_ratio)
from .oat_metrology import (ProtocolSpec, ScanRecord, asymptotic_predictor,
                            covariance_matrix, ghz_parity_error,
                            max_qfi_over_directions, mom_reciprocal_at_zero,
                            mom_reciprocal_error, optimal_readout,
                            phase_diagram_scan, protocol_state,
                            qfi_closed_form, qfi_numeric, small_phi_slope,
                            small_phi_variance_rate, time_averaged_qfi)
from .lattice_fr import (LatticeState, LatticeSystem, build_system,
                         dicke_to_lattice, fr_covariance_matrix, fr_evolve,
                         fr_interpolation_forms, fr_max_qfi, fr_mom_limit,
                         fr_mom_reciprocal, fr_optimal_protocol,
                         fr_optimal_readout, fr_protocol_state,
                         fr_variance_analytic, lattice_moments, lattice_rotate,
                         lattice_variance, moment_table, plus_state,
                         qfi_decibels)

__all__ = [name for name in dir() if not name.startswith("_")]
