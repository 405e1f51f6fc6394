"""Kicked Harper and double-kicked rotor simulations on the momentum lattice."""

from .analysis import (BALLISTIC, DIFFUSIVE, LOCALIZED, SUBDIFFUSIVE,
                       BoxCountResult, PowerLawFit, box_counting_dimension,
                       classify_transport, fit_power_law, hausdorff_from_alpha,
                       spectrum_set_distance)
from .classical import (PhasePoint, conjugacy_defects, dkrm_half_steps,
                        dkrm_resonant_map, equivalence_residual, khm_map, orbit,
                        trajectory)
from .errors import (ConfigError, LatticeOverflowError, NumericalError,
                     ResourceLimitError)
from .lattice import (DKRM_GENERAL, DKRM_RESONANT, KHM, MODEL_KINDS,
                      EffPlanck, LabParams, ModelSpec, Rational, Wavepacket,
                      edge_mass, farey_sequence, momentum_variance,
                      parse_effective_planck)
from .quantum import (DiffusionSeries, HarperPhase, KickCoefficients,
                      KickFactor, QuadraticPhase, apply_floquet, apply_kick,
                      apply_quadratic_phase, evolve, floquet_factors,
                      kick_coefficients)
from .spectrum import (SpectrumSet, SymmetryReport, aggregated_energies,
                       build_bloch_matrix, butterfly_scan,
                       check_symmetry_claims, lattice_period,
                       model_from_ratios, model_spectrum, quasienergies,
                       scan_rationals, theta_grid)

__version__ = "0.1.0"
