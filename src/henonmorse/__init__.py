"""Nodal radial solutions of Henon-type problems on the unit ball, the
associated singular weighted Sturm-Liouville spectra, and Morse-index
reports built from them."""

from .dimension import (DimensionMap, angular_threshold, degeneracy_targets,
                        eigenvalue_pullback, generalized_dimension)
from .morse import (BETA_PLANAR, DegeneracyReport, MorseReport,
                    asymptotic_prediction, beltrami_eigen,
                    beltrami_multiplicity, degeneracy_scan, lower_bound,
                    morse_index, symmetric_morse_index)
from .oracle import dense_oracle_spectrum
from .radial import (IntegrationError, RadialProfile, auxiliary_z,
                     linearized_potential, solve_nodal_power,
                     validate_profile)
from .spectral import (EigenPair, SpectralConfig, SpectralError, Spectrum,
                       WeightedSLProblem, liouville_transform,
                       solve_singular_spectrum, solve_standard_spectrum,
                       theta_analytic, zero_potential)

__version__ = "0.1.0"

__all__ = [
    "BETA_PLANAR", "__version__",
    "DimensionMap", "generalized_dimension", "eigenvalue_pullback",
    "angular_threshold", "degeneracy_targets",
    "RadialProfile", "IntegrationError", "solve_nodal_power",
    "validate_profile", "auxiliary_z", "linearized_potential",
    "WeightedSLProblem", "SpectralConfig", "SpectralError", "EigenPair",
    "Spectrum", "liouville_transform", "solve_singular_spectrum",
    "solve_standard_spectrum",
    "theta_analytic", "zero_potential", "dense_oracle_spectrum",
    "MorseReport", "DegeneracyReport", "beltrami_eigen",
    "beltrami_multiplicity", "morse_index", "degeneracy_scan",
    "symmetric_morse_index", "lower_bound", "asymptotic_prediction",
]
