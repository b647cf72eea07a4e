"""Parametric Nikiforov-Uvarov engine, trigonometric Poschl-Teller bound
states, self-contained special functions, and a finite-difference oracle.

`import ptnu` loads neither numpy nor scipy: every module imports numpy
inside the functions that handle arrays, and none imports scipy; the
oracle loads scipy's compiled LAPACK wrappers from their file when it
first runs.
"""
from . import errors
from .nu import NuCoefficients, SpectralFamily, quantization_residual, solve_energy
from .oracle import discretize, lowest_eigenvalues, richardson
from .poschl_teller import (BoundState, PtPotential, alpha_zero_limit, energy_closed_form,
                            energy_via_nu, normalized_wavefunction, spectrum_table, to_nu_family)
from .special_functions import jacobi_log_norm, jacobi_scaled

__version__ = "0.1.0"

__all__ = [
    "NuCoefficients", "SpectralFamily", "quantization_residual", "solve_energy",
    "discretize", "lowest_eigenvalues", "richardson",
    "BoundState", "PtPotential", "alpha_zero_limit", "energy_closed_form",
    "energy_via_nu", "normalized_wavefunction", "spectrum_table", "to_nu_family",
    "jacobi_log_norm", "jacobi_scaled",
    "errors", "__version__",
]
