"""Parametric Nikiforov-Uvarov engine, trigonometric Poschl-Teller bound
states, self-contained special functions, and a finite-difference oracle.

The public names below load their submodule on first access (PEP 562), so
`import ptnu` stays cheap and the closed-form paths never import numpy.
"""
import importlib

from . import errors

_EXPORTS = {
    "nu": (
        "NuCoefficients", "NuDerived", "SpectralFamily", "derive_constants", "eigenfunction",
        "eigenfunction_factors", "quantization_residual", "solve_energy",
    ),
    "oracle": (
        "RadialOperator", "discretize", "lowest_eigenvalues", "ode_residual", "richardson",
    ),
    "poschl_teller": (
        "BoundState", "PtPotential", "alpha_zero_limit", "energy_closed_form",
        "energy_via_nu", "normalize", "normalized_wavefunction", "spectrum_table",
        "to_nu_family",
    ),
    "special_functions": (
        "gauss_rule", "integrate", "jacobi", "jacobi_log_norm", "jacobi_scaled",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "errors", "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
