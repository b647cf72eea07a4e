"""Exception types shared across the package."""


class PtnuError(Exception):
    """Base class for all library errors."""


class NoSignChange(PtnuError):
    """The residual does not change sign anywhere the bracket search looks."""


class NonConvergence(PtnuError):
    """The condition is not affine in eps over the bracket, or its residual
    is still above the tolerance after the affine step."""


class DomainError(PtnuError, ValueError):
    """A parameter, index, grid size or template outside the domain where
    the function or the method applies."""


class NonFinite(PtnuError):
    """A NaN or infinity appeared where a finite value was required."""


class ConfigError(PtnuError, ValueError):
    """Invalid run configuration."""
