"""Exception types shared across the package."""


class PtnuError(Exception):
    """Base class for all library errors."""


class NegativeDiscriminant(PtnuError):
    """A square-root argument in the constant pipeline went negative;
    the problem has no real solution in this regime."""


class NoSignChange(PtnuError):
    """The residual does not change sign anywhere the bracket search looks."""


class NonConvergence(PtnuError):
    """The condition is not affine in eps over the bracket, or its residual
    is still above the tolerance after the affine step."""


class ZeroA3(PtnuError):
    """Operation requires a3 > 0."""


class DomainError(PtnuError, ValueError):
    """Argument outside the open interval on which the function is defined."""


class InvalidIndex(PtnuError, ValueError):
    """Polynomial parameter outside its admissible range."""


class NonFinite(PtnuError):
    """A NaN or infinity appeared where a finite value was required."""


class GridTooSmall(PtnuError, ValueError):
    """Finite-difference grid too coarse for a meaningful spectrum."""


class ConfigError(PtnuError, ValueError):
    """Invalid run configuration."""
