"""Parametric Nikiforov-Uvarov engine.

Solves any problem that can be cast into the template

    psi'' + (a1 - a2*s)/(s*(1 - a3*s)) * psi'
          + (-x1*s^2 + x2*s - x3)/(s*(1 - a3*s))^2 * psi = 0

by deriving the standard chain of constants a4..a13, evaluating the
polynomial-termination condition that quantizes the spectral parameter,
root-finding energies for a family parameterized by eps whose condition
is affine in eps, and assembling the eigenfunction factors

    psi(s) = s^p1 * (1 - a3*s)^p2 * P_n^(ja, jb)(1 - 2*a3*s)

for a3 > 0.

The auxiliary constant k takes the minus root throughout: that principal
choice gives the physical solution family, whose tau has negative slope.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .errors import DomainError, NonConvergence, NoSignChange
from .special_functions import jacobi_scaled


def checked_record(name: str, fields, defaults=None):
    """namedtuple base, with namedtuple's `defaults`, for a record whose
    subclass checks its fields in `__new__`: `_make`, and so `_replace`,
    build through that check too."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def _check_fixed(a1: float, a2: float, a3: float) -> None:
    if not (math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3)):
        raise DomainError(f"a1, a2, a3 must be finite, got {(a1, a2, a3)}")
    if a3 < 0.0:
        raise DomainError(f"a3 must be >= 0, got {a3}")


def _check_varying(x1: float, x2: float, x3: float) -> None:
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
        raise DomainError(f"x1, x2, x3 must be finite, got {(x1, x2, x3)}")


class NuCoefficients(checked_record("NuCoefficients", "a1 a2 a3 x1 x2 x3")):
    """The six template inputs: a1, a2, a3 from the first-derivative and
    leading polynomials, x1, x2, x3 from the potential-like polynomial.

    An immutable tuple (a1, a2, a3, x1, x2, x3) with named fields, so it
    equals the plain 6-tuple of the same values.  Building one, directly
    or through `_make` and `_replace`, raises DomainError unless all six
    are finite and a3 >= 0.  `SpectralFamily` builds its records without
    repeating the a1..a3 check: it checks them once, when it is built.
    """

    __slots__ = ()

    def __new__(cls, a1: float, a2: float, a3: float, x1: float, x2: float, x3: float):
        _check_fixed(a1, a2, a3)
        _check_varying(x1, x2, x3)
        return tuple.__new__(cls, (a1, a2, a3, x1, x2, x3))


class NuDerived(namedtuple("NuDerived", "coeffs a4 a5 a6 a7 a8 a9 a10 a11 a12 a13 k s8 s9")):
    """Derived constants a4..a13 and k, an immutable tuple with named fields.

    The source coefficients ride along because the downstream formulas
    still need a2 and a3; so do s8 = sqrt(a8) and s9 = sqrt(a9).
    """

    __slots__ = ()


def _roots(c: NuCoefficients, a9: float | None = None) -> tuple[float, ...]:
    """(a4, a5, a6, a7, a8, a9, sqrt(a8), sqrt(a9)); an a9 given replaces
    a3*a7 + a3^2*a8 + a6.  Raises DomainError when a8 < 0 or a9 < 0:
    the method then does not apply."""
    a1, a2, a3, x1, x2, x3 = c
    a4 = 0.5 * (1.0 - a1)
    a5 = 0.5 * (a2 - 2.0 * a3)
    a6 = a5 * a5 + x1
    a7 = 2.0 * a4 * a5 - x2
    a8 = a4 * a4 + x3
    a9 = a3 * a7 + a3 * a3 * a8 + a6 if a9 is None else a9
    if a8 < 0.0 or a9 < 0.0:
        raise DomainError(f"need a8 >= 0 and a9 >= 0, got a8={a8}, a9={a9}")
    return a4, a5, a6, a7, a8, a9, math.sqrt(a8), math.sqrt(a9)


def derive_constants(c: NuCoefficients, a9: float | None = None) -> NuDerived:
    """Run the constant pipeline a4..a13; raises as `_roots`.  a9 = (a5 +
    a3*a4)^2 + x1 - a3*x2 + a3^2*x3 cancels where x1..x3 dwarf it, so a
    family that has it in closed form may pass it."""
    a4, a5, a6, a7, a8, a9, s8, s9 = _roots(c, a9)
    k = -(a7 + 2.0 * c.a3 * a8) - 2.0 * math.sqrt(a8 * a9)
    a10 = c.a1 + 2.0 * a4 + 2.0 * s8
    a11 = c.a2 - 2.0 * a5 + 2.0 * (s9 + c.a3 * s8)
    a12 = a4 + s8
    a13 = a5 - (s9 + c.a3 * s8)
    return NuDerived(c, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, k, s8, s9)


def index_text(n) -> str:
    """n for an error message.  An int beyond 2000 bits is described by its
    bit length: Python may refuse to print one of over 640 decimal digits."""
    if isinstance(n, int) and n.bit_length() > 2000:
        return f"{'a negative' if n < 0 else 'an'} int of {n.bit_length()} bits"
    return f"{n}"


def quantization_residual(c: NuCoefficients, n: int) -> float:
    """Left-hand side of the termination condition; zero at a bound state:

        a2*n - (2n+1)*a5 + (2n+1)*(sqrt(a9) + a3*sqrt(a8)) + n(n-1)*a3
            + a7 + 2*a3*a8 + 2*sqrt(a8*a9)

    Equivalent to lambda_n - lambda with lambda = k + pi' and
    lambda_n = -n*tau' - n(n-1)/2 * sigma''.

    Checks only n: `c` was checked when it was built (a `NuCoefficients`
    checks all six inputs, a `SpectralFamily` probe only x1..x3).
    """
    if n < 0:
        raise DomainError(f"quantum number must be >= 0, got {index_text(n)}")
    _, a5, _, a7, a8, a9, s8, s9 = _roots(c)
    try:
        return (c.a2 * n - (2.0 * n + 1.0) * a5 + (2.0 * n + 1.0) * (s9 + c.a3 * s8)
                + n * (n - 1.0) * c.a3 + a7 + 2.0 * c.a3 * a8 + 2.0 * math.sqrt(a8 * a9))
    except OverflowError:  # an int n beyond about 1.8e308 does not convert to a float
        raise DomainError(f"quantum number must convert to a float, got {index_text(n)}") from None


class SpectralFamily(checked_record("SpectralFamily", "a1 a2 a3 xi_map")):
    """Template coefficients whose x1, x2, x3 depend on a spectral parameter.

    An immutable tuple (a1, a2, a3, xi_map) with named fields.  The fixed
    a1, a2, a3 are checked once, here: building a family, directly or
    through `_make` and `_replace`, raises DomainError unless they are
    finite and a3 >= 0.  Each probe checks only what xi_map(eps) returns
    and raises DomainError where x1..x3 is not finite; xi_map must be
    deterministic.
    """

    __slots__ = ()

    def __new__(cls, a1: float, a2: float, a3: float,
                xi_map: Callable[[float], tuple[float, float, float]]):
        _check_fixed(a1, a2, a3)
        return tuple.__new__(cls, (a1, a2, a3, xi_map))

    def coefficients(self, eps: float) -> NuCoefficients:
        a1, a2, a3, xi_map = self
        x1, x2, x3 = xi_map(eps)
        _check_varying(x1, x2, x3)
        # a1..a3 passed _check_fixed when the family was built
        return tuple.__new__(NuCoefficients, (a1, a2, a3, x1, x2, x3))

    def residual(self, eps: float, n: int) -> float:
        return quantization_residual(self.coefficients(eps), n)


def solve_energy(f: SpectralFamily, n: int, hi: float) -> float:
    """Root in eps of a termination condition that is affine in eps,
    searched in (0, hi * 4**k] from a start hi > 0.

    k is the first of at most 80 x4 steps at which the residual changes
    sign (NoSignChange otherwise).  The line through the residuals at 0
    and hi predicts k, and the walk starts there.  The prediction is taken
    a hair short (a root within ~1e-9 of a step counts as below it), so
    rounding can start the walk early but never past its first sign
    change: the bracket, its end residuals and the root are those of a
    walk from hi.  hi * 4.0**k is the same float as k multiplications by 4.

    The root of the line through the bracket ends is polished by one
    secant step and returned once its residual is within 1e-12 of the
    residual magnitude at those ends: the residual's floating-point noise
    floor grows with x1..x3, so a fixed absolute tolerance can be
    unreachable.  A midpoint residual off that line, or a residual still
    above the tolerance, raises NonConvergence: the condition is not
    affine there.
    """
    if not 0.0 < hi < math.inf:
        raise DomainError(f"start hi must be finite and positive, got {hi}")
    lo = 0.0
    r_lo = f.residual(lo, n)
    r_hi = f.residual(hi, n)
    root = hi * r_lo / (r_lo - r_hi) if r_hi != r_lo else 0.0
    steps = 0
    if root > hi:
        steps = max(1, math.ceil(min(80.0, math.log(root / hi, 4.0) - 1e-9)))
        hi *= 4.0 ** steps
        r_hi = f.residual(hi, n)
    while not r_hi * r_lo < 0.0 and steps < 80:
        hi *= 4.0
        steps += 1
        r_hi = f.residual(hi, n)
    if r_lo * r_hi > 0.0:
        raise NoSignChange(f"residual has the same sign at both ends of {(lo, hi)}")
    tol = 1e-12 * max(abs(r_lo), abs(r_hi), 1.0)
    r_mid = f.residual(0.5 * (lo + hi), n)
    scale = max(abs(r_lo), abs(r_hi), abs(r_mid), 1.0)
    slope = (r_hi - r_lo) / (hi - lo)
    if not (abs(r_mid - 0.5 * (r_lo + r_hi)) <= 1e-10 * scale and slope != 0.0):
        raise NonConvergence(f"residual is not affine in eps over {(lo, hi)}")
    eps = lo - r_lo / slope
    r = f.residual(eps, n)
    if r != 0.0:
        polished = eps - r / slope
        if polished != eps and lo <= polished <= hi:
            r_polished = f.residual(polished, n)
            if abs(r_polished) < abs(r):
                eps, r = polished, r_polished
    if not abs(r) <= tol:
        raise NonConvergence(f"residual {r} above {tol} after the affine step")
    return eps


def eigenfunction_factors(d: NuDerived) -> tuple[float, float, float, float]:
    """Exponents and Jacobi indices (p1, p2, ja, jb) of the solution factors."""
    a3 = d.coeffs.a3
    if a3 <= 0.0:
        raise DomainError("eigenfunction factors need a3 > 0")
    p1 = d.a12
    p2 = -d.a12 - d.a13 / a3
    ja = d.a10 - 1.0
    jb = (d.a11 - d.a10 - 1.0) / a3
    return p1, p2, ja, jb


def eigenfunction(d: NuDerived, n: int, log_scale: float):
    """s -> exp(log_scale) * psi(s), psi(s) = s^p1 (1-a3*s)^p2 P_n^(ja,jb)(1-2*a3*s);
    the factors and the Jacobi step coefficients are computed once, here.

    Accepts s in (0, 1/a3): a float (np.float64 included) is evaluated with
    `math` and gives a float, anything else with numpy.  The factors are
    combined as sign(P) * exp(log_scale + p1*log(s) + p2*log1p(-a3*s) + log|P|),
    so a power that alone would over- or underflow is offset by log_scale.
    P comes as p * 2**e from `jacobi_scaled`, so log|P| = log|p| + e*log(2)
    stays finite where P itself would overflow; where P is 0, so is psi.
    """
    p1, p2, ja, jb = eigenfunction_factors(d)
    a3 = d.coeffs.a3
    s_max, ln2, jacobi = 1.0 / a3, math.log(2.0), jacobi_scaled(n, ja, jb)

    def psi(s):
        if isinstance(s, float):
            inside = 0.0 < s < s_max
        else:
            import numpy as np

            s = np.asarray(s, dtype=float)
            inside = np.all((s > 0.0) & (s < s_max))
        if not inside:
            raise DomainError(f"s outside (0, {s_max})")
        poly, exponent = jacobi(1.0 - 2.0 * a3 * s)

        def log_value(log, log1p):
            return log_scale + exponent * ln2 + p1 * log(s) + p2 * log1p(-a3 * s) + log(abs(poly))

        if isinstance(s, float):
            try:  # math.log(0.0) raises, and numpy's log(0) = -inf gives 0.0 too
                return math.copysign(math.exp(log_value(math.log, math.log1p)), poly) if poly else 0.0
            except OverflowError:
                raise DomainError("eigenfunction overflow") from None
        with np.errstate(divide="ignore"):
            value = np.sign(poly) * np.exp(log_value(np.log, np.log1p))
        if not np.all(np.isfinite(value)):
            raise DomainError("eigenfunction overflow")
        return value if value.ndim else float(value)

    return psi
