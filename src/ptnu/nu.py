"""Parametric Nikiforov-Uvarov engine.

Solves any problem that can be cast into the template

    psi'' + (a1 - a2*s)/(s*(1 - a3*s)) * psi'
          + (-x1*s^2 + x2*s - x3)/(s*(1 - a3*s))^2 * psi = 0

by deriving the standard chain of constants a4..a13, evaluating the
polynomial-termination condition that quantizes the spectral parameter,
root-finding energies for a family parameterized by eps, and assembling
the eigenfunction factors

    psi(s) = s^p1 * (1 - a3*s)^p2 * P_n^(ja, jb)(1 - 2*a3*s)

for a3 > 0.

Two admissible sign choices exist for the auxiliary constant k; they give
distinct constant sets and solution families, selected here by `Branch`.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import DomainError, NegativeDiscriminant, NonConvergence, NoSignChange, ZeroA3
from .special_functions import jacobi_scaled


class Branch(Enum):
    """Sign choice for k: PRINCIPAL takes the minus root, SECONDARY the plus.

    The value is the sign of every a3*sqrt(a8) and sqrt(a8*a9) term.
    """

    PRINCIPAL = 1.0
    SECONDARY = -1.0


def _check_fixed(a1: float, a2: float, a3: float) -> None:
    if not (math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3)):
        raise DomainError(f"a1, a2, a3 must be finite, got {(a1, a2, a3)}")
    if a3 < 0.0:
        raise DomainError(f"a3 must be >= 0, got {a3}")


def _check_varying(x1: float, x2: float, x3: float) -> None:
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
        raise DomainError(f"x1, x2, x3 must be finite, got {(x1, x2, x3)}")


class NuCoefficients(namedtuple("NuCoefficients", "a1 a2 a3 x1 x2 x3")):
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

    @classmethod
    def _make(cls, iterable) -> NuCoefficients:
        return cls(*iterable)


@dataclass(frozen=True)
class NuDerived:
    """Derived constants a4..a13 and the k value for one branch.

    Under SECONDARY, a10..a13 hold the starred variants; a4..a9 are
    branch-independent. The source coefficients ride along because the
    downstream formulas still need a2 and a3; so do s8 = sqrt(a8),
    s9 = sqrt(a9), and sign, the value of the `Branch`.
    """

    coeffs: NuCoefficients
    a4: float
    a5: float
    a6: float
    a7: float
    a8: float
    a9: float
    a10: float
    a11: float
    a12: float
    a13: float
    k: float
    s8: float
    s9: float
    sign: float


def _roots(c: NuCoefficients) -> tuple[float, float, float, float, float, float, float, float]:
    """Branch-independent (a4, a5, a6, a7, a8, a9, sqrt(a8), sqrt(a9)).  Raises
    NegativeDiscriminant when a8 < 0 or a9 < 0: the method then does not apply."""
    a1, a2, a3, x1, x2, x3 = c
    a4 = 0.5 * (1.0 - a1)
    a5 = 0.5 * (a2 - 2.0 * a3)
    a6 = a5 * a5 + x1
    a7 = 2.0 * a4 * a5 - x2
    a8 = a4 * a4 + x3
    a9 = a3 * a7 + a3 * a3 * a8 + a6
    if a8 < 0.0 or a9 < 0.0:
        raise NegativeDiscriminant(f"need a8 >= 0 and a9 >= 0, got a8={a8}, a9={a9}")
    return a4, a5, a6, a7, a8, a9, math.sqrt(a8), math.sqrt(a9)


def derive_constants(c: NuCoefficients, b: Branch = Branch.PRINCIPAL) -> NuDerived:
    """Run the constant pipeline a4..a13 for the requested branch; raises as `_roots`."""
    a4, a5, a6, a7, a8, a9, s8, s9 = _roots(c)
    sign = b.value
    k = -(a7 + 2.0 * c.a3 * a8) - sign * 2.0 * math.sqrt(a8 * a9)
    a10 = c.a1 + 2.0 * a4 + sign * 2.0 * s8
    a11 = c.a2 - 2.0 * a5 + 2.0 * (s9 + sign * c.a3 * s8)
    a12 = a4 + sign * s8
    a13 = a5 - (s9 + sign * c.a3 * s8)
    return NuDerived(c, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, k, s8, s9, sign)


def tau_prime(d: NuDerived) -> float:
    """Slope of the linear tau polynomial for the branch.

    The method requires a negative slope for a physical solution family;
    the sign is a validity flag for the caller, not an error here.
    """
    return -2.0 * d.coeffs.a3 - 2.0 * (d.s9 + d.sign * d.coeffs.a3 * d.s8)


def quantization_residual(c: NuCoefficients, n: int, b: Branch = Branch.PRINCIPAL) -> float:
    """Left-hand side of the termination condition; zero at a bound state.

    Principal branch:

        a2*n - (2n+1)*a5 + (2n+1)*(sqrt(a9) + a3*sqrt(a8)) + n(n-1)*a3
            + a7 + 2*a3*a8 + 2*sqrt(a8*a9)

    The secondary branch flips the signs of the a3*sqrt(a8) and
    2*sqrt(a8*a9) terms.  Equivalent to lambda_n - lambda with
    lambda = k + pi' and lambda_n = -n*tau' - n(n-1)/2 * sigma''.

    Checks only n: `c` was checked when it was built (a `NuCoefficients`
    checks all six inputs, a `SpectralFamily` probe only x1..x3).
    """
    if n < 0:
        raise DomainError(f"quantum number must be >= 0, got {n}")
    _, a5, _, a7, a8, a9, s8, s9 = _roots(c)
    sign = b.value
    return (c.a2 * n - (2.0 * n + 1.0) * a5 + (2.0 * n + 1.0) * (s9 + sign * c.a3 * s8)
            + n * (n - 1.0) * c.a3 + a7 + 2.0 * c.a3 * a8 + sign * 2.0 * math.sqrt(a8 * a9))


@dataclass(frozen=True)
class SpectralFamily:
    """Template coefficients whose x1, x2, x3 depend on a spectral parameter.

    The fixed a1, a2, a3 are checked once, here: building a family raises
    DomainError unless they are finite and a3 >= 0.  Each probe checks
    only what xi_map(eps) returns and raises DomainError where x1..x3 is
    not finite; xi_map must be deterministic.
    """

    a1: float
    a2: float
    a3: float
    xi_map: Callable[[float], tuple[float, float, float]]

    def __post_init__(self):
        _check_fixed(self.a1, self.a2, self.a3)

    def coefficients(self, eps: float) -> NuCoefficients:
        x1, x2, x3 = self.xi_map(eps)
        _check_varying(x1, x2, x3)
        # a1..a3 passed _check_fixed when the family was built
        return tuple.__new__(NuCoefficients, (self.a1, self.a2, self.a3, x1, x2, x3))

    def residual(self, eps: float, n: int) -> float:
        return quantization_residual(self.coefficients(eps), n)


def solve_energy(f: SpectralFamily, n: int, bracket: tuple[float, float],
                 tol: float = 1e-12, ends: tuple[float, float] | None = None) -> float:
    """Root in eps of the principal-branch termination condition over the bracket.

    Probes three points first: if they are collinear the residual is
    treated as affine in eps and the root is taken in a single linear
    step plus one secant polish.  Otherwise requires a sign change over
    the bracket and closes in with bisection-safeguarded secant steps.
    Terminates when |residual| <= tol; raises NonConvergence after 200
    such steps.

    `ends`, when given, is (r_lo, r_hi) already known at the bracket ends;
    those two are then not evaluated again.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    lo, hi = bracket
    if not (lo < hi):
        raise DomainError(f"empty bracket {bracket}")
    r_lo, r_hi = ends if ends is not None else (f.residual(lo, n), f.residual(hi, n))
    mid = 0.5 * (lo + hi)
    r_mid = f.residual(mid, n)
    scale = max(abs(r_lo), abs(r_hi), abs(r_mid), 1.0)

    # affine fast path: midpoint residual collinear with the endpoints
    if abs(r_mid - 0.5 * (r_lo + r_hi)) <= 1e-10 * scale and abs(r_hi - r_lo) > 0.0:
        slope = (r_hi - r_lo) / (hi - lo)
        eps = lo - r_lo / slope
        if lo <= eps <= hi:
            r = f.residual(eps, n)
            if r != 0.0 and slope != 0.0:
                polished = eps - r / slope
                if polished != eps and lo <= polished <= hi:
                    r_polished = f.residual(polished, n)
                    if abs(r_polished) < abs(r):
                        eps, r = polished, r_polished
            if abs(r) <= tol:
                return eps

    if abs(r_lo) <= tol:
        return lo
    if abs(r_hi) <= tol:
        return hi
    if r_lo * r_hi > 0.0:
        raise NoSignChange(f"residual has the same sign at both ends of {bracket}")

    a, fa = lo, r_lo
    c, fc = hi, r_hi
    x, fx = mid, r_mid
    for it in range(200):
        if abs(fx) <= tol:
            return x
        if fa * fx < 0.0:
            c, fc = x, fx
        else:
            a, fa = x, fx
        width = c - a
        if it % 2 == 0 and fc != fa:
            # secant through the bracket ends, clipped to the interior
            x = a - fa * width / (fc - fa)
            if not (a + 1e-3 * width < x < c - 1e-3 * width):
                x = a + 0.5 * width
        else:
            x = a + 0.5 * width
        fx = f.residual(x, n)
    raise NonConvergence(f"no residual <= {tol} within 200 iterations")


def eigenfunction_factors(d: NuDerived) -> tuple[float, float, float, float]:
    """Exponents and Jacobi indices (p1, p2, ja, jb) of the solution factors."""
    a3 = d.coeffs.a3
    if a3 <= 0.0:
        raise ZeroA3("eigenfunction factors need a3 > 0")
    p1 = d.a12
    p2 = -d.a12 - d.a13 / a3
    ja = d.a10 - 1.0
    jb = (d.a11 - d.a10 - 1.0) / a3
    return p1, p2, ja, jb


def evaluate_eigenfunction(d: NuDerived, n: int, s, log_scale: float):
    """exp(log_scale) * psi(s), psi(s) = s^p1 (1-a3*s)^p2 P_n^(ja,jb)(1-2*a3*s).

    Accepts scalar or ndarray s in (0, 1/a3).  The factors are combined as
    sign(P) * exp(log_scale + p1*log(s) + p2*log1p(-a3*s) + log|P|), so a
    power that alone would over- or underflow is offset by log_scale.  P
    comes as p * 2**e from `jacobi_scaled`, so log|P| = log|p| + e*log(2)
    stays finite where P itself would overflow.
    """
    import numpy as np

    p1, p2, ja, jb = eigenfunction_factors(d)
    a3 = d.coeffs.a3
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr > 0.0) & (s_arr < 1.0 / a3)):
        raise DomainError(f"s outside (0, {1.0 / a3})")
    poly, exponent = jacobi_scaled(n, ja, jb, 1.0 - 2.0 * a3 * s_arr)
    with np.errstate(divide="ignore"):
        log_value = (log_scale + exponent * math.log(2.0) + p1 * np.log(s_arr)
                     + p2 * np.log1p(-a3 * s_arr) + np.log(np.abs(poly)))
    value = np.sign(poly) * np.exp(log_value)
    if not np.all(np.isfinite(value)):
        raise DomainError("eigenfunction overflow")
    return value if value.ndim else float(value)
