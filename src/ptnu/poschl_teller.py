"""Trigonometric Poschl-Teller potential: s-wave bound states in closed form.

The potential V(r) = V1/sin^2(alpha*r) + V2/cos^2(alpha*r) confines the
particle to the principal well between the two singularities, i.e.
r in (0, pi/(2*alpha)).  Natural units (hbar = c = 1) throughout: masses
and energies in fm^-1, the spectral parameter eps = 2*m*E in fm^-2.

The substitution s = sin^2(alpha*r) maps the l = 0 radial equation onto
the parametric template of `ptnu.nu`, whose root-finder checks the
closed-form energy levels.  The radial wavefunctions are closed form too:

    R_n(r) = N_n (sin ar)^k1 (cos ar)^k2 P_n^(k1-1/2, k2-1/2)(cos 2ar).
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError
from .nu import SpectralFamily, checked_record, index_text, solve_energy
from .special_functions import jacobi_log_norm, jacobi_scaled


class PtPotential(checked_record("PtPotential", "m v1 v2 alpha")):
    """Physical parameters: mass m, well depths v1 and v2, range alpha.

    All in fm^-1; the well spans (0, pi/(2*alpha)).  An immutable tuple
    (m, v1, v2, alpha) with named fields, so it equals the plain 4-tuple
    of the same values.  Building one, directly or through `_make` and
    `_replace`, raises DomainError unless all four are finite and > 0.
    """

    __slots__ = ()

    def __new__(cls, m: float, v1: float, v2: float, alpha: float):
        inf = math.inf
        if not (0.0 < m < inf and 0.0 < v1 < inf and 0.0 < v2 < inf and 0.0 < alpha < inf):
            raise DomainError(
                f"need m, v1, v2, alpha all finite and > 0, got m={m}, v1={v1}, "
                f"v2={v2}, alpha={alpha}")
        return tuple.__new__(cls, (m, v1, v2, alpha))

    @property
    def v1_prime(self) -> float:
        """Reduced depth 2*m*V1 (fm^-2)."""
        return 2.0 * self.m * self.v1

    @property
    def v2_prime(self) -> float:
        """Reduced depth 2*m*V2 (fm^-2)."""
        return 2.0 * self.m * self.v2

    @property
    def r_max(self) -> float:
        """Right edge of the principal well, pi/(2*alpha) (fm)."""
        return math.pi / (2.0 * self.alpha)


class BoundState(namedtuple("BoundState", "n energy eps log_norm")):
    """One s-wave level: quantum number, energy, eps = 2mE, and log N_n,
    the log of the constant that gives the radial wavefunction unit L2
    norm; an immutable tuple (n, energy, eps, log_norm) with named fields.
    N_n itself leaves the float range at large n and small alpha, where
    the normalized state does not."""

    __slots__ = ()


def to_nu_family(p: PtPotential) -> SpectralFamily:
    """Template family for this potential under s = sin^2(alpha r).

    The fixed coefficients are (1/2, 1, 1); only x1 and x2 carry eps.
    Raises DomainError where 4 alpha^2 underflows to 0 or overflows.
    """
    four_alpha2 = 4.0 * p.alpha * p.alpha
    if not 0.0 < four_alpha2 < math.inf:
        raise DomainError(f"4 alpha^2 = {four_alpha2} at alpha={p.alpha}; alpha must lie "
                          f"in about (7.9e-163, 6.7e153)")
    quarter = 1.0 / four_alpha2
    v1p = p.v1_prime
    v2p = p.v2_prime

    def xi_map(eps: float) -> tuple[float, float, float]:
        return (eps * quarter, (eps + v1p - v2p) * quarter, v1p * quarter)

    return SpectralFamily(0.5, 1.0, 1.0, xi_map)


def energy_closed_form(p: PtPotential, n: int) -> float:
    """Closed-form level E_n (fm^-1) of the s-wave spectrum; DomainError
    where it overflows (from alpha about 1e154, for a subnormal m, or from
    n about 1e154)."""
    if n < 0:
        raise DomainError(f"quantum number must be >= 0, got {index_text(n)}")
    a2 = p.alpha * p.alpha
    sq1 = math.sqrt(a2 + 8.0 * p.m * p.v1)
    sq2 = math.sqrt(a2 + 8.0 * p.m * p.v2)
    try:
        energy = ((2.0 * a2 / p.m) * (n + 0.5) ** 2
                  + (p.alpha / (2.0 * p.m)) * (2.0 * n + 1.0) * (sq1 + sq2)
                  + (sq1 * sq2 + a2) / (4.0 * p.m)
                  + p.v1 + p.v2)
    except OverflowError:  # the float power, or an n beyond float range
        energy = math.inf
    if not energy < math.inf:
        raise DomainError(f"level n={index_text(n)} overflows at m={p.m}, v1={p.v1}, v2={p.v2}, "
                          f"alpha={p.alpha}")
    return energy


def alpha_zero_limit(p: PtPotential) -> float:
    """Common limit of every level as the range parameter goes to zero:
    V1 + V2 + 2*sqrt(V1*V2), the floor of the well.  The two roots are
    taken apart, so the product cannot overflow."""
    return p.v1 + p.v2 + 2.0 * math.sqrt(p.v1) * math.sqrt(p.v2)


def energy_via_nu(p: PtPotential, n: int) -> float:
    """Level E_n obtained by root-finding the template's termination
    condition; independent of the closed form except through the mapping.

    Under this mapping the residual is affine in eps (a9 does not depend
    on eps; a7 falls as eps/(4 alpha^2)), as `solve_energy` requires; its
    bracket walk starts from hi = max(4 alpha^2, 1).
    """
    return solve_energy(to_nu_family(p), n, max(4.0 * p.alpha * p.alpha, 1.0)) / (2.0 * p.m)


# Largest relative error allowed in N_n.  log N_n sums terms of order
# 1/alpha that cancel; 4 ulp of their summed magnitude bounds the rounding
# (at most 1.2 ulp against a 60-digit reference) and moves N_n by half
# that.  It is about 40 times the largest such estimate for alpha >= 1e-4,
# m <= 50, V1, V2 <= 100 and n <= 100.
NORM_RTOL = 1e-6


def normalized_wavefunction(p: PtPotential, n: int):
    """(BoundState, callable): level n and its unit-norm radial function
    R_n of r, both in closed form.  The callable evaluates a float r
    (np.float64 included) with `math` and gives a float, anything else
    with numpy.

    R_n(r) = N_n (sin ar)^k1 (cos ar)^k2 P_n^(ja,jb)(cos 2ar): the paper's
    exponents, with ja = k1 - 1/2 = sqrt(alpha^2 + 8*m*V1)/(2*alpha) and
    jb the same in V2.  Under x = cos 2ar the integral of (R_n/N_n)^2 over
    the well becomes the Jacobi weight integral with exponents ja and jb,
    2^(-(k1+k2)) / (2a) * h_n^(ja,jb), so log N_n = (k1+k2)/2 log 2 +
    (log 2a - log h_n)/2.  The callable sums log N_n and the logs of
    (sin ar)^k1, |cos ar|^k2 and |P| (finite by `jacobi_scaled` where P
    overflows) before one exp; where sin ar or P is 0, so is R_n.

    Raises DomainError where rounding could move N_n by more than
    NORM_RTOL: on the paper's potential, for alpha below about 2.8e-7.
    """
    energy = energy_closed_form(p, n)
    eps = 2.0 * p.m * energy
    a2 = p.alpha * p.alpha
    ja = math.sqrt(a2 + 8.0 * p.m * p.v1) / (2.0 * p.alpha)
    jb = math.sqrt(a2 + 8.0 * p.m * p.v2) / (2.0 * p.alpha)
    k1 = 0.5 + ja
    k2 = 0.5 + jb
    ln2 = math.log(2.0)
    # the large terms of 2 log N_n, the log-gamma ones inside jacobi_log_norm
    # included, plus (ja + jb + 1) ln 2, which bounds twice the envelope's
    # -log at its peak, where the callable's log sum cancels it against log N_n
    try:
        magnitude = (3.0 * (ja + jb + 1.0) * ln2 + abs(math.lgamma(n + ja + 1.0))
                     + abs(math.lgamma(n + jb + 1.0)) + abs(math.lgamma(n + ja + jb + 1.0)))
    except OverflowError:  # lgamma past about 1e305
        magnitude = math.inf
    error = 2.0 * sys.float_info.epsilon * magnitude
    if not error <= NORM_RTOL:
        raise DomainError(f"rounding may move the norm at alpha={p.alpha} by {error:.1e}, "
                          f"above {NORM_RTOL}")
    log_norm = 0.5 * (k1 + k2) * ln2 + 0.5 * (math.log(2.0 * p.alpha) - jacobi_log_norm(n, ja, jb))
    alpha = p.alpha
    r_max = p.r_max
    jacobi = jacobi_scaled(n, ja, jb)

    def wavefunction(r):
        if isinstance(r, float):
            if not 0.0 < r < r_max:
                raise DomainError(f"r outside the well (0, {r_max})")
            sin, cos = math.sin(x := alpha * r), math.cos(x)
        else:
            import numpy as np

            r = np.asarray(r, dtype=float)
            if not ((r > 0.0) & (r < r_max)).all():
                raise DomainError(f"r outside the well (0, {r_max})")
            sin, cos = np.sin(x := alpha * r), np.cos(x)
        poly, exponent = jacobi(1.0 - 2.0 * sin ** 2)

        def log_value(log):
            return log_norm + exponent * ln2 + k1 * log(sin) + k2 * log(abs(cos)) + log(abs(poly))

        if isinstance(r, float):
            try:  # math.log(0.0) raises, and numpy's log(0) = -inf gives 0.0 too
                return math.copysign(math.exp(log_value(math.log)), poly) if poly and sin else 0.0
            except OverflowError:
                raise DomainError("wavefunction overflow") from None
        with np.errstate(divide="ignore"):
            value = np.copysign(np.exp(log_value(np.log)), poly)
        if not np.isfinite(value).all():
            raise DomainError("wavefunction overflow")
        return value if value.ndim else float(value)

    return BoundState(n=n, energy=energy, eps=eps, log_norm=log_norm), wavefunction


def normalize(p: PtPotential, n: int) -> BoundState:
    """The state of `normalized_wavefunction`, with log N_n, the log of the
    constant that gives R_n unit L2 norm."""
    return normalized_wavefunction(p, n)[0]


def spectrum_table(m: float, v1: float, v2: float, alphas: list[float],
                   n_max: int) -> list[list[float]]:
    """Closed-form levels as rows n = 0..n_max, one column per alpha."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if not alphas:
        raise DomainError("alphas must be non-empty")
    potentials = [PtPotential(m, v1, v2, a) for a in alphas]
    return [[energy_closed_form(p, n) for p in potentials] for n in range(n_max + 1)]
