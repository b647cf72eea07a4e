"""Independent references that only the tests use.

The explicit finite-sum form of the Jacobi polynomials checks the
three-term recurrence in `ptnu.special_functions`, `potential_value`
evaluates the well pointwise for the limit-law and floor checks,
`level_depth_slopes` differentiates the closed-form level by the depths, and
`tau_prime` and `eigenfunction_factors` read the slope of the template's
tau and the NU method's solution factors off its derived constants.
None runs through the package code it checks: this module imports only
math, numpy and `ptnu.errors`.
"""
import math

import numpy as np

from ptnu.errors import DomainError


def _binom_product(r: np.longdouble, k: int) -> np.longdouble:
    """C(r, k) as the product prod_j (r - k + j) / j, kept in extended
    precision for the oracle sums (k stays small, so no overflow)."""
    import numpy as np

    out = np.longdouble(1.0)
    for j in range(1, k + 1):
        out = out * (r - k + j) / j
    return out


def jacobi_sum(n: int, a: float, b: float, x: float) -> float:
    """Explicit binomial finite-sum form of P_n^{(a,b)}(x); test oracle only.

    P_n = sum_k C(n+a, n-k) C(n+b, k) ((x-1)/2)^k ((x+1)/2)^(n-k)

    The alternating terms can exceed the result by orders of magnitude, so
    the sum runs in extended precision to stay trustworthy as an oracle.
    """
    if n < 0 or n > 20:
        raise DomainError(f"finite-sum oracle limited to 0 <= n <= 20, got {n}")
    if not (a > -1.0 and b > -1.0):  # written so that a NaN fails it too
        raise DomainError(f"Jacobi parameters must exceed -1, got a={a}, b={b}")
    import numpy as np

    a_l = np.longdouble(a)
    b_l = np.longdouble(b)
    lo = (np.longdouble(x) - 1) / 2
    hi = (np.longdouble(x) + 1) / 2
    total = np.longdouble(0.0)
    for k in range(n + 1):
        term = _binom_product(n + a_l, n - k) * _binom_product(n + b_l, k)
        total += term * _signed_pow(lo, k) * _signed_pow(hi, n - k)
    return float(total)


def _signed_pow(base: float, p: int) -> float:
    # 0**0 == 1 by polynomial convention
    if p == 0:
        return 1.0
    return base ** p


def potential_value(p, r: float) -> float:
    """V(r) = V1/sin^2(alpha r) + V2/cos^2(alpha r) inside the well of the
    `ptnu.PtPotential` p."""
    if not (0.0 < r < p.r_max):
        raise DomainError(f"r={r} outside the well (0, {p.r_max})")
    a_r = p.alpha * r
    return p.v1 / math.sin(a_r) ** 2 + p.v2 / math.cos(a_r) ** 2


def level_depth_slopes(p, n: int) -> tuple[float, float]:
    """(dE_n/dV1, dE_n/dV2) of the closed-form level of the `ptnu.PtPotential`
    p, differentiated by hand:

        dE_n/dV1 = 2 alpha (2n+1)/sqrt(alpha^2 + 8 m V1)
                   + sqrt(alpha^2 + 8 m V2)/sqrt(alpha^2 + 8 m V1) + 1

    and the same with V1 and V2 swapped."""
    a2 = p.alpha * p.alpha
    sq1 = math.sqrt(a2 + 8.0 * p.m * p.v1)
    sq2 = math.sqrt(a2 + 8.0 * p.m * p.v2)
    return (2.0 * p.alpha * (2 * n + 1) / sq1 + sq2 / sq1 + 1.0,
            2.0 * p.alpha * (2 * n + 1) / sq2 + sq1 / sq2 + 1.0)


def tau_prime(d) -> float:
    """Slope of the linear tau polynomial of the `ptnu.nu.NuDerived` d.

    The method requires a negative slope for a physical solution family.
    On the principal branch tau' = -2*a3 - 2*(sqrt(a9) + a3*sqrt(a8)) with
    a3 >= 0, so tau' <= 0 always: no production path needs the flag.
    """
    return -2.0 * d.coeffs.a3 - 2.0 * (d.s9 + d.coeffs.a3 * d.s8)


def eigenfunction_factors(d) -> tuple[float, float, float, float]:
    """(p1, p2, ja, jb) of the NU solution s^p1 (1 - a3*s)^p2
    P_n^(ja, jb)(1 - 2*a3*s), read off the `ptnu.nu.NuDerived` d (a3 > 0)."""
    a3 = d.coeffs.a3
    return d.a12, -d.a12 - d.a13 / a3, d.a10 - 1.0, (d.a11 - d.a10 - 1.0) / a3
