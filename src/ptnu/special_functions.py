"""Jacobi polynomials and their norms, plus composite Gauss quadrature.

Evaluation goes through the three-term recurrence, and the norms come from
log-gamma values; the quadrature is an independent certifier of integrals.
"""
from __future__ import annotations

import math

from .errors import DomainError, NonFinite

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


# Steps between rescalings in jacobi_scaled.  |P_k| grows by at most a
# factor of about 1 + max(a, b) a step, so 16 steps stay in range for a
# and b below about 1e18.
_RESCALE_STEPS = 16


def _check_jacobi(n: int, a: float, b: float) -> None:
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    if not (a > -1.0 and b > -1.0):  # written so that a NaN fails it too
        raise DomainError(f"Jacobi parameters must exceed -1, got a={a}, b={b}")


def jacobi(n: int, a: float, b: float, x):
    """P_n^{(a,b)}(x) by the three-term recurrence in n.

    Accepts scalar or ndarray x; requires a > -1 and b > -1.  Overflows to
    infinity where P_n exceeds the float range; `jacobi_scaled` does not.
    """
    import numpy as np

    p, exponent = jacobi_scaled(n, a, b)(x)
    p = np.ldexp(p, exponent)
    return p if p.ndim else float(p)


def jacobi_scaled(n: int, a: float, b: float):
    """The function x -> (p, e) with P_n^{(a,b)}(x) = p * 2**e, the n - 1
    step coefficients computed once, here.  For a float x (np.float64
    included) p is a float and e an int, computed with `math`; otherwise p
    is an ndarray shaped like x and e an int ndarray of that shape, or the
    int 0 for n < _RESCALE_STEPS, computed with numpy.

    Every _RESCALE_STEPS steps of the recurrence, both carried terms are
    divided by an exact power of two, so p stays in range however large
    P_n grows, and p * 2**e rounds exactly as the unscaled recurrence
    would.  Both kinds of x take the same steps, so a float gives the bits
    of a one-element ndarray.
    """
    _check_jacobi(n, a, b)
    # P_k = ((t-1) (t (t-2) x + a^2 - b^2) P_{k-1} - c2 P_{k-2}) / c0, t = 2k + a + b
    steps = []
    for k in range(2, n + 1):
        t = 2.0 * k + a + b
        steps.append((k % _RESCALE_STEPS == 0, 2.0 * k * (k + a + b) * (t - 2.0), t - 1.0,
                      t * (t - 2.0), 2.0 * (k + a - 1.0) * (k + b - 1.0) * t))
    a_sq, b_sq = a * a, b * b

    def scaled(x):
        if isinstance(x, float):
            p_prev, larger, frexp, ldexp = 1.0, max, math.frexp, math.ldexp
        else:
            import numpy as np

            x = np.asarray(x, dtype=float)
            p_prev, larger, frexp, ldexp = np.ones_like(x), np.maximum, np.frexp, np.ldexp
        exponent = 0
        if n == 0:
            return p_prev, exponent
        p = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
        for rescale, c0, t_minus_1, t_t_minus_2, c2 in steps:
            if rescale:
                _, shift = frexp(larger(abs(p), abs(p_prev)))
                p, p_prev = ldexp(p, -shift), ldexp(p_prev, -shift)
                exponent = exponent + shift
            p_prev, p = p, (t_minus_1 * (t_t_minus_2 * x + a_sq - b_sq) * p - c2 * p_prev) / c0
        return p, exponent

    return scaled


def jacobi_log_norm(n: int, a: float, b: float) -> float:
    """log h_n, where h_n is the integral of (1-x)^a (1+x)^b P_n^{(a,b)}(x)^2
    over [-1, 1]:

        h_n = 2^(a+b+1) G(n+a+1) G(n+b+1) / ((2n+a+b+1) G(n+a+b+1) n!)

    computed from log-gamma values, so it stays finite for large indices.
    """
    _check_jacobi(n, a, b)
    c = a + b + 1.0
    # (2n+c) G(n+c) reduces to G(c+1) at n = 0, which also covers c = 0
    tail = math.lgamma(c + 1.0) if n == 0 else math.log(2.0 * n + c) + math.lgamma(n + c)
    return (c * math.log(2.0) + math.lgamma(n + a + 1.0) + math.lgamma(n + b + 1.0)
            - math.lgamma(n + 1.0) - tail)


def gauss_rule(order: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the Gauss-Legendre rule of the given order
    mapped onto [lo, hi]; column arrays of panel ends give one row per
    panel."""
    import numpy as np

    if order < 1:
        raise DomainError(f"quadrature order must be >= 1, got {order}")
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * base_nodes, half * base_weights


def integrate(f, lo: float, hi: float, panels: int) -> tuple[float, float]:
    """Integrate f over [lo, hi] with a composite 12-point Gauss-Legendre
    rule on equal panels; no node touches an endpoint.

    f is called once per pass on the ndarray of all nodes.  Returns
    (value, err_estimate); the error estimate compares against a run
    with doubled panel count, whose value is the one returned.
    """
    if panels < 1:
        raise DomainError(f"panel count must be >= 1, got {panels}")
    import numpy as np

    def one_pass(n_panels: int) -> float:
        edges = np.linspace(lo, hi, n_panels + 1)
        nodes, weights = gauss_rule(12, edges[:-1, None], edges[1:, None])
        nodes = nodes.ravel()
        values = np.broadcast_to(np.asarray(f(nodes), dtype=float), nodes.shape)
        if not np.all(np.isfinite(values)):
            raise NonFinite("integrand returned a non-finite value at an interior node")
        return float(weights.ravel() @ values)

    coarse = one_pass(panels)
    fine = one_pass(2 * panels)
    return fine, abs(fine - coarse)
