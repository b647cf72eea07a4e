"""Independent finite-difference verification of the s-wave spectrum.

Discretizes -R'' + V'(r) R = eps R on a uniform grid over the principal
well with Dirichlet ends (the exact solutions vanish at both singular
endpoints with positive fractional powers), then extracts the lowest
eigenvalues of the symmetric tridiagonal operator with LAPACK's dstebz:
bisection on the Sturm negative-pivot count of the LDL^T factorization
(Barth, Martin and Wilkinson 1967).  Second-order accuracy is recovered
to fourth order by Richardson extrapolation over a grid doubling.

Nothing here touches the template pipeline: agreement with the closed
form certifies it through an unrelated computational path.  scipy is
imported inside the functions that use it, so importing this module
stays cheap; the CLI imports it only for `verify`.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, NonFinite

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .poschl_teller import PtPotential


class RadialOperator(namedtuple("RadialOperator", "n_points h diag offdiag")):
    """Symmetric tridiagonal discretization on the interior grid r_i = i*h:
    n_points, the step h, the diagonal (an ndarray) and the constant
    off-diagonal entry; an immutable tuple with named fields."""

    __slots__ = ()


def discretize(p: PtPotential, n_points: int) -> RadialOperator:
    """Three-point operator for the reduced equation with eps = 2mE."""
    if n_points < 100:
        raise DomainError(f"need n_points >= 100, got {n_points}")
    h = p.r_max / (n_points + 1)
    r = h * np.arange(1, n_points + 1)
    with np.errstate(all="ignore"):  # the check below refuses what leaves float range
        v_prime = p.v1_prime / np.sin(p.alpha * r) ** 2 + p.v2_prime / np.cos(p.alpha * r) ** 2
    # h * h underflows to 0, and 2/h^2 overflows, for alpha beyond about 1e154
    diag = (2.0 / (h * h) if h * h > 0.0 else math.inf) + v_prime
    if not np.all(np.isfinite(diag)):
        raise NonFinite("operator leaves floating-point range on the grid")
    return RadialOperator(n_points=n_points, h=h, diag=diag, offdiag=-1.0 / (h * h))


def lowest_eigenvalues(op: RadialOperator, count: int) -> list[float]:
    """The `count` smallest eigenvalues, ascending, by LAPACK dstebz.

    The absolute tolerance handed to dstebz is the smallest positive
    float, so its relative stopping rule governs: each eigenvalue is
    bracketed to about 2 ulp of its magnitude.  dstebz gives up (raised
    here as NonFinite) where the square of an off-diagonal entry
    overflows, for alpha beyond about 1e76.
    """
    import scipy.linalg

    if not (1 <= count <= op.n_points):
        raise DomainError(f"need 1 <= count <= {op.n_points}, got {count}")
    try:
        values = scipy.linalg.eigvalsh_tridiagonal(
            op.diag, np.full(op.n_points - 1, op.offdiag), select="i",
            select_range=(0, count - 1), tol=np.finfo(float).tiny, lapack_driver="stebz")
    except np.linalg.LinAlgError as exc:
        raise NonFinite(f"dstebz failed on this operator: {exc}") from exc
    return values.tolist()


def richardson(e_h: float, e_h2: float) -> float:
    """Eliminate the leading h^2 error of the three-point operator from a
    step-halving pair."""
    if not (math.isfinite(e_h) and math.isfinite(e_h2)):
        raise NonFinite(f"need finite inputs, got {e_h}, {e_h2}")
    return (4.0 * e_h2 - e_h) / 3.0


def ode_residual(wavefunction, p: PtPotential, energy: float, samples) -> float:
    """Scaled worst-case defect of R'' + (eps - V')R over the samples.

    The second derivative uses the centered fourth-order five-point
    stencil with step 1e-4 of the well width; samples must keep at least
    1e-3 of the well width away from both singular endpoints.
    """
    length = p.r_max
    margin = 1e-3 * length
    step = 1e-4 * length
    r = np.asarray(samples, dtype=float)
    if r.size == 0:
        raise DomainError("need at least one sample")
    if np.any(r <= margin) or np.any(r >= length - margin):
        raise DomainError(f"samples must lie in ({margin}, {length - margin})")
    eps = 2.0 * p.m * energy
    values = np.asarray(wavefunction(r), dtype=float)
    second = (-wavefunction(r - 2 * step) + 16.0 * wavefunction(r - step)
              - 30.0 * values + 16.0 * wavefunction(r + step)
              - wavefunction(r + 2 * step)) / (12.0 * step * step)
    v_prime = p.v1_prime / np.sin(p.alpha * r) ** 2 + p.v2_prime / np.cos(p.alpha * r) ** 2
    defect = second + (eps - v_prime) * values
    peak = float(np.max(np.abs(values)))
    if peak == 0.0 or not np.all(np.isfinite(defect)):
        raise NonFinite("wavefunction vanished on all samples or defect not finite")
    return float(np.max(np.abs(defect))) / peak
