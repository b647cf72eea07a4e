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
(and the CLI, which imports it eagerly) stays cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooSmall, NonFinite
from .poschl_teller import PtPotential


@dataclass(frozen=True)
class RadialOperator:
    """Symmetric tridiagonal discretization on the interior grid r_i = i*h."""

    n_points: int
    h: float
    diag: np.ndarray
    offdiag: float
    domain: tuple[float, float]


@dataclass(frozen=True)
class ConvergedEigenvalue:
    """One eigenvalue at step h and h/2 with its Richardson combination.

    order_estimate comes from an additional step-2h solve; it should sit
    near 2 for the three-point stencil.
    """

    eps_h: float
    eps_h2: float
    extrapolated: float
    order_estimate: float


def discretize(p: PtPotential, n_points: int) -> RadialOperator:
    """Three-point operator for the reduced equation with eps = 2mE."""
    if n_points < 100:
        raise GridTooSmall(f"need n_points >= 100, got {n_points}")
    length = p.r_max
    h = length / (n_points + 1)
    r = h * np.arange(1, n_points + 1)
    v_prime = p.v1_prime / np.sin(p.alpha * r) ** 2 + p.v2_prime / np.cos(p.alpha * r) ** 2
    if not np.all(np.isfinite(v_prime)):
        raise NonFinite("potential leaves floating-point range on the grid")
    return RadialOperator(
        n_points=n_points,
        h=h,
        diag=2.0 / (h * h) + v_prime,
        offdiag=-1.0 / (h * h),
        domain=(0.0, length),
    )


def lowest_eigenvalues(op: RadialOperator, count: int) -> list[float]:
    """The `count` smallest eigenvalues, ascending, by LAPACK dstebz.

    The absolute tolerance handed to dstebz is the smallest positive
    float, so its relative stopping rule governs: each eigenvalue is
    bracketed to about 2 ulp of its magnitude.
    """
    import scipy.linalg

    if not (1 <= count <= op.n_points):
        raise DomainError(f"need 1 <= count <= {op.n_points}, got {count}")
    values = scipy.linalg.eigvalsh_tridiagonal(
        op.diag, np.full(op.n_points - 1, op.offdiag), select="i",
        select_range=(0, count - 1), tol=np.finfo(float).tiny, lapack_driver="stebz")
    return values.tolist()


def richardson(e_h: float, e_h2: float, order: int = 2) -> float:
    """Eliminate the leading h^order error from a step-halving pair."""
    if not (math.isfinite(e_h) and math.isfinite(e_h2)):
        raise NonFinite(f"need finite inputs, got {e_h}, {e_h2}")
    factor = 2.0 ** order
    return (factor * e_h2 - e_h) / (factor - 1.0)


def converge_eigenvalue(p: PtPotential, index: int, n_points: int) -> ConvergedEigenvalue:
    """Eigenvalue `index` solved at steps 2h, h, h/2 (n_points must be odd
    so the coarse grid is exact), Richardson-combined over the finer pair."""
    if n_points % 2 == 0:
        raise DomainError(f"n_points must be odd for exact step halving, got {n_points}")
    coarse = (n_points - 1) // 2
    fine = 2 * n_points + 1
    e_2h = lowest_eigenvalues(discretize(p, coarse), index + 1)[index]
    e_h = lowest_eigenvalues(discretize(p, n_points), index + 1)[index]
    e_h2 = lowest_eigenvalues(discretize(p, fine), index + 1)[index]
    order = math.log2(abs(e_2h - e_h) / abs(e_h - e_h2))
    return ConvergedEigenvalue(
        eps_h=e_h,
        eps_h2=e_h2,
        extrapolated=richardson(e_h, e_h2),
        order_estimate=order,
    )


def eigenvector(op: RadialOperator, eigenvalue: float, iterations: int = 4) -> np.ndarray:
    """Unit eigenvector by inverse iteration at the converged eigenvalue.

    Each step is one LAPACK tridiagonal solve (gtsv, partial pivoting) of
    the shifted operator, which is nearly singular on purpose.  The shift
    sits 4 ulp off the eigenvalue, as close as dstebz resolves it, so an
    eigenvalue equal to a decoupled diagonal entry leaves a nonzero pivot
    instead of an exactly singular solve.
    """
    import scipy.linalg

    shifted = np.empty((3, op.n_points))
    shifted[0] = shifted[2] = op.offdiag
    shifted[1] = op.diag - (eigenvalue + 4.0 * np.spacing(eigenvalue))
    rng = np.random.default_rng(8671)
    v = rng.standard_normal(op.n_points)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v = scipy.linalg.solve_banded((1, 1), shifted, v)
        v /= np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return v


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
