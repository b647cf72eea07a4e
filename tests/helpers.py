"""Shared fixtures: published spectrum strings and small numeric utilities,
and an inverse-iteration eigenvector of the finite-difference operator."""
import itertools

import numpy as np

from ptnu import PtPotential
from ptnu.special_functions import integrate

# Bound-state levels E_n (fm^-1) for m=10, V1=5, V2=3 as published, one
# column string per alpha.  The n=3, alpha=0.8 entry is printed with only
# seven decimals in the source.
TABLE2_ALPHAS = (1.2, 0.8, 0.4, 0.2, 0.02, 0.002)
TABLE2_STRINGS = {
    1.2: ("18.02560022", "22.87051710", "28.29143398", "34.28835086",
          "40.86126774", "48.01018462", "55.73510150"),
    0.8: ("17.23163309", "20.32991862", "23.68420415", "27.2944896",
          "31.16077522", "35.28306074", "39.66134628"),
    0.4: ("16.47211973", "17.95616357", "19.50420742", "21.11625126",
          "22.79229510", "24.53233894", "26.33638278"),
    0.2: ("16.10494172", "16.83082621", "17.57271070", "18.33059518",
          "19.10447967", "19.89436416", "20.70024864"),
    0.02: ("15.78149898", "15.85264289", "15.92394680", "15.99541071",
           "16.06703463", "16.13881854", "16.21076245"),
    0.002: ("15.74951629", "15.75661628", "15.76371786", "15.77082105",
            "15.77792584", "15.78503222", "15.79214021"),
}

M_REF, V1_REF, V2_REF = 10.0, 5.0, 3.0

# (m, V1, V2, alpha) at the corners of the box the property tests draw from
BOX_CORNERS = tuple(itertools.product((1.0, 20.0), (0.5, 10.0), (0.5, 10.0), (0.002, 1.5)))
# corners of the wider box on which the NU root and the norm alone are checked
WIDE_CORNERS = tuple(itertools.product((0.1, 50.0), (0.01, 100.0), (0.01, 100.0), (1e-4, 3.2)))


def reference_potential(alpha: float) -> PtPotential:
    return PtPotential(M_REF, V1_REF, V2_REF, alpha)


def count_sign_changes(values, floor_rel: float = 1e-9) -> int:
    """Sign alternations among entries above a relative magnitude floor."""
    values = np.asarray(values, dtype=float)
    floor = floor_rel * np.max(np.abs(values))
    signs = np.sign(values[np.abs(values) > floor])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def matches_printed(value: float, printed: str) -> bool:
    """String-level comparison at the printed precision, allowing the
    published figure to be off by one unit in its last digit."""
    decimals = len(printed.split(".")[1])
    mine = f"{value:.{decimals}f}"
    if mine == printed:
        return True
    return abs(int(mine.replace(".", "")) - int(printed.replace(".", ""))) == 1


def state_window(r_fn, r_max: float) -> tuple[float, float]:
    """(lo, hi) of the part of the well (0, r_max) where the state r_fn
    lives: a uniform scan locates where |r_fn| exceeds 1e-10 of its peak,
    and the window widens that by one scan step on each side.  Outside it
    the state is negligible."""
    edges = np.linspace(0.0, r_max, 20_001)
    values = np.abs(r_fn(edges[1:-1]))
    inside = np.flatnonzero(values >= 1e-10 * values.max())
    # sample k sits at edges[k + 1]
    return edges[inside[0]], edges[inside[-1] + 2]


def norm_by_quadrature(r_fn, r_max: float, panels: int = 64) -> float:
    """Integral of r_fn^2 over the well (0, r_max), independent of any
    closed-form norm.

    `panels` uniform Gauss-Legendre panels cover `state_window`, so they
    stay fine where the state lives even at small alpha; states with
    hundreds of nodes need more than the 64.
    """
    return integrate(lambda r: r_fn(r) ** 2, *state_window(r_fn, r_max), panels)[0]


def eigenvector(op, eigenvalue: float) -> np.ndarray:
    """Unit eigenvector of the `ptnu.RadialOperator` op by inverse iteration
    at the converged eigenvalue.

    Each of the four steps is one LAPACK tridiagonal solve (gtsv, partial
    pivoting) of the shifted operator, which is nearly singular on
    purpose.  The shift sits 4 ulp off the eigenvalue, as close as dstebz
    resolves it, so an eigenvalue equal to a decoupled diagonal entry
    leaves a nonzero pivot instead of an exactly singular solve.
    """
    import scipy.linalg

    shifted = np.empty((3, op.n_points))
    shifted[0] = shifted[2] = op.offdiag
    shifted[1] = op.diag - (eigenvalue + 4.0 * np.spacing(eigenvalue))
    rng = np.random.default_rng(8671)
    v = rng.standard_normal(op.n_points)
    v /= np.linalg.norm(v)
    for _ in range(4):
        v = scipy.linalg.solve_banded((1, 1), shifted, v)
        v /= np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return v
