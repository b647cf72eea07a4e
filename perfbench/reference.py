"""References computed apart from ptnu, and the checks that use them.

Energies come from the Poschl-Teller closed form written in the strength
form E_n = alpha^2/(2m) * (kappa + lambda + 2n)^2, with
kappa(kappa - 1) = 2 m V1 / alpha^2 and likewise lambda for V2, evaluated
with mpmath at 40 significant digits.  That is a different arrangement
of the paper's formula than the one ptnu codes, so a slip in either
shows.  Norms and overlaps use this module's own composite
Gauss-Legendre grid, placed around the well minimum found here.
Nothing is compared with saved ptnu output.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

# The paper's potential (fm^-1) and its published Table 2: E_n for
# n = 0..6, one column per alpha.  The n = 3, alpha = 0.8 entry carries
# only seven decimals in the source; several published figures are off
# by one unit in their last digit.
PAPER = (10.0, 5.0, 3.0)
TABLE2_ALPHAS = (1.2, 0.8, 0.4, 0.2, 0.02, 0.002)
TABLE2 = {
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

NU_BAND = 1e-9
ORACLE_BAND = 1e-4
CLOSED_BAND = 1e-12
NORM_BAND = 1e-7
OVERLAP_BAND = 1e-7


def energy(m: float, v1: float, v2: float, alpha: float, n: int) -> float:
    """E_n (fm^-1) at 40 digits, rounded once to a double."""
    with mpmath.workdps(40):
        m, v1, v2, a = (mpmath.mpf(x) for x in (m, v1, v2, alpha))
        kappa = (1 + mpmath.sqrt(1 + 8 * m * v1 / a ** 2)) / 2
        lam = (1 + mpmath.sqrt(1 + 8 * m * v2 / a ** 2)) / 2
        return float(a ** 2 / (2 * m) * (kappa + lam + 2 * n) ** 2)


def well_floor(v1: float, v2: float) -> float:
    """Minimum of the potential, (sqrt V1 + sqrt V2)^2."""
    return (math.sqrt(v1) + math.sqrt(v2)) ** 2


def published_problems() -> list[str]:
    """The 42 published strings against the reference: each within one
    unit of its last printed digit (plus half a unit for rounding)."""
    problems = []
    for alpha, column in TABLE2.items():
        for n, text in enumerate(column):
            unit = 10.0 ** -len(text.split(".")[1])
            if abs(energy(*PAPER, alpha, n) - float(text)) > 1.5 * unit:
                problems.append(f"published E_{n}(alpha={alpha}) = {text} disagrees with the reference")
    return problems


def published_problem(label: str, alpha: float, n: int, value: float) -> list[str]:
    """`value`, rounded to the published decimals, must be within one unit
    of the last digit of the published E_n at the paper's potential."""
    text = TABLE2[alpha][n]
    unit = 10.0 ** -len(text.split(".")[1])
    if abs(round(value / unit) * unit - float(text)) <= 1.01 * unit:
        return []
    return [f"{label} = {value!r} misses the published {text}"]


def relative_problem(label: str, value: float, ref: float, band: float) -> list[str]:
    if math.isfinite(value) and abs(value - ref) <= band * abs(ref):
        return []
    return [f"{label} = {value!r}, reference {ref!r}, band {band:g}"]


def printed_problem(label: str, token: str, ref: float) -> list[str]:
    """A printed number must equal the reference to its last printed
    digit: off by at most half a unit there, plus double rounding."""
    decimals = len(token.split(".")[1]) if "." in token else 0
    value = float(token)
    slack = 0.5 * 10.0 ** -decimals * (1 + 1e-6) + 4e-15 * abs(ref)
    if math.isfinite(value) and abs(value - ref) <= slack:
        return []
    return [f"{label} printed {token}, reference {ref!r}"]


def ladder_problems(label: str, energies: list[float], v1: float, v2: float) -> list[str]:
    """Levels rise strictly with n and sit above the well floor."""
    problems = []
    if not energies[0] > well_floor(v1, v2):
        problems.append(f"{label}: E_0 = {energies[0]} not above the floor {well_floor(v1, v2)}")
    if any(not b > a for a, b in zip(energies, energies[1:])):
        problems.append(f"{label}: levels not strictly increasing: {energies}")
    return problems


_BASE_NODES, _BASE_WEIGHTS = np.polynomial.legendre.leggauss(40)


def state_grid(m: float, v1: float, v2: float, alpha: float, n_max: int,
               panels: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals of states n <= n_max.

    The grid spans the harmonic turning region of level n_max around the
    well minimum, widened by ten oscillator lengths and clipped to the
    well; all nodes are interior.
    """
    r_max = math.pi / (2.0 * alpha)
    x0 = math.atan((v1 / v2) ** 0.25)
    csc2, sec2 = 1.0 / math.sin(x0) ** 2, 1.0 / math.cos(x0) ** 2
    curvature = alpha ** 2 * (v1 * (4 * csc2 / math.tan(x0) ** 2 + 2 * csc2 ** 2)
                              + v2 * (4 * sec2 * math.tan(x0) ** 2 + 2 * sec2 ** 2))
    sigma = (m * curvature) ** -0.25
    half = (math.sqrt(2 * n_max + 1) + 10.0) * sigma
    lo = max(0.0, x0 / alpha - half)
    hi = min(r_max, x0 / alpha + half)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])[:, None]
    halves = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = (mids + halves * _BASE_NODES).ravel()
    weights = (halves * _BASE_WEIGHTS).ravel()
    return nodes, weights


def sign_changes(values) -> int:
    """Sign alternations among samples above 1e-9 of the peak magnitude."""
    values = np.asarray(values, dtype=float)
    kept = np.sign(values[np.abs(values) > 1e-9 * np.max(np.abs(values))])
    return int(np.sum(kept[1:] * kept[:-1] < 0))
