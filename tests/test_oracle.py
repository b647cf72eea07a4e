import ast
import importlib.machinery
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import ptnu.oracle
from helpers import TABLE2_ALPHAS, count_sign_changes, eigenvector, reference_potential
from ptnu import (
    PtPotential,
    RadialOperator,
    discretize,
    energy_closed_form,
    lowest_eigenvalues,
    normalized_wavefunction,
    richardson,
)
from ptnu.errors import DomainError, NonFinite
from ptnu.oracle import ode_residual

PT_REF = reference_potential(1.2)


def box_operator(length: float, n_points: int) -> RadialOperator:
    """Zero-potential operator on (0, length); the free-particle box."""
    h = length / (n_points + 1)
    return RadialOperator(n_points=n_points, h=h,
                          diag=np.full(n_points, 2.0 / (h * h)),
                          offdiag=-1.0 / (h * h))


def box_discrete_eigenvalue(length: float, n_points: int, k: int) -> float:
    """Exact eigenvalue of the discrete three-point box operator."""
    h = length / (n_points + 1)
    return (4.0 / (h * h)) * math.sin(k * math.pi * h / (2.0 * length)) ** 2


# --- discretization ----------------------------------------------------------

def test_discretize_grid_spacing():
    op = discretize(PT_REF, 999)
    assert op.h == pytest.approx((math.pi / 2.4) / 1000.0, rel=1e-15)
    assert op.n_points == 999


def test_discretize_diag_at_midpoint():
    # with 999 points, grid index 500 sits exactly at pi/(4*alpha)
    op = discretize(PT_REF, 999)
    expected = 2.0 / op.h ** 2 + 2.0 * PT_REF.v1_prime + 2.0 * PT_REF.v2_prime
    assert op.diag[499] == pytest.approx(expected, rel=1e-12)


def test_discretize_symmetric_by_construction():
    op = discretize(PT_REF, 120)
    dense = np.diag(op.diag) + np.diag(np.full(op.n_points - 1, op.offdiag), 1) \
        + np.diag(np.full(op.n_points - 1, op.offdiag), -1)
    assert np.array_equal(dense, dense.T)


def test_discretize_rejects_small_grid():
    with pytest.raises(DomainError, match=r"need n_points >= 100, got 99"):
        discretize(PT_REF, 99)


def test_discretize_rejects_overflowing_potential():
    with pytest.raises(NonFinite):
        discretize(PtPotential(1e300, 1e10, 3.0, 1.2), 1000)


@pytest.mark.parametrize("alpha", [1e155, 1e160, 1e300])
def test_discretize_rejects_overflowing_kinetic_term(alpha):
    # 2/h^2 overflows at 1e155; h * h underflows to 0 from about 1e160
    with pytest.raises(NonFinite):
        discretize(reference_potential(alpha), 1000)


@pytest.mark.parametrize("alpha", [1e77, 1e150])
def test_lowest_eigenvalues_refuses_what_dstebz_cannot_count(alpha):
    # a finite operator whose squared off-diagonal overflows inside dstebz
    op = discretize(reference_potential(alpha), 1000)
    assert np.all(np.isfinite(op.diag)) and math.isfinite(op.offdiag)
    with pytest.raises(NonFinite):
        lowest_eigenvalues(op, 1)


@pytest.mark.parametrize("diag,offdiag", [
    (np.r_[1.0, np.nan, np.ones(148)], -1.0),
    (np.r_[np.ones(149), np.inf], -1.0),
    (np.ones(150), -np.inf),
    (np.ones(150), np.nan),
])
def test_lowest_eigenvalues_refuses_a_non_finite_operator(diag, offdiag):
    op = RadialOperator(n_points=150, h=1.0, diag=diag, offdiag=offdiag)
    with pytest.raises(NonFinite, match="NaN or infinite"):
        lowest_eigenvalues(op, 3)


@pytest.mark.parametrize("diag,n_points", [
    (np.ones(150), 200),
    (np.ones(200), 150),
    (np.ones((2, 75)), 150),
])
def test_lowest_eigenvalues_refuses_a_diagonal_of_the_wrong_shape(diag, n_points):
    # LAPACK's wrapper would flatten the 2-D diagonal and solve it
    op = RadialOperator(n_points=n_points, h=1.0, diag=diag, offdiag=-1.0)
    with pytest.raises(DomainError, match="shape"):
        lowest_eigenvalues(op, 3)


# --- eigenvalue extraction ---------------------------------------------------

def test_box_eigenvalues_match_discrete_closed_form():
    op = box_operator(1.0, 400)
    values = lowest_eigenvalues(op, 5)
    for k, value in enumerate(values, start=1):
        assert value == pytest.approx(box_discrete_eigenvalue(1.0, 400, k), rel=1e-10)


def test_box_eigenvalues_converge_to_continuum():
    length = math.pi
    coarse = lowest_eigenvalues(box_operator(length, 400), 4)
    fine = lowest_eigenvalues(box_operator(length, 801), 4)
    for k in range(1, 5):
        exact = (k * math.pi / length) ** 2
        raw_err = abs(coarse[k - 1] - exact) / exact
        extrapolated = richardson(coarse[k - 1], fine[k - 1])
        assert raw_err < 1e-4
        assert abs(extrapolated - exact) / exact < 1e-6
        assert abs(extrapolated - exact) < 0.01 * abs(coarse[k - 1] - exact)


def test_eigenvalues_strictly_increasing():
    values = lowest_eigenvalues(discretize(PT_REF, 800), 7)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sturm_bisection_matches_dense_solver():
    rng = np.random.default_rng(17)
    diag = rng.uniform(0.0, 10.0, 200)
    offdiag = -0.8
    op = RadialOperator(n_points=200, h=1.0, diag=diag, offdiag=offdiag)
    dense = np.diag(diag) + np.diag(np.full(199, offdiag), 1) + np.diag(np.full(199, offdiag), -1)
    expected = np.sort(np.linalg.eigvalsh(dense))[:6]
    values = lowest_eigenvalues(op, 6)
    np.testing.assert_allclose(values, expected, rtol=1e-10, atol=1e-10)


def test_pt_eigenvalues_match_dense_solver():
    op = discretize(PT_REF, 1201)
    dense = np.diag(op.diag) + np.diag(np.full(1200, op.offdiag), 1) \
        + np.diag(np.full(1200, op.offdiag), -1)
    expected = np.linalg.eigvalsh(dense)[:7]
    np.testing.assert_allclose(lowest_eigenvalues(op, 7), expected, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("n_points", [1000, 2001])
@pytest.mark.parametrize("alpha", TABLE2_ALPHAS)
def test_dstebz_is_the_call_scipy_linalg_makes(alpha, n_points):
    # bit for bit, with scipy.linalg and its own copy of the extension loaded
    # in the same process beside the one the oracle loads from the file
    import scipy.linalg

    op = discretize(reference_potential(alpha), n_points)
    expected = scipy.linalg.eigvalsh_tridiagonal(
        op.diag, np.full(n_points - 1, op.offdiag), select="i", select_range=(0, 6),
        tol=np.finfo(float).tiny, lapack_driver="stebz")
    assert lowest_eigenvalues(op, 7) == expected.tolist()


@pytest.mark.parametrize("finder", [importlib.util, importlib.machinery.PathFinder])
def test_lapack_loader_names_scipy_when_it_is_missing(monkeypatch, finder):
    # scipy absent, or present without its compiled linalg/_flapack; the
    # cached loader is bypassed, so no later test sees the patched finder
    monkeypatch.setattr(finder, "find_spec", lambda *args, **kwargs: None)
    with pytest.raises(ModuleNotFoundError, match="scipy") as caught:
        ptnu.oracle._flapack.__wrapped__()
    assert caught.value.name == "scipy"


def test_lowest_eigenvalues_count_bounds():
    op = box_operator(1.0, 150)
    with pytest.raises(DomainError):
        lowest_eigenvalues(op, 0)
    with pytest.raises(DomainError):
        lowest_eigenvalues(op, 151)


# --- Richardson extrapolation ------------------------------------------------

def test_richardson_fixed_point():
    assert richardson(4.2, 4.2) == 4.2


def test_richardson_cancels_pure_quadratic_error():
    delta = 1e-3
    assert richardson(4.0 + 4.0 * delta, 4.0 + delta) == pytest.approx(4.0, abs=1e-15)


def test_richardson_rejects_nonfinite():
    with pytest.raises(NonFinite):
        richardson(math.nan, 1.0)


def test_step_halving_order_and_value():
    # steps 2h, h and h/2: 500, 1001 and 2003 interior points on one well
    e_2h, e_h, e_h2 = (lowest_eigenvalues(discretize(PT_REF, n), 1)[0] for n in (500, 1001, 2003))
    order = math.log2(abs(e_2h - e_h) / abs(e_h - e_h2))
    assert 1.7 <= order <= 2.3
    exact = 2.0 * PT_REF.m * energy_closed_form(PT_REF, 0)
    extrapolated = richardson(e_h, e_h2)
    assert extrapolated == pytest.approx(exact, rel=1e-7)
    assert abs(extrapolated - exact) < abs(e_h - exact)
    assert abs(e_h2 - exact) < abs(e_h - exact)


# --- eigenvectors ------------------------------------------------------------

def test_box_eigenvector_modes():
    length = 1.0
    op = box_operator(length, 301)
    values = lowest_eigenvalues(op, 4)
    grid = op.h * np.arange(1, op.n_points + 1)
    for k, eps in enumerate(values, start=1):
        mode = eigenvector(op, eps)
        assert count_sign_changes(mode) == k - 1
        analytic = np.sin(k * math.pi * grid / length)
        analytic /= np.linalg.norm(analytic)
        assert abs(abs(mode @ analytic) - 1.0) < 1e-8


def test_eigenvector_at_decoupled_diagonal_entry():
    # zero coupling: the eigenvalue equals a diagonal entry exactly
    op = RadialOperator(n_points=200, h=1.0, diag=np.arange(200.0), offdiag=0.0)
    mode = eigenvector(op, 3.0)
    assert np.argmax(np.abs(mode)) == 3 and mode[3] == pytest.approx(1.0, abs=1e-12)


def test_pt_eigenvector_oscillation():
    op = discretize(PT_REF, 1201)
    values = lowest_eigenvalues(op, 6)
    for k, eps in enumerate(values, start=1):
        assert count_sign_changes(eigenvector(op, eps)) == k - 1


# Worst overlap deficit over n = 0..6 at N = 8000, about 3 times the measured
# 1.6e-12, 3.3e-12, 1.2e-11, 4.5e-11, 4.2e-9 and 4.2e-7; it falls as h^4.
STATE_DEFICIT = {1.2: 5e-12, 0.8: 1e-11, 0.4: 4e-11, 0.2: 1.5e-10, 0.02: 1.3e-8, 0.002: 1.3e-6}


@pytest.mark.parametrize("alpha", STATE_DEFICIT)
def test_eigenvectors_match_the_nu_states(alpha):
    # the oracle's eigenvector v against u = sqrt(h) R_NU(r_i), the NU state
    # sampled on the same grid, for every Table-2 state of this alpha
    p = reference_potential(alpha)
    op = discretize(p, 8000)
    r = op.h * np.arange(1, op.n_points + 1)
    for n, eps in enumerate(lowest_eigenvalues(op, 7)):
        v = eigenvector(op, eps)
        radial = normalized_wavefunction(p, n)[1](r)
        u = math.sqrt(op.h) * radial
        assert 1.0 - abs(u @ v) / np.linalg.norm(u) <= STATE_DEFICIT[alpha], n
        assert count_sign_changes(v) == n
        assert abs(op.h * np.sum(radial ** 2) - 1.0) <= 1e-10, n


# --- ODE defect --------------------------------------------------------------

def test_ode_residual_exact_eigenpair():
    p = PT_REF
    samples = np.linspace(0.02, p.r_max - 0.02, 50)
    for n in (0, 1):
        residual = ode_residual(normalized_wavefunction(p, n)[1], p, energy_closed_form(p, n), samples)
        assert residual <= 1e-6


def test_ode_residual_detects_wrong_energy():
    p = PT_REF
    samples = np.linspace(0.02, p.r_max - 0.02, 50)
    residual = ode_residual(normalized_wavefunction(p, 0)[1], p, energy_closed_form(p, 0) + 0.1, samples)
    assert residual >= 1e-2


def test_ode_residual_rejects_zero_function():
    p = PT_REF
    samples = np.linspace(0.1, p.r_max - 0.1, 10)
    with pytest.raises(NonFinite):
        ode_residual(lambda r: np.zeros_like(np.asarray(r, dtype=float)), p, 1.0, samples)


def test_ode_residual_rejects_edge_samples():
    p = PT_REF
    with pytest.raises(DomainError):
        ode_residual(normalized_wavefunction(p, 0)[1], p, 1.0, [1e-5 * p.r_max])
    with pytest.raises(DomainError):
        ode_residual(normalized_wavefunction(p, 0)[1], p, 1.0, [])


# --- independence ------------------------------------------------------------

def test_oracle_imports_stay_independent():
    # no path to the NU engine or the closed form, and no scipy import at all:
    # dstebz comes from scipy's extension file, loaded without scipy's package code
    tree = ast.parse(Path(ptnu.oracle.__file__).read_text(encoding="utf-8"))
    in_package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("ptnu")):
            in_package.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert in_package == {"errors.DomainError", "errors.NonFinite", "poschl_teller.PtPotential"}
    scipy_imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                     and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
                     or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")]
    assert scipy_imports == []
