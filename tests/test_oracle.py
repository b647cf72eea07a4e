import ast
import importlib.machinery
import importlib.util
import math
import types
from pathlib import Path

import numpy as np
import pytest

import ptnu.oracle
from helpers import TABLE2_ALPHAS, count_sign_changes, eigenvector, reference_potential
from ptnu import (
    PtPotential,
    discretize,
    energy_closed_form,
    lowest_eigenvalues,
    normalized_wavefunction,
    richardson,
)
from ptnu.errors import DomainError, NonConvergence, NonFinite
from ptnu.oracle import levels_near, ode_residual

PT_REF = reference_potential(1.2)


def box_operator(length: float, n_points: int) -> tuple[np.ndarray, float]:
    """Zero-potential operator (diag, offdiag) on (0, length); the
    free-particle box."""
    h = length / (n_points + 1)
    return np.full(n_points, 2.0 / (h * h)), -1.0 / (h * h)


def box_discrete_eigenvalue(length: float, n_points: int, k: int) -> float:
    """Exact eigenvalue of the discrete three-point box operator."""
    h = length / (n_points + 1)
    return (4.0 / (h * h)) * math.sin(k * math.pi * h / (2.0 * length)) ** 2


# --- discretization ----------------------------------------------------------

def test_discretize_grid_spacing():
    diag, offdiag = discretize(PT_REF, 999)
    h = PT_REF.r_max / 1000.0
    assert h == pytest.approx((math.pi / 2.4) / 1000.0, rel=1e-15)
    assert len(diag) == 999
    assert offdiag == -1.0 / (h * h)


def test_discretize_diag_at_midpoint():
    # with 999 points, grid index 500 sits exactly at pi/(4*alpha)
    diag, _ = discretize(PT_REF, 999)
    h = PT_REF.r_max / 1000.0
    expected = 2.0 / h ** 2 + 2.0 * PT_REF.v1_prime + 2.0 * PT_REF.v2_prime
    assert diag[499] == pytest.approx(expected, rel=1e-12)


def test_discretize_symmetric_by_construction():
    diag, offdiag = discretize(PT_REF, 120)
    dense = np.diag(diag) + np.diag(np.full(119, offdiag), 1) + np.diag(np.full(119, offdiag), -1)
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
    diag, offdiag = discretize(reference_potential(alpha), 1000)
    assert np.all(np.isfinite(diag)) and math.isfinite(offdiag)
    with pytest.raises(NonFinite):
        lowest_eigenvalues(diag, offdiag, 1)


@pytest.mark.parametrize("diag,offdiag", [
    (np.r_[1.0, np.nan, np.ones(148)], -1.0),
    (np.r_[np.ones(149), np.inf], -1.0),
    (np.ones(150), -np.inf),
    (np.ones(150), np.nan),
])
def test_lowest_eigenvalues_refuses_a_non_finite_operator(diag, offdiag):
    with pytest.raises(NonFinite, match="NaN or infinite"):
        lowest_eigenvalues(diag, offdiag, 3)


def test_lowest_eigenvalues_refuses_a_diagonal_of_the_wrong_shape():
    # LAPACK's wrapper would flatten the 2-D diagonal and solve it
    with pytest.raises(DomainError, match="shape"):
        lowest_eigenvalues(np.ones((2, 75)), -1.0, 3)


def test_a_list_diagonal_gives_the_levels_of_the_array():
    levels = lowest_eigenvalues(np.full(150, 2.0), -1.0, 3)
    assert lowest_eigenvalues([2.0] * 150, -1.0, 3) == levels
    assert levels_near([2.0] * 150, -1.0, levels) == levels_near(np.full(150, 2.0), -1.0, levels)


# --- eigenvalue extraction ---------------------------------------------------

def test_box_eigenvalues_match_discrete_closed_form():
    values = lowest_eigenvalues(*box_operator(1.0, 400), 5)
    for k, value in enumerate(values, start=1):
        assert value == pytest.approx(box_discrete_eigenvalue(1.0, 400, k), rel=1e-10)


def test_box_eigenvalues_converge_to_continuum():
    length = math.pi
    coarse = lowest_eigenvalues(*box_operator(length, 400), 4)
    fine = lowest_eigenvalues(*box_operator(length, 801), 4)
    for k in range(1, 5):
        exact = (k * math.pi / length) ** 2
        raw_err = abs(coarse[k - 1] - exact) / exact
        extrapolated = richardson(coarse[k - 1], fine[k - 1])
        assert raw_err < 1e-4
        assert abs(extrapolated - exact) / exact < 1e-6
        assert abs(extrapolated - exact) < 0.01 * abs(coarse[k - 1] - exact)


def test_eigenvalues_strictly_increasing():
    values = lowest_eigenvalues(*discretize(PT_REF, 800), 7)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sturm_bisection_matches_dense_solver():
    rng = np.random.default_rng(17)
    diag = rng.uniform(0.0, 10.0, 200)
    offdiag = -0.8
    dense = np.diag(diag) + np.diag(np.full(199, offdiag), 1) + np.diag(np.full(199, offdiag), -1)
    expected = np.sort(np.linalg.eigvalsh(dense))[:6]
    values = lowest_eigenvalues(diag, offdiag, 6)
    np.testing.assert_allclose(values, expected, rtol=1e-10, atol=1e-10)


def test_pt_eigenvalues_match_dense_solver():
    diag, offdiag = discretize(PT_REF, 1201)
    dense = np.diag(diag) + np.diag(np.full(1200, offdiag), 1) + np.diag(np.full(1200, offdiag), -1)
    expected = np.linalg.eigvalsh(dense)[:7]
    np.testing.assert_allclose(lowest_eigenvalues(diag, offdiag, 7), expected, rtol=1e-11, atol=0.0)


def sturm_level(diag: np.ndarray, offdiag: float, n: int, guess: float) -> float:
    """Level n of the float matrix (diag, offdiag) by bisection on a Sturm
    count in 120-bit arithmetic (mpmath), from a bracket of 1e-10 of `guess`
    down to two adjacent floats: the lower of the two."""
    from mpmath.libmp import from_float, mpf_div, mpf_mul, mpf_sub, round_nearest

    def sub(a, b):
        return mpf_sub(a, b, 120, round_nearest)

    diag = [from_float(float(d)) for d in diag]
    e2 = mpf_mul(from_float(offdiag), from_float(offdiag), 120, round_nearest)  # exact
    pivmin = from_float(1e-300)

    def below(sigma: float) -> int:
        # negative pivots of the LDL^T factorization of op - sigma
        s = from_float(sigma)
        q = sub(diag[0], s)
        count = q[0]
        for d in diag[1:]:
            q = sub(sub(d, s), mpf_div(e2, q if q[1] else pivmin, 120, round_nearest))
            count += q[0]
        return count

    lo, hi = guess * (1.0 - 1e-10), guess * (1.0 + 1e-10)
    assert below(lo) <= n < below(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if below(mid) > n else (mid, hi)
    return lo


@pytest.mark.parametrize("seeded", [False, True], ids=["full", "seeded"])
@pytest.mark.parametrize("n_points", [1000, 2001])
@pytest.mark.parametrize("alpha", [1.2, 0.8, 0.002])
def test_levels_match_a_120_bit_sturm_bisection(alpha, n_points, seeded):
    # dstebz run to its smallest tolerance misses these by up to 1,069 ulp.
    # Seeded from the grid of half as many points: at alpha = 0.002 and 1000
    # points that grid is pre-asymptotic, and its guesses for levels 3-6
    # lead inverse iteration to the wrong levels
    p = reference_potential(alpha)
    op = discretize(p, n_points)
    if seeded:
        values = levels_near(*op, lowest_eigenvalues(*discretize(p, n_points // 2), 7))
    else:
        values = lowest_eigenvalues(*op, 7)
    for n in (0, 6):
        reference = sturm_level(*op, n, values[n])
        assert abs(values[n] - reference) <= 32 * math.ulp(reference), n


def test_deep_narrow_well_level_to_a_few_ulp():
    # levels 6e-6 of their size apart, closer than the first tolerance, so
    # bisected again; one inverse-iteration solve leaves level 3 off by
    # 2.7e7 ulp, two by 32 ulp, and three by 1 ulp
    p = PtPotential(37.40080230836497, 52.543716591865326, 1.1974888510768515,
                    0.00011597527969131442)
    op = discretize(p, 4000)
    value = lowest_eigenvalues(*op, 4)[3]
    reference = sturm_level(*op, 3, value)
    assert abs(value - reference) <= 8 * math.ulp(reference)


def test_symmetric_well_keeps_its_odd_states():
    # V1 = V2: every odd state is antisymmetric about the midpoint of the
    # well, and the start vector must reach it as well as the even ones
    diag, offdiag = discretize(PtPotential(10.0, 4.0, 4.0, 0.8), 1201)
    dense = np.diag(diag) + np.diag(np.full(1200, offdiag), 1) + np.diag(np.full(1200, offdiag), -1)
    expected = np.linalg.eigvalsh(dense)[:7]
    np.testing.assert_allclose(lowest_eigenvalues(diag, offdiag, 7), expected, rtol=1e-11, atol=0.0)


def test_box_levels_to_a_few_ulp():
    # V' = 0: diag - 2c is exactly zero, so the levels are 4c sin^2(k pi / (2n + 2))
    diag, offdiag = box_operator(1.0, 400)
    for k, value in enumerate(lowest_eigenvalues(diag, offdiag, 7), start=1):
        exact = -4.0 * offdiag * math.sin(k * math.pi / 802) ** 2
        assert abs(value - exact) <= 8 * math.ulp(exact), k


def test_levels_at_exact_diagonal_entries_stay_finite():
    # zero coupling: every shift equals a diagonal entry, so its
    # factorization has an exact zero pivot
    values = lowest_eigenvalues(np.arange(200.0), 0.0, 7)
    assert np.all(np.isfinite(values))
    np.testing.assert_allclose(values, np.arange(7.0), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("p,n_points", [
    (PtPotential(10.0, 5.0, 3.0, 1e-100), 1000),
    (PtPotential(10.0, 5.0, 3.0, 1e-100), 2001),
    (PtPotential(50.0, 100.0, 100.0, 1e-59), 2000),
])
def test_levels_at_near_singular_shifts_stay_on_the_diagonal(p, n_points):
    # a coupling of 1e-200 or less: the levels are the diagonal entries, and
    # each shift lands on one, where the row swap of the factorization
    # leaves a pivot near 1e-174 instead of an exact zero
    diag, offdiag = discretize(p, n_points)
    expected = np.sort(diag)[:7]
    values = lowest_eigenvalues(diag, offdiag, 7)
    for n, (value, level) in enumerate(zip(values, expected)):
        assert abs(value - level) <= 4 * math.ulp(level), n


def test_levels_closer_than_the_first_tolerance_are_bisected_again():
    # two levels 1e-9 apart, well inside the first bracket width, and both
    # kept apart to the last bit
    diag = np.r_[1.0, 1.0 + 1e-9, np.arange(2.0, 200.0)]
    assert lowest_eigenvalues(diag, 0.0, 4) == diag[:4].tolist()


def test_a_refined_level_outside_its_bracket_raises(monkeypatch):
    # a bisection that returns every level half a gap too high: inverse
    # iteration still finds the true level, which the guard refuses
    lapack = ptnu.oracle._flapack()

    def dstebz(*args):
        m, values, iblock, isplit, info = lapack.dstebz(*args)
        return m, values + 1.0, iblock, isplit, info

    monkeypatch.setattr(ptnu.oracle, "_flapack", lambda: types.SimpleNamespace(
        dstebz=dstebz, dgttrf=lapack.dgttrf, dgttrs=lapack.dgttrs))
    with pytest.raises(NonConvergence, match="left the bracket"):
        lowest_eigenvalues(*box_operator(math.pi, 400), 3)


# --- levels seeded from a nearby operator -------------------------------------

@pytest.mark.parametrize("n_points", [1000, 2000])
@pytest.mark.parametrize("alpha", TABLE2_ALPHAS)
def test_seeded_levels_match_lowest_eigenvalues(alpha, n_points):
    # every Table-2 cell, seeded from the grid of half as many points
    p = reference_potential(alpha)
    op = discretize(p, n_points)
    expected = lowest_eigenvalues(*op, 7)
    values = levels_near(*op, lowest_eigenvalues(*discretize(p, n_points // 2), 7))
    for n, (value, level) in enumerate(zip(values, expected)):
        assert abs(value - level) <= 8 * math.ulp(level), n


def seeds_and_fine_grid(p: PtPotential, n_points: int, count: int):
    """The levels of the n_points grid and the operator of the 2N+1 grid,
    the pair `certify` solves."""
    return lowest_eigenvalues(*discretize(p, n_points), count), discretize(p, 2 * n_points + 1)


def test_guesses_that_skip_a_level_give_the_full_solve():
    # every guess one level high: each refines to a true level, but the
    # count below the last finds one level more than asked for
    coarse, op = seeds_and_fine_grid(PT_REF, 1000, 8)
    assert levels_near(*op, coarse[1:]) == lowest_eigenvalues(*op, 7)


def test_a_repeated_guess_gives_the_full_solve():
    # level 0's guess in level 1's place: two guesses refine to level 0 and
    # none to level 1, so the count below the last is still 7, and only
    # the separation test refuses them
    coarse, op = seeds_and_fine_grid(PT_REF, 1000, 7)
    assert levels_near(*op, coarse[:1] + coarse[:1] + coarse[2:]) == lowest_eigenvalues(*op, 7)


@pytest.mark.parametrize("n_points", [1000, 2000])
def test_a_pre_asymptotic_seed_falls_back_to_the_full_solve(monkeypatch, n_points):
    # at this alpha the coarse grid is pre-asymptotic: at 1000 points its
    # guesses for levels 3-6 lie up to 1.5 gaps from the 2001-point levels;
    # at 2000 those for levels 5 and 6 lie 0.19 and 0.42 of a gap low, and
    # neither level converges in 8 solves (level 5 stays 1e-6 of a gap off)
    coarse, op = seeds_and_fine_grid(PtPotential(50.0, 100.0, 100.0, 0.002), n_points, 7)
    expected = lowest_eigenvalues(*op, 7)
    calls = []
    monkeypatch.setattr(ptnu.oracle, "lowest_eigenvalues",
                        lambda *args: calls.append(args) or lowest_eigenvalues(*args))
    assert levels_near(*op, coarse) == expected
    assert len(calls) == 1


def test_a_failing_top_guess_wastes_one_level(monkeypatch):
    # the refinement runs from the top down, where a coarse grid's guesses
    # are worst: a top guess halfway between two levels does not converge,
    # and the fallback's 7 factorizations follow the one it wasted
    coarse, op = seeds_and_fine_grid(PT_REF, 1000, 7)
    fine = lowest_eigenvalues(*op, 7)
    lapack = ptnu.oracle._flapack()
    factored = []
    monkeypatch.setattr(ptnu.oracle, "_flapack", lambda: types.SimpleNamespace(
        dstebz=lapack.dstebz, dgttrs=lapack.dgttrs,
        dgttrf=lambda *args: factored.append(1) or lapack.dgttrf(*args)))
    assert levels_near(*op, coarse[:6] + [0.5 * (fine[5] + fine[6])]) == fine
    assert len(factored) == 1 + 7


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
        lowest_eigenvalues(*op, 0)
    with pytest.raises(DomainError):
        lowest_eigenvalues(*op, 151)


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
    e_2h, e_h, e_h2 = (lowest_eigenvalues(*discretize(PT_REF, n), 1)[0] for n in (500, 1001, 2003))
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
    values = lowest_eigenvalues(*op, 4)
    grid = length / 302 * np.arange(1, 302)
    for k, eps in enumerate(values, start=1):
        mode = eigenvector(*op, eps)
        assert count_sign_changes(mode) == k - 1
        analytic = np.sin(k * math.pi * grid / length)
        analytic /= np.linalg.norm(analytic)
        assert abs(abs(mode @ analytic) - 1.0) < 1e-8


def test_eigenvector_at_decoupled_diagonal_entry():
    # zero coupling: the eigenvalue equals a diagonal entry exactly
    mode = eigenvector(np.arange(200.0), 0.0, 3.0)
    assert np.argmax(np.abs(mode)) == 3 and mode[3] == pytest.approx(1.0, abs=1e-12)


def test_pt_eigenvector_oscillation():
    op = discretize(PT_REF, 1201)
    values = lowest_eigenvalues(*op, 6)
    for k, eps in enumerate(values, start=1):
        assert count_sign_changes(eigenvector(*op, eps)) == k - 1


# Worst overlap deficit over n = 0..6 at N = 8000, about 3 times the measured
# 1.6e-12, 3.3e-12, 1.2e-11, 4.5e-11, 4.2e-9 and 4.2e-7; it falls as h^4.
STATE_DEFICIT = {1.2: 5e-12, 0.8: 1e-11, 0.4: 4e-11, 0.2: 1.5e-10, 0.02: 1.3e-8, 0.002: 1.3e-6}


@pytest.mark.parametrize("alpha", STATE_DEFICIT)
def test_eigenvectors_match_the_nu_states(alpha):
    # the oracle's eigenvector v against u = sqrt(h) R_NU(r_i), the NU state
    # sampled on the same grid, for every Table-2 state of this alpha
    p = reference_potential(alpha)
    op = discretize(p, 8000)
    h = p.r_max / 8001
    r = h * np.arange(1, 8001)
    for n, eps in enumerate(lowest_eigenvalues(*op, 7)):
        v = eigenvector(*op, eps)
        radial = normalized_wavefunction(p, n)[1](r)
        u = math.sqrt(h) * radial
        assert 1.0 - abs(u @ v) / np.linalg.norm(u) <= STATE_DEFICIT[alpha], n
        assert count_sign_changes(v) == n
        assert abs(h * np.sum(radial ** 2) - 1.0) <= 1e-10, n


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
    # the LAPACK routines come from scipy's extension file, loaded without
    # scipy's package code
    tree = ast.parse(Path(ptnu.oracle.__file__).read_text(encoding="utf-8"))
    in_package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("ptnu")):
            in_package.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert in_package == {"errors.DomainError", "errors.NonConvergence", "errors.NonFinite",
                          "poschl_teller.PtPotential"}
    scipy_imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                     and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
                     or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")]
    assert scipy_imports == []
