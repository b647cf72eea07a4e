"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion report.
"""
import math
import time

import numpy as np

from helpers import (
    M_REF,
    TABLE2_ALPHAS,
    TABLE2_STRINGS,
    V1_REF,
    V2_REF,
    count_sign_changes,
    matches_printed,
    reference_potential,
)
from ptnu import (
    PtPotential,
    discretize,
    energy_closed_form,
    energy_via_nu,
    lowest_eigenvalues,
    normalized_wavefunction,
    richardson,
    spectrum_table,
    to_nu_family,
)
from ptnu.nu import derive_constants
from ptnu.oracle import ode_residual
from ptnu.special_functions import integrate, jacobi
from references import jacobi_sum, tau_prime

ORACLE_ALPHAS = (1.2, 0.8, 0.4)


def _report(ok: bool, label: str, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    table = spectrum_table(M_REF, V1_REF, V2_REF, list(TABLE2_ALPHAS), 6)
    worst = 0.0
    exact_strings = 0
    rounded_strings = 0
    for n in range(7):
        for j, alpha in enumerate(TABLE2_ALPHAS):
            printed = TABLE2_STRINGS[alpha][n]
            worst = max(worst, abs(table[n][j] - float(printed)))
            exact_strings += f"{table[n][j]:.8f}" == printed
            rounded_strings += matches_printed(table[n][j], printed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and rounded_strings >= 40 and elapsed < 1.0
    _report(ok, "criterion 1 (published table reproduced)",
            f"worst |dev| {worst:.2e} <= 1e-6; string matches {rounded_strings}/42 "
            f"with last-digit allowance ({exact_strings}/42 exact) >= 40; "
            f"runtime {elapsed:.2f}s < 1s")


def test_criterion_2_engine_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for alpha in TABLE2_ALPHAS:
        p = reference_potential(alpha)
        for n in range(7):
            expected = energy_closed_form(p, n)
            worst = max(worst, abs(energy_via_nu(p, n) - expected) / abs(expected))
    rng = np.random.default_rng(12345)
    for _ in range(50):
        p = PtPotential(rng.uniform(1, 20), rng.uniform(1e-6, 10),
                        rng.uniform(1e-6, 10), rng.uniform(0.01, 2))
        n = int(rng.integers(0, 7))
        expected = energy_closed_form(p, n)
        worst = max(worst, abs(energy_via_nu(p, n) - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(ok, "criterion 2 (root-finder equals closed form)",
            f"worst relative dev {worst:.2e} <= 1e-9 over 42 cells + 50 random; "
            f"runtime {elapsed:.2f}s < 5s")


def test_criterion_3_oracle_certification():
    start = time.perf_counter()
    worst = 0.0
    for alpha in ORACLE_ALPHAS:
        p = reference_potential(alpha)
        coarse = lowest_eigenvalues(discretize(p, 8000), 7)
        fine = lowest_eigenvalues(discretize(p, 16001), 7)
        for n in range(7):
            expected = energy_closed_form(p, n)
            extrapolated = richardson(coarse[n], fine[n]) / (2.0 * p.m)
            worst = max(worst, abs(extrapolated - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    _report(ok, "criterion 3 (finite-difference oracle)",
            f"worst relative dev {worst:.2e} <= 1e-4 over 21 cells at 8000 points; "
            f"runtime {elapsed:.1f}s < 60s")


def test_criterion_3_small_alpha_and_level_spacing():
    # criterion 3's recipe on the three near-flat wells it leaves out
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.2, 0.02, 0.002):
        p = reference_potential(alpha)
        coarse = lowest_eigenvalues(discretize(p, 8000), 7)
        fine = lowest_eigenvalues(discretize(p, 16001), 7)
        for n in range(7):
            expected = energy_closed_form(p, n)
            extrapolated = richardson(coarse[n], fine[n]) / (2.0 * p.m)
            worst = max(worst, abs(extrapolated - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    # at alpha = 0.002 neighbouring levels differ by 4.5e-4 of E, so the 1e-4
    # band barely tells them apart; verify's default 2000 / 4001 pair must
    # also land within 1e-3 of a level spacing on all 42 cells
    worst_spacing = 0.0
    for alpha in TABLE2_ALPHAS:
        p = reference_potential(alpha)
        coarse = lowest_eigenvalues(discretize(p, 2000), 7)
        fine = lowest_eigenvalues(discretize(p, 4001), 7)
        levels = [energy_closed_form(p, n) for n in range(8)]
        for n in range(7):
            extrapolated = richardson(coarse[n], fine[n]) / (2.0 * p.m)
            spacing = levels[n + 1] - levels[n]
            worst_spacing = max(worst_spacing, abs(extrapolated - levels[n]) / spacing)
    ok = worst <= 1e-4 and elapsed < 60.0 and worst_spacing <= 1e-3
    _report(ok, "criterion 3 on alpha < 0.4 (finite-difference oracle)",
            f"worst relative dev {worst:.2e} <= 1e-4 over 21 cells at 8000 points; "
            f"runtime {elapsed:.1f}s < 60s; worst deviation {worst_spacing:.2e} of a "
            f"level spacing <= 1e-3 over 42 cells at 2000 points")


def test_criterion_4_limit_law():
    limit = 8.0 + 2.0 * math.sqrt(15.0)
    deviations = [abs(energy_closed_form(reference_potential(a), 0) - limit)
                  for a in (0.2, 0.02, 0.002)]
    ok = deviations[2] <= 5e-3 and deviations[0] > deviations[1] > deviations[2]
    _report(ok, "criterion 4 (small-range limit law)",
            f"|E(0.002) - {limit:.8f}| = {deviations[2]:.2e} <= 5e-3, deviations "
            f"{deviations[0]:.3e} > {deviations[1]:.3e} > {deviations[2]:.3e}")


def test_criterion_5_eigenfunction_certification():
    p = reference_potential(1.2)
    samples = np.linspace(0.02, p.r_max - 0.02, 50)
    scan = np.linspace(p.r_max * 1e-4, p.r_max * (1 - 1e-4), 10000)
    worst_defect = 0.0
    states = []
    nodes_ok = True
    for n in range(4):
        state, r_fn = normalized_wavefunction(p, n)
        defect = ode_residual(r_fn, p, energy_closed_form(p, n), samples)
        worst_defect = max(worst_defect, defect)
        states.append(r_fn)
        nodes_ok = nodes_ok and count_sign_changes(r_fn(scan)) == n
    worst_overlap = 0.0
    for m in range(4):
        for n in range(m + 1, 4):
            overlap, _ = integrate(lambda r: states[m](r) * states[n](r),
                                   0.0, p.r_max, 64)
            worst_overlap = max(worst_overlap, abs(overlap))
    ok = worst_defect <= 1e-6 and nodes_ok and worst_overlap <= 1e-6
    _report(ok, "criterion 5 (eigenfunctions certified)",
            f"worst ODE defect {worst_defect:.2e} <= 1e-6; node counts exact: {nodes_ok}; "
            f"worst orthogonality overlap {worst_overlap:.2e} <= 1e-6")


def test_criterion_6_special_function_suite():
    rng = np.random.default_rng(42)
    worst_pair = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 13))
        a = rng.uniform(-0.9, 10.0)
        b = rng.uniform(-0.9, 10.0)
        x = rng.uniform(-1.0, 1.0)
        reference = jacobi_sum(n, a, b, x)
        scale = max(abs(reference), 1e-12)
        worst_pair = max(worst_pair, abs(jacobi(n, a, b, x) - reference) / scale)
    worst_sym = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 11))
        a = rng.uniform(-0.9, 10.0)
        b = rng.uniform(-0.9, 10.0)
        x = rng.uniform(-1.0, 1.0)
        left = jacobi(n, a, b, -x)
        right = (-1.0) ** n * jacobi(n, b, a, x)
        worst_sym = max(worst_sym, abs(left - right) / max(abs(right), 1e-12))
    worst_end = 0.0
    for n in range(9):
        a = rng.uniform(-0.9, 10.0)
        b = rng.uniform(-0.9, 10.0)
        expected = math.exp(math.lgamma(n + a + 1) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0))
        worst_end = max(worst_end, abs(jacobi(n, a, b, 1.0) - expected) / expected)
    ok = worst_pair <= 1e-10 and worst_sym <= 1e-10 and worst_end <= 1e-10
    _report(ok, "criterion 6 (special-function suite)",
            f"recurrence vs sum {worst_pair:.2e} <= 1e-10 (200 draws, n <= 12); "
            f"symmetry {worst_sym:.2e}; endpoint binomial {worst_end:.2e}")


def test_criterion_7_validity_condition():
    worst = -math.inf
    for alpha in TABLE2_ALPHAS:
        p = reference_potential(alpha)
        fam = to_nu_family(p)
        for n in range(7):
            eps = 2.0 * p.m * energy_closed_form(p, n)
            worst = max(worst, tau_prime(derive_constants(fam.coefficients(eps))))
    _report(worst < 0.0, "criterion 7 (slope validity condition)",
            f"max tau' {worst:.3f} < 0 over all published parameter sets")


def test_criterion_8_convergence_order():
    p = reference_potential(1.2)
    exact = 2.0 * p.m * energy_closed_form(p, 0)
    grids = (1000, 2000, 4000)
    errors = [abs(lowest_eigenvalues(discretize(p, n), 1)[0] - exact) for n in grids]
    steps = [p.r_max / (n + 1) for n in grids]
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(steps[i] / steps[i + 1])
              for i in range(2)]
    ok = all(1.7 <= order <= 2.3 for order in orders)
    _report(ok, "criterion 8 (second-order convergence)",
            f"order estimates {orders[0]:.3f}, {orders[1]:.3f} within [1.7, 2.3]")
