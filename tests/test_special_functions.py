import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from ptnu.errors import DomainError, NonFinite
from ptnu.special_functions import gauss_rule, integrate, jacobi, jacobi_log_norm, jacobi_scaled
from references import jacobi_sum


def test_jacobi_degree_zero_is_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.uniform(-0.9, 10.0, 2)
        x = rng.uniform(-1.0, 1.0)
        assert jacobi(0, a, b, x) == 1.0


def test_jacobi_degree_one_legendre():
    # a = b = 0 reduces to Legendre, P_1(x) = x
    assert jacobi(1, 0.0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_jacobi_matches_sum_at_wavefunction_indices():
    value = jacobi(5, 6.4743, 8.3483, 0.3)
    oracle = jacobi_sum(5, 6.4743, 8.3483, 0.3)
    assert value == pytest.approx(oracle, rel=1e-10)


def test_jacobi_sum_degree_zero_and_one():
    assert jacobi_sum(0, 2.3, -0.4, 0.7) == pytest.approx(1.0, abs=1e-15)
    a, b, x = 1.7, 0.9, -0.35
    expected = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    assert jacobi_sum(1, a, b, x) == pytest.approx(expected, rel=1e-14)


def test_jacobi_sum_cross_evaluation():
    assert jacobi_sum(3, 0.5, 1.5, -0.2) == pytest.approx(jacobi(3, 0.5, 1.5, -0.2), rel=1e-12)


def test_jacobi_recurrence_vs_sum_sweep():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(0, 13))
        a = rng.uniform(-0.9, 10.0)
        b = rng.uniform(-0.9, 10.0)
        x = rng.uniform(-1.0, 1.0)
        assert jacobi(n, a, b, x) == pytest.approx(jacobi_sum(n, a, b, x), rel=1e-10, abs=1e-12)


def test_jacobi_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(0, 11))
        a = rng.uniform(-0.9, 10.0)
        b = rng.uniform(-0.9, 10.0)
        x = rng.uniform(-1.0, 1.0)
        left = jacobi(n, a, b, -x)
        right = (-1.0) ** n * jacobi(n, b, a, x)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-12)


def test_jacobi_endpoint_binomial():
    rng = np.random.default_rng(3)
    for n in range(9):
        a = rng.uniform(-0.9, 10.0)
        b = rng.uniform(-0.9, 10.0)
        # P_n(1) = C(n + a, n), from log-gamma as in acceptance criterion 6
        expected = math.exp(math.lgamma(n + a + 1) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0))
        assert jacobi(n, a, b, 1.0) == pytest.approx(expected, rel=1e-12)


def test_jacobi_orthogonality_via_integrate():
    # an 8-point Gauss-Jacobi rule is exact for the products, of degree <= 10
    for a, b in ((0.0, 0.0), (-0.5, 0.3), (6.4743, 8.3483)):
        x, w = roots_jacobi(8, a, b)
        diagonal = [w @ jacobi(k, a, b, x) ** 2 for k in range(6)]
        for m in range(6):
            for n in range(m + 1, 6):
                off = w @ (jacobi(m, a, b, x) * jacobi(n, a, b, x))
                assert abs(off) / math.sqrt(diagonal[m] * diagonal[n]) < 1e-8
        for k in range(6):
            assert diagonal[k] == pytest.approx(math.exp(jacobi_log_norm(k, a, b)), rel=1e-8)


def test_jacobi_log_norm_classical_cases():
    # Legendre: h_n = 2/(2n+1); a = b = -1/2: P_1 = x/2, so h_0 = pi and h_1 = pi/8
    for n in range(8):
        assert jacobi_log_norm(n, 0.0, 0.0) == pytest.approx(math.log(2.0 / (2 * n + 1)), abs=1e-14)
    assert jacobi_log_norm(0, -0.5, -0.5) == pytest.approx(math.log(math.pi), abs=1e-14)
    assert jacobi_log_norm(1, -0.5, -0.5) == pytest.approx(math.log(math.pi / 8.0), abs=1e-14)
    # large indices stay finite where the gamma functions themselves overflow
    assert math.isfinite(jacobi_log_norm(6, 3000.0, 2500.0))


def test_jacobi_vectorized_matches_scalar():
    x = np.linspace(-1.0, 1.0, 7)
    vec = jacobi(4, 1.2, 3.4, x)
    assert vec.shape == x.shape
    for xi, vi in zip(x, vec):
        assert vi == jacobi(4, 1.2, 3.4, float(xi))


def test_jacobi_scaled_unscaled_below_sixteen_steps():
    x = np.linspace(-1.0, 1.0, 9)
    for n in range(16):
        p, exponent = jacobi_scaled(n, 3.2, 7.1)(x)
        assert exponent == 0
        assert np.array_equal(p, jacobi(n, 3.2, 7.1, x))


@pytest.mark.parametrize("n,a,b", [(40, 3.2, 7.1), (200, 5000.0, 4000.0)])
def test_jacobi_scaled_matches_mpmath(n, a, b):
    # P_200^(5000,4000) reaches 4e366 at x = 1, beyond the float range
    x = np.array([-0.999, -0.3, 0.0, 0.41, 0.97, 1.0])
    p, exponent = jacobi_scaled(n, a, b)(x)
    assert np.all(np.abs(p) < 1e300)
    with mpmath.workdps(40):
        for xi, pi, ei in zip(x, p, exponent):
            exact = mpmath.jacobi(n, a, b, mpmath.mpf(xi))
            assert np.sign(pi) == mpmath.sign(exact)
            log_abs = math.log(abs(pi)) + ei * math.log(2.0)
            assert log_abs == pytest.approx(float(mpmath.log(abs(exact))), rel=1e-13, abs=1e-12)
            if abs(exact) < 1e300:
                assert jacobi(n, a, b, xi) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("n", [16, 40])
@pytest.mark.parametrize("a,b", [(3.2, 7.1), (5000.0, 4000.0)])
def test_jacobi_scaled_float_gives_the_bits_of_an_array(n, a, b):
    # from n = 16 the recurrence rescales: math's frexp and ldexp on a float,
    # numpy's on an ndarray, with the same (p, e) bit for bit
    for x in (-0.999, -0.3, 0.0, 0.41, 0.97, 1.0):
        p, exponent = jacobi_scaled(n, a, b)(x)
        p_arr, e_arr = jacobi_scaled(n, a, b)(np.array([x]))
        assert type(p) is float and type(exponent) is int
        assert (p.hex(), exponent) == (float(p_arr[0]).hex(), int(e_arr[0]))


GOLDEN_JACOBI = Path(__file__).resolve().parent / "golden" / "jacobi_scaled.txt"


def _table2_indices(alpha):
    # ja and jb of the paper's potential (10, 5, 3), as normalized_wavefunction forms them
    return tuple(math.sqrt(alpha * alpha + 8.0 * 10.0 * v) / (2.0 * alpha) for v in (5.0, 3.0))


def jacobi_scaled_golden_lines():
    """float.hex of (p, e) from jacobi_scaled, for a float x and for one
    ndarray of all 21 x, at x = k/10 - 1 and degrees spanning the rescale
    steps.  Only +, -, *, / and exact frexp and ldexp go into it, so the
    bits hold on every platform and numpy version."""
    xs = [k / 10.0 - 1.0 for k in range(21)]
    lines = []
    for a, b in ((0.0, 0.0), (-0.5, 0.25), (3.2, 7.1), _table2_indices(1.2), _table2_indices(0.002)):
        for n in (0, 1, 2, 15, 16, 17, 33, 100):
            scaled = jacobi_scaled(n, a, b)
            p_array, e_array = scaled(np.array(xs))
            e_array = np.broadcast_to(e_array, p_array.shape)
            for x, p_of_array, e_of_array in zip(xs, p_array.tolist(), e_array.tolist()):
                p, e = scaled(x)
                lines.append(f"{n} {a.hex()} {b.hex()} {x.hex()} {p.hex()} {e} "
                             f"{p_of_array.hex()} {int(e_of_array)}\n")
    return lines


def test_jacobi_scaled_matches_golden():
    # columns n, a, b, x, then p and e for a float x and for an ndarray; a
    # rewrite of the recurrence must keep every bit of both
    assert "".join(jacobi_scaled_golden_lines()) == GOLDEN_JACOBI.read_text(encoding="utf-8")


@pytest.mark.parametrize("n,a,b", [(-1, 0.0, 0.0), (2, -1.0, 0.0), (2, 0.0, -1.5),
                                   (2, math.nan, 0.0), (2, 0.0, math.nan)])
def test_jacobi_invalid_index(n, a, b):
    if n < 0:
        message, sum_message = "polynomial degree must be >= 0", r"limited to 0 <= n <= 20"
    else:
        message = sum_message = "Jacobi parameters must exceed -1"
    with pytest.raises(DomainError, match=message):
        jacobi(n, a, b, 0.1)
    with pytest.raises(DomainError, match=message):
        jacobi_scaled(n, a, b)
    with pytest.raises(DomainError, match=sum_message):
        jacobi_sum(n, a, b, 0.1)
    with pytest.raises(DomainError, match=message):
        jacobi_log_norm(n, a, b)


def test_integrate_constant_exact():
    value, err = integrate(lambda x: 1.0, 0.0, 1.0, 4)
    assert value == pytest.approx(1.0, abs=1e-14)
    assert err < 1e-14


def test_integrate_sine():
    value, _ = integrate(np.sin, 0.0, math.pi, 8)
    assert value == pytest.approx(2.0, abs=1e-10)


def test_integrate_rejects_nonfinite():
    with pytest.raises(NonFinite):
        integrate(lambda x: np.asarray(x) * np.nan, 0.0, 1.0, 7)


def test_integrate_refuses_a_panel_count_below_one():
    with pytest.raises(DomainError, match="panel count must be >= 1, got 0"):
        integrate(lambda x: 1.0, 0.0, 1.0, 0)


def _check_rule(nodes, weights, lo, hi):
    nodes, weights = nodes.ravel(), weights.ravel()
    assert np.all(nodes > lo) and np.all(nodes < hi)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert np.sum(weights) == pytest.approx(hi - lo, rel=1e-12)


def _panel_rule(order, edges):
    return gauss_rule(order, edges[:-1, None], edges[1:, None])


def test_quadrature_rule_invariants():
    _check_rule(*gauss_rule(12, -1.0, 1.0), -1.0, 1.0)
    _check_rule(*gauss_rule(5, 0.0, 2.5), 0.0, 2.5)
    _check_rule(*_panel_rule(12, np.linspace(0.0, 1.0, 11)), 0.0, 1.0)
    _check_rule(*_panel_rule(12, 3.0 * np.linspace(0.0, 1.0, 25) ** 2), 0.0, 3.0)


@pytest.mark.parametrize("lo,hi,panels,order,graded", [
    (0.0, 1.0, 10, 12, False), (-2.5, 3.0, 24, 7, True), (1.0, 1.5, 1, 3, False),
    (0.0, 78.53981633974483, 9, 12, True)])
def test_composite_rule_is_gauss_rule_on_each_panel(lo, hi, panels, order, graded):
    # one broadcast over columns of panel ends, equal or graded (widths
    # growing linearly), rounds exactly as per-panel gauss_rule calls
    steps = np.linspace(0.0, 1.0, panels + 1)
    edges = lo + (hi - lo) * (steps ** 2 if graded else steps)
    nodes, weights = _panel_rule(order, edges)
    parts = [gauss_rule(order, a, b) for a, b in zip(edges[:-1], edges[1:])]
    assert np.array_equal(nodes, np.array([part[0] for part in parts]))
    assert np.array_equal(weights, np.array([part[1] for part in parts]))


def test_quadrature_order_must_be_positive():
    with pytest.raises(DomainError, match="quadrature order must be >= 1, got 0"):
        gauss_rule(0, 0.0, 1.0)
    with pytest.raises(DomainError, match="quadrature order must be >= 1, got 0"):
        _panel_rule(0, np.linspace(0.0, 1.0, 4))
