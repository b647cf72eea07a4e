import math

import numpy as np
import pytest

from helpers import TABLE2_ALPHAS, reference_potential
from ptnu import (
    NuCoefficients,
    SpectralFamily,
    derive_constants,
    energy_closed_form,
    quantization_residual,
    solve_energy,
    to_nu_family,
)
from ptnu.errors import DomainError, NonConvergence, NoSignChange
from references import tau_prime

PT_REF = reference_potential(1.2)


def pt_coefficients(n=0, alpha=1.2):
    p = reference_potential(alpha)
    eps = 2.0 * p.m * energy_closed_form(p, n)
    return to_nu_family(p).coefficients(eps)


def random_coefficients(rng):
    """Random template inputs restricted to the real-solution regime."""
    while True:
        c = NuCoefficients(
            a1=rng.uniform(-3, 3), a2=rng.uniform(-3, 3), a3=rng.uniform(0, 2),
            x1=rng.uniform(-5, 5), x2=rng.uniform(-5, 5), x3=rng.uniform(0, 5))
        a4 = 0.5 * (1 - c.a1)
        a5 = 0.5 * (c.a2 - 2 * c.a3)
        a8 = a4 * a4 + c.x3
        a9 = c.a3 * (2 * a4 * a5 - c.x2) + c.a3 ** 2 * a8 + a5 * a5 + c.x1
        if a8 >= 0 and a9 >= 0:
            return c


# --- derive_constants -------------------------------------------------------

def test_a4_vanishes_when_a1_is_one():
    for a2, a3 in ((0.3, 0.0), (-1.0, 2.0), (5.0, 1.0)):
        d = derive_constants(NuCoefficients(1.0, a2, a3, 0.1, 0.0, 0.2))
        assert d.a4 == 0.0


def test_pt_mapping_low_constants():
    d = derive_constants(pt_coefficients())
    assert d.a4 == pytest.approx(0.25, abs=1e-15)
    assert d.a5 == pytest.approx(-0.5, abs=1e-15)


def test_pt_mapping_discriminants():
    # hand evaluation: a8 = 1/16 + 100/5.76, a9 = 1/16 + 60/5.76
    d = derive_constants(pt_coefficients())
    assert d.a8 == pytest.approx(1.0 / 16.0 + 100.0 / 5.76, rel=1e-14)
    assert d.a9 == pytest.approx(1.0 / 16.0 + 60.0 / 5.76, rel=1e-14)
    assert d.a8 == pytest.approx(17.4236111, abs=5e-8)
    assert d.a9 == pytest.approx(10.4791667, abs=5e-8)


def test_pipeline_identities_random():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        c = random_coefficients(rng)
        d = derive_constants(c)
        s8, s9 = math.sqrt(d.a8), math.sqrt(d.a9)
        assert d.a4 == pytest.approx(0.5 * (1 - c.a1), rel=4e-16, abs=1e-300)
        assert d.a5 == pytest.approx(0.5 * (c.a2 - 2 * c.a3), rel=4e-16, abs=1e-300)
        assert d.a6 == pytest.approx(d.a5 ** 2 + c.x1, rel=4e-16, abs=1e-300)
        assert d.a7 == pytest.approx(2 * d.a4 * d.a5 - c.x2, rel=4e-16, abs=1e-300)
        assert d.a8 == pytest.approx(d.a4 ** 2 + c.x3, rel=4e-16, abs=1e-300)
        assert d.a9 == pytest.approx(c.a3 * d.a7 + c.a3 ** 2 * d.a8 + d.a6, rel=4e-16, abs=1e-12)
        assert d.a10 == pytest.approx(c.a1 + 2 * d.a4 + 2 * s8, rel=4e-16, abs=1e-300)
        assert d.a11 == pytest.approx(c.a2 - 2 * d.a5 + 2 * (s9 + c.a3 * s8), rel=4e-16, abs=1e-300)
        assert d.a12 == pytest.approx(d.a4 + s8, rel=4e-16, abs=1e-300)
        assert d.a13 == pytest.approx(d.a5 - (s9 + c.a3 * s8), rel=4e-16, abs=1e-300)


def test_derived_constants_carry_roots():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = random_coefficients(rng)
        d = derive_constants(c)
        assert (d.s8, d.s9) == (math.sqrt(d.a8), math.sqrt(d.a9))


def test_negative_discriminant_raises():
    # a1=1 makes a4=0, so a8 = x3 < 0
    with pytest.raises(DomainError, match=r"need a8 >= 0 and a9 >= 0, got a8=-0\.5"):
        derive_constants(NuCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, -0.5))


def test_coefficient_validation():
    with pytest.raises(DomainError):
        NuCoefficients(1.0, 1.0, -0.1, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        NuCoefficients(math.nan, 1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        NuCoefficients(1.0, 1.0, 1.0, 0.0, -math.inf, 0.0)


# --- k -----------------------------------------------------------------------

def test_k_all_terms_vanish():
    # a4 = 0 and x3 = 0 give a8 = 0; a2 = 2, a3 = 1 give a5 = 0 so a7 = -x2 = 0
    assert derive_constants(NuCoefficients(1.0, 2.0, 1.0, 1.0, 0.0, 0.0)).k == 0.0


def test_k_direct_substitution():
    # a3=0, a7=-1, a8=1, a9=1  ->  k = 1 - 2, the minus root
    k = derive_constants(NuCoefficients(1.0, 0.0, 0.0, 1.0, 1.0, 1.0)).k
    assert k == pytest.approx(-1.0, abs=1e-15)


def test_k_principal_matches_branch_choice():
    d = derive_constants(pt_coefficients())
    expected = -(d.a7 + 2.0 * d.a8) - 2.0 * math.sqrt(d.a8 * d.a9)
    assert d.k == pytest.approx(expected, rel=1e-15)


# --- tau_prime ---------------------------------------------------------------

def test_tau_prime_trivial_cases():
    # a8 = a9 = 0 with a3 = 1: slope is exactly -2
    d = derive_constants(NuCoefficients(1.0, 2.0, 1.0, 0.0, 0.0, 0.0))
    assert tau_prime(d) == -2.0
    # a3 = 0 kills the a3*sqrt(a8) term: -2*0 - 2*sqrt(1) = -2
    d = derive_constants(NuCoefficients(1.0, 0.0, 0.0, 1.0, 1.0, 1.0))
    assert tau_prime(d) == -2.0


def test_tau_prime_pt_value():
    d = derive_constants(pt_coefficients())
    expected = -2.0 - 2.0 * (math.sqrt(10.479167) + math.sqrt(17.423611))
    assert tau_prime(d) == pytest.approx(expected, abs=1e-6)
    assert tau_prime(d) < 0.0


def test_tau_prime_negative_for_all_published_sets():
    for alpha in TABLE2_ALPHAS:
        for n in range(7):
            assert tau_prime(derive_constants(pt_coefficients(n, alpha))) < 0.0


# --- quantization_residual ---------------------------------------------------

def test_residual_vanishes_at_published_levels():
    p = PT_REF
    fam = to_nu_family(p)
    for n, printed in ((0, "18.02560022"), (1, "22.87051710")):
        energy = energy_closed_form(p, n)
        assert energy == pytest.approx(float(printed), abs=1e-6)
        assert abs(fam.residual(2.0 * p.m * energy, n)) <= 1e-9


def test_residual_nonzero_off_root():
    p = PT_REF
    fam = to_nu_family(p)
    eps_root = 2.0 * p.m * energy_closed_form(p, 0)
    assert abs(fam.residual(eps_root + 1.0, 0)) > 1e-3


def test_residual_affine_in_eps_for_pt():
    fam = to_nu_family(PT_REF)
    for n in range(4):
        r1 = fam.residual(10.0, n)
        r2 = fam.residual(255.0, n)
        r3 = fam.residual(500.0, n)
        assert r2 == pytest.approx(0.5 * (r1 + r3), rel=1e-12)


def test_residual_matches_eigenvalue_relation():
    # cross-form check: residual equals -n*tau' + n(n-1)*a3 - (k + a13)
    rng = np.random.default_rng(5)
    for _ in range(100):
        c = random_coefficients(rng)
        n = int(rng.integers(0, 7))
        d = derive_constants(c)
        expected = -n * tau_prime(d) + n * (n - 1.0) * c.a3 - (d.k + d.a13)
        assert quantization_residual(c, n) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_residual_bit_equal_to_derived_formula():
    # the residual reads the constant chain directly; it must round exactly
    # as the formula on derive_constants' fields did
    rng = np.random.default_rng(6)
    for _ in range(200):
        c = random_coefficients(rng)
        n = int(rng.integers(0, 11))
        d = derive_constants(c)
        expected = (c.a2 * n - (2.0 * n + 1.0) * d.a5
                    + (2.0 * n + 1.0) * (d.s9 + c.a3 * d.s8)
                    + n * (n - 1.0) * c.a3 + d.a7 + 2.0 * c.a3 * d.a8
                    + 2.0 * math.sqrt(d.a8 * d.a9))
        assert quantization_residual(c, n) == expected


def test_residual_rejects_negative_n():
    with pytest.raises(DomainError):
        quantization_residual(pt_coefficients(), -1)


# --- solve_energy ------------------------------------------------------------

def test_solve_energy_pt_ground_state():
    p = PT_REF
    eps = solve_energy(to_nu_family(p), 0, 1000.0)
    assert eps == pytest.approx(360.5120044, abs=1e-6)
    assert eps / (2.0 * p.m) == pytest.approx(18.02560022, abs=1e-7)


def test_solve_energy_small_alpha():
    p = reference_potential(0.002)
    # residual noise floor ~ V'/alpha^2 * eps_machine, far above 1e-12: the
    # tolerance scales with the residuals at the bracket ends
    eps = solve_energy(to_nu_family(p), 0, 1000.0)
    assert eps / (2.0 * p.m) == pytest.approx(15.74951629, abs=1e-7)


def test_solve_energy_agrees_with_closed_form_all_alphas():
    for alpha in TABLE2_ALPHAS:
        p = reference_potential(alpha)
        fam = to_nu_family(p)
        for n in range(7):
            expected = energy_closed_form(p, n)
            eps = solve_energy(fam, n, 4.0 * p.m * expected)
            assert eps / (2.0 * p.m) == pytest.approx(expected, rel=1e-9)


def test_solve_energy_no_sign_change_constant_family():
    # the x4 walk takes all 80 steps before it gives up
    calls = []

    def xi_map(eps):
        calls.append(eps)
        return (0.1, 0.2, 0.3)

    fam = SpectralFamily(a1=0.5, a2=1.0, a3=1.0, xi_map=xi_map)
    with pytest.raises(NoSignChange):
        solve_energy(fam, 0, 100.0)
    assert calls[-1] == 100.0 * 4.0 ** 80 and len(calls) == 82


def test_solve_energy_walks_from_a_start_below_the_root():
    # eps ~ 360.512 lies past hi = 100; the search brackets it at 400
    p = PT_REF
    eps = solve_energy(to_nu_family(p), 0, 100.0)
    assert eps == pytest.approx(2.0 * p.m * energy_closed_form(p, 0), rel=1e-12, abs=0.0)


def test_solve_energy_nonconvergence_on_jump():
    # residual flips sign discontinuously: a1=1, a2=2, a3=0 gives
    # residual(n=0) = -(k + a13) = -x2 with a8 = 0, a9 = 1
    def xi_map(eps):
        return (0.0, 1.0 if eps > math.e else -1.0, 0.0)

    fam = SpectralFamily(a1=1.0, a2=2.0, a3=0.0, xi_map=xi_map)
    with pytest.raises(NonConvergence):
        solve_energy(fam, 0, 10.0)


def test_solve_energy_nonconvergence_off_affine():
    # residual(n=0) = -x2 = -(u - 1 + u^3/100) with u = eps - 5: the midpoint
    # sits exactly on the line through the ends, yet the line's root and its
    # polish leave a residual far above the tolerance
    def xi_map(eps):
        u = eps - 5.0
        return (0.0, u - 1.0 + 0.01 * u ** 3, 0.0)

    fam = SpectralFamily(a1=1.0, a2=2.0, a3=0.0, xi_map=xi_map)
    assert fam.residual(5.0, 0) == 0.5 * (fam.residual(0.0, 0) + fam.residual(10.0, 0))
    with pytest.raises(NonConvergence):
        solve_energy(fam, 0, 10.0)


def test_solve_energy_rejects_bad_domain():
    # a non-finite eps reaches the family's x1..x3 check, which refuses it
    fam = SpectralFamily(a1=0.5, a2=1.0, a3=1.0, xi_map=lambda eps: (eps, eps, 1.0))
    with pytest.raises(DomainError):
        fam.coefficients(math.nan)
    for hi in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            solve_energy(fam, 0, hi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_residual_refuses_non_finite_xi(bad, slot):
    # every probe checks the x1..x3 that xi_map hands back
    def xi_map(eps):
        xs = [eps, 0.5, 1.0]
        xs[slot] = bad
        return tuple(xs)

    fam = SpectralFamily(a1=0.5, a2=1.0, a3=1.0, xi_map=xi_map)
    with pytest.raises(DomainError):
        fam.residual(1.0, 0)
    with pytest.raises(DomainError):
        fam.coefficients(1.0)


@pytest.mark.parametrize("a1, a2, a3", [(0.5, 1.0, -0.1), (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                        (0.5, -math.inf, 1.0), (0.5, 1.0, math.nan)])
def test_residual_refuses_bad_fixed_coefficients(a1, a2, a3):
    # the fixed a1..a3 are checked once, when the family is built
    with pytest.raises(DomainError):
        SpectralFamily(a1=a1, a2=a2, a3=a3, xi_map=lambda eps: (eps, 0.5, 1.0)).residual(1.0, 0)


def test_family_record_is_the_checked_record():
    fam = SpectralFamily(a1=0.5, a2=1.0, a3=1.0, xi_map=lambda eps: (eps, 0.5, 1.0))
    c = fam.coefficients(2.0)
    assert type(c) is NuCoefficients
    assert c == NuCoefficients(0.5, 1.0, 1.0, 2.0, 0.5, 1.0) == (0.5, 1.0, 1.0, 2.0, 0.5, 1.0)
    assert (c.a1, c.a2, c.a3, c.x1, c.x2, c.x3) == (0.5, 1.0, 1.0, 2.0, 0.5, 1.0)


def test_family_record_is_checked_and_immutable():
    def xi_map(eps):
        return (eps, 0.5, 1.0)

    fam = SpectralFamily(a1=0.5, a2=1.0, a3=1.0, xi_map=xi_map)
    assert type(fam) is SpectralFamily
    assert fam == SpectralFamily(0.5, 1.0, 1.0, xi_map) == (0.5, 1.0, 1.0, xi_map)
    with pytest.raises(AttributeError):
        fam.a3 = -1.0
    with pytest.raises(AttributeError):
        fam.extra = 0.0
    with pytest.raises(DomainError):
        SpectralFamily(0.5, 1.0, -1.0, xi_map)
    # the namedtuple helpers rebuild through the a1..a3 check too
    with pytest.raises(DomainError):
        fam._replace(a3=-1.0)
    with pytest.raises(DomainError):
        fam._replace(a1=math.nan)
    with pytest.raises(DomainError):
        SpectralFamily._make((0.5, math.inf, 1.0, xi_map))
    assert fam._replace(a2=2.0).coefficients(3.0) == (0.5, 2.0, 1.0, 3.0, 0.5, 1.0)
    assert SpectralFamily._make(fam).residual(3.0, 1) == fam.residual(3.0, 1)


def test_derived_record_is_immutable():
    c = NuCoefficients(1.0, 2.0, 1.0, 1.0, 0.0, 0.0)
    d = derive_constants(c)
    assert d == tuple(d) and d.coeffs == c and len(d) == 14
    with pytest.raises(AttributeError):
        d.k = 1.0
    with pytest.raises(AttributeError):
        d.extra = 0.0


def test_coefficient_record_is_immutable():
    c = NuCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        c.a3 = -1.0
    with pytest.raises(AttributeError):
        c.extra = 0.0
    with pytest.raises(TypeError):
        c[2] = -1.0
    # the namedtuple helpers rebuild through the checks too
    with pytest.raises(DomainError):
        c._replace(a3=-1.0)
    with pytest.raises(DomainError):
        NuCoefficients._make((1.0, 1.0, 1.0, math.inf, 0.0, 0.0))
    assert c._replace(x1=2.0) == (1.0, 1.0, 1.0, 2.0, 0.0, 0.0)
    assert c == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
