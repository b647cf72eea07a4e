import math
import random
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest

from helpers import (
    BOX_CORNERS,
    M_REF,
    TABLE2_ALPHAS,
    TABLE2_STRINGS,
    V1_REF,
    V2_REF,
    WIDE_CORNERS,
    count_sign_changes,
    norm_by_quadrature,
    reference_potential,
    state_window,
)
from ptnu import (
    PtPotential,
    alpha_zero_limit,
    energy_closed_form,
    energy_via_nu,
    normalized_wavefunction,
    nu,
    oracle,
    spectrum_table,
    to_nu_family,
)
from ptnu import poschl_teller as pt
from ptnu.errors import DomainError, NoSignChange
from ptnu.poschl_teller import normalize
from ptnu.special_functions import integrate
from references import eigenfunction_factors, level_depth_slopes, potential_value

PT_REF = reference_potential(1.2)

# off-grid alphas at which a graded-quadrature norm failed; kept as regression inputs
FOUND_ALPHAS = (0.04, 0.143888, 0.3208, 0.791168, 0.992338)
ALL_STATES = [(alpha, n) for alpha in TABLE2_ALPHAS + FOUND_ALPHAS for n in range(7)]


# --- potential ---------------------------------------------------------------

def test_potential_midpoint():
    # sin^2 = cos^2 = 1/2 at the well midpoint
    p = PT_REF
    r_mid = math.pi / (4.0 * p.alpha)
    assert potential_value(p, r_mid) == pytest.approx(2.0 * p.v1 + 2.0 * p.v2, rel=1e-14)


def test_potential_hand_value():
    value = potential_value(PT_REF, 0.5)
    assert value == pytest.approx(5.0 / math.sin(0.6) ** 2 + 3.0 / math.cos(0.6) ** 2, rel=1e-15)


def test_potential_minimum_location_and_floor():
    # calculus: V' = 0 at tan^2(alpha r) = sqrt(V1/V2), where V hits the floor
    p = PT_REF
    floor = p.v1 + p.v2 + 2.0 * math.sqrt(p.v1 * p.v2)
    r_star = math.atan((p.v1 / p.v2) ** 0.25) / p.alpha
    assert potential_value(p, r_star) == pytest.approx(floor, rel=1e-14)
    for r in np.linspace(1e-3, p.r_max - 1e-3, 500):
        assert potential_value(p, float(r)) >= floor - 1e-10


def test_potential_domain_errors():
    p = PT_REF
    for r in (0.0, -1.0, p.r_max, p.r_max + 0.1):
        with pytest.raises(DomainError):
            potential_value(p, r)


def test_potential_validation():
    for bad in ((0.0, 5, 3, 1.2), (10, -1, 3, 1.2), (10, 5, 0, 1.2), (10, 5, 3, 0),
                (math.inf, 5, 3, 1.2), (10, math.nan, 3, 1.2), (10, 5, 3, math.inf)):
        with pytest.raises(DomainError):
            PtPotential(*bad)


def test_potential_record_is_checked_and_immutable():
    p = PtPotential(m=10.0, v1=5.0, v2=3.0, alpha=1.2)
    assert type(p) is PtPotential
    assert p == PT_REF == (10.0, 5.0, 3.0, 1.2)
    assert (p.m, p.v1, p.v2, p.alpha) == (10.0, 5.0, 3.0, 1.2)
    with pytest.raises(AttributeError):
        p.alpha = 0.0
    with pytest.raises(AttributeError):
        p.extra = 0.0
    # the namedtuple helpers rebuild through the check too
    for bad in ({"m": 0.0}, {"v1": math.nan}, {"v2": -3.0}, {"alpha": math.inf}):
        with pytest.raises(DomainError):
            p._replace(**bad)
    with pytest.raises(DomainError):
        PtPotential._make((10.0, 5.0, 3.0, -1.2))
    assert p._replace(alpha=0.4) == reference_potential(0.4)
    assert PtPotential._make((10.0, 5.0, 3.0, 0.4)).r_max == reference_potential(0.4).r_max


def test_family_underflowing_alpha_is_a_domain_error():
    # 4 alpha^2 rounds to 0 below about 1e-162; the closed form still runs
    # (the state's N_n is lost to rounding there: see
    # test_normalize_refuses_a_norm_out_of_range)
    p = PtPotential(10.0, 5.0, 3.0, 1e-163)
    assert energy_closed_form(p, 0) == alpha_zero_limit(p)
    for compute in (to_nu_family, lambda p: energy_via_nu(p, 0)):
        with pytest.raises(DomainError):
            compute(p)


@pytest.mark.parametrize("alpha", [1e155, 1e160])
def test_family_overflowing_alpha_names_alpha(alpha):
    # 4 alpha^2 overflows above about 6.7e153; the refusal names alpha,
    # not the root-finder's start or the norm
    p = PtPotential(10.0, 5.0, 3.0, alpha)
    for compute in (lambda p: energy_via_nu(p, 0), lambda p: normalized_wavefunction(p, 0)):
        with pytest.raises(DomainError, match="alpha"):
            compute(p)


@pytest.mark.parametrize("m,alpha", [(10.0, 1e154), (10.0, 1e155), (1e-310, 1.2)])
def test_closed_form_overflow_is_a_domain_error(m, alpha):
    # 2 alpha^2 / m overflows from alpha about 1e154, and so does 1/(4m) for a
    # subnormal m; the level and the table refuse it instead of returning inf
    p = PtPotential(m, 5.0, 3.0, alpha)
    for compute in (lambda p: energy_closed_form(p, 0),
                    lambda p: spectrum_table(p.m, p.v1, p.v2, [p.alpha], 0)):
        with pytest.raises(DomainError, match=r"n=0.*m=.*v1=.*v2=.*alpha="):
            compute(p)


@pytest.mark.parametrize("sign", [1, -1])
def test_quantum_numbers_too_long_to_print_are_domain_errors(sign):
    # Python refuses to print an int of over 4,300 digits in decimal, so the
    # messages give its bit length instead of ending in a bare ValueError
    for compute in (energy_closed_form, energy_via_nu):
        with pytest.raises(DomainError, match="int of 16610 bits"):
            compute(PT_REF, sign * 10 ** 5000)


@pytest.mark.parametrize("n", [10 ** 155, 10 ** 160, 10 ** 308, 10 ** 309, 10 ** 400])
def test_huge_quantum_numbers_are_domain_errors(n):
    # (n + 0.5) ** 2 overflows from n about 1e154, and n itself leaves float
    # range from about 1.8e308; neither escapes as an OverflowError
    p = PtPotential(10.0, 5.0, 3.0, 1.2)
    for compute in (energy_closed_form, normalized_wavefunction):
        with pytest.raises(DomainError, match=f"level n={n} overflows"):
            compute(p, n)
    if n > 1e308:
        with pytest.raises(DomainError, match=f"quantum number .* got {n}"):
            energy_via_nu(p, n)
    else:  # the engine's residual is inf from n about 1e154
        with pytest.raises(NoSignChange):
            energy_via_nu(p, n)


def test_closed_form_below_overflow_stays_finite():
    p = PtPotential(10.0, 5.0, 3.0, 9e153)
    assert energy_closed_form(p, 0) < math.inf
    assert spectrum_table(10.0, 5.0, 3.0, [9e153], 0)[0][0] == energy_closed_form(p, 0)


# --- template mapping --------------------------------------------------------

def test_family_fixed_coefficients():
    fam = to_nu_family(PT_REF)
    assert (fam.a1, fam.a2, fam.a3) == (0.5, 1.0, 1.0)


def test_family_xi_values():
    fam = to_nu_family(PT_REF)
    x1, x2, x3 = fam.xi_map(0.0)
    assert x1 == 0.0
    assert x3 == pytest.approx(100.0 / 5.76, rel=1e-15)
    assert x3 == pytest.approx(17.3611, abs=1e-4)
    assert x2 == pytest.approx((100.0 - 60.0) / 5.76, rel=1e-14)
    # eps enters x1 and x2 with the same 1/(4 alpha^2) scale
    x1e, x2e, x3e = fam.xi_map(10.0)
    assert x1e - x1 == pytest.approx(10.0 / 5.76, rel=1e-14)
    assert x2e - x2 == pytest.approx(10.0 / 5.76, rel=1e-14)
    assert x3e == x3


# --- closed-form spectrum ----------------------------------------------------

@pytest.mark.parametrize("alpha,n,printed", [
    (1.2, 0, "18.02560022"),
    (0.8, 1, "20.32991862"),
    (0.02, 6, "16.21076245"),
])
def test_closed_form_published_values(alpha, n, printed):
    assert energy_closed_form(reference_potential(alpha), n) == pytest.approx(
        float(printed), abs=1e-6)


def test_closed_form_increasing_in_n():
    rng = np.random.default_rng(31)
    for _ in range(30):
        p = PtPotential(rng.uniform(1, 20), rng.uniform(0.1, 10),
                        rng.uniform(0.1, 10), rng.uniform(0.01, 2))
        energies = [energy_closed_form(p, n) for n in range(8)]
        assert all(b > a for a, b in zip(energies, energies[1:]))


def test_energy_exceeds_well_floor():
    rng = np.random.default_rng(32)
    for _ in range(50):
        p = PtPotential(rng.uniform(1, 20), rng.uniform(0.1, 10),
                        rng.uniform(0.1, 10), rng.uniform(0.01, 2))
        n = int(rng.integers(0, 7))
        assert energy_closed_form(p, n) > alpha_zero_limit(p)


# --- small-range limit -------------------------------------------------------

def test_limit_value():
    assert alpha_zero_limit(PT_REF) == pytest.approx(8.0 + 2.0 * math.sqrt(15.0), rel=1e-12)
    assert alpha_zero_limit(PT_REF) == pytest.approx(15.74596669, abs=1e-8)


def test_limit_equal_depths_perfect_square():
    p = PtPotential(10.0, 2.5, 2.5, 1.0)
    assert alpha_zero_limit(p) == pytest.approx(10.0, rel=1e-14)


def test_limit_single_depth_edge():
    # v1 -> 0 edge of the formula (invariant requires v1 > 0, so approach it)
    p = PtPotential(10.0, 1e-30, 3.0, 1.0)
    assert alpha_zero_limit(p) == pytest.approx(3.0, abs=1e-6)


def test_energy_approaches_limit_monotonically():
    limit = alpha_zero_limit(PT_REF)
    deviations = [energy_closed_form(reference_potential(a), 0) - limit
                  for a in (0.2, 0.02, 0.002)]
    assert all(d > 0 for d in deviations)
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] <= 5e-3


# --- root-finder route -------------------------------------------------------

def test_energy_via_nu_published_cells():
    assert energy_via_nu(reference_potential(1.2), 0) == pytest.approx(18.02560022, abs=1e-8)
    assert energy_via_nu(reference_potential(0.2), 3) == pytest.approx(18.33059518, abs=1e-7)


def test_energy_via_nu_matches_closed_form_random_sweep():
    rng = np.random.default_rng(12345)
    for _ in range(50):
        p = PtPotential(rng.uniform(1, 20), rng.uniform(1e-6, 10),
                        rng.uniform(1e-6, 10), rng.uniform(0.01, 2))
        n = int(rng.integers(0, 7))
        expected = energy_closed_form(p, n)
        assert energy_via_nu(p, n) == pytest.approx(expected, rel=1e-9)


def strengths(p):
    """(kappa, lambda) with kappa(kappa - 1) = 2mV1/alpha^2 and
    lambda(lambda - 1) = 2mV2/alpha^2, at the working mpmath precision."""
    m, alpha = mpmath.mpf(p.m), mpmath.mpf(p.alpha)

    def strength(v):
        return (1 + mpmath.sqrt(1 + 8 * m * mpmath.mpf(v) / alpha ** 2)) / 2

    return strength(p.v1), strength(p.v2)


def strength_form_energy(p, n):
    """E_n = alpha^2/(2m) (kappa + lambda + 2n)^2 at 40 digits; none of the
    closed form's rounding is shared."""
    with mpmath.workdps(40):
        kappa, lam = strengths(p)
        return mpmath.mpf(p.alpha) ** 2 / (2 * p.m) * (kappa + lam + 2 * n) ** 2


def strength_form_log_norm(p, n):
    """log N_n of R_n(r) = N_n (sin ar)^kappa (cos ar)^lambda P_n^(ja,jb)(cos 2ar),
    ja = kappa - 1/2 and jb = lambda - 1/2, at 40 digits.  Under x = cos 2ar
    the integral of (R_n/N_n)^2 is 2^-(kappa+lambda) / (2a) h_n with h_n
    the Jacobi weight integral, taken here from its gamma form."""
    with mpmath.workdps(40):
        kappa, lam = strengths(p)
        ja, jb = kappa - mpmath.mpf(0.5), lam - mpmath.mpf(0.5)
        log_h = ((ja + jb + 1) * mpmath.log(2) + mpmath.loggamma(n + ja + 1)
                 + mpmath.loggamma(n + jb + 1) - mpmath.log(2 * n + ja + jb + 1)
                 - mpmath.loggamma(n + ja + jb + 1) - mpmath.loggamma(n + 1))
        return ((kappa + lam) * mpmath.log(2) + mpmath.log(2 * mpmath.mpf(p.alpha)) - log_h) / 2


def strength_form_state(p, n, r):
    """Unit-norm R_n(r) at 40 digits, with N_n from `strength_form_log_norm`."""
    with mpmath.workdps(40):
        kappa, lam = strengths(p)
        theta = mpmath.mpf(p.alpha) * mpmath.mpf(r)
        log_envelope = kappa * mpmath.log(mpmath.sin(theta)) + lam * mpmath.log(mpmath.cos(theta))
        return (mpmath.exp(strength_form_log_norm(p, n) + log_envelope)
                * mpmath.jacobi(n, kappa - mpmath.mpf(0.5), lam - mpmath.mpf(0.5),
                                mpmath.cos(2 * theta)))


def test_small_alpha_levels_match_mpmath():
    # at small alpha the level sits on the well floor and its alpha-dependence
    # is a few parts in 1e4 of it, so a cancelling formula would show here
    rng = random.Random(7)
    cells = [(reference_potential(alpha), n) for alpha in TABLE2_ALPHAS for n in range(7)]
    for alpha in (0.02, 0.002):
        for _ in range(10):
            p = PtPotential(rng.uniform(1.0, 20.0), rng.uniform(0.5, 10.0),
                            rng.uniform(0.5, 10.0), alpha)
            cells += [(p, n) for n in range(11)]
    for p, n in cells:
        exact = strength_form_energy(p, n)
        with mpmath.workdps(40):
            closed = abs(mpmath.mpf(energy_closed_form(p, n)) / exact - 1)
            root = abs(mpmath.mpf(energy_via_nu(p, n)) / exact - 1)
        assert closed <= 1e-13, (p, n, closed)
        assert root <= 1e-12, (p, n, root)


GOLDEN_ENERGIES = Path(__file__).resolve().parent / "golden" / "energy_via_nu.txt"
GOLDEN_SEED = 20261018


def energy_via_nu_golden_lines():
    """repr of energy_via_nu for the 42 Table-2 cells, one line per alpha,
    then 100 potentials from random.Random(GOLDEN_SEED) with m in [1, 20],
    V1 and V2 in [0.5, 10] and alpha log-uniform in [0.002, 1.5], n = 0..10."""
    cells = [(reference_potential(alpha), range(7)) for alpha in TABLE2_ALPHAS]
    rng = random.Random(GOLDEN_SEED)
    for _ in range(100):
        m, v1, v2 = rng.uniform(1.0, 20.0), rng.uniform(0.5, 10.0), rng.uniform(0.5, 10.0)
        alpha = math.exp(rng.uniform(math.log(0.002), math.log(1.5)))
        cells.append((PtPotential(m, v1, v2, alpha), range(11)))
    return [" ".join([repr(p.m), repr(p.v1), repr(p.v2), repr(p.alpha), "|"]
                     + [repr(energy_via_nu(p, n)) for n in levels]) + "\n"
            for p, levels in cells]


def test_energy_via_nu_matches_golden():
    # the file was written by the residual that built NuDerived on every call;
    # dropping that must not move a single bit of any root
    assert "".join(energy_via_nu_golden_lines()) == GOLDEN_ENERGIES.read_text(encoding="utf-8")


def record_residual_probes(monkeypatch):
    """List that receives the (x1, x2) of every quantization_residual call;
    for Poschl-Teller both are affine in eps, so the pair identifies the probe."""
    original = nu.quantization_residual
    probes = []

    def recording(c, *args):
        probes.append((c.x1, c.x2))
        return original(c, *args)

    monkeypatch.setattr(nu, "quantization_residual", recording)
    return probes


def test_energy_via_nu_residual_budget(monkeypatch):
    # eps = 0, hi0, the x4 step the line through them predicts, then
    # solve_energy's midpoint, root and polish; walking x4 from hi0 took up
    # to 10 per Table-2 root and 11 at the corners of the property box.
    # The floor of 5 fails if the probes stop reaching nu.quantization_residual.
    probes = record_residual_probes(monkeypatch)
    cells = ([(reference_potential(alpha), n) for alpha in TABLE2_ALPHAS for n in range(7)]
             + [(PtPotential(*corner), n) for corner in BOX_CORNERS for n in range(11)])
    counts = []
    for p, n in cells:
        probes.clear()
        energy_via_nu(p, n)
        counts.append(len(probes))
    assert 5 <= min(counts) and max(counts) <= 6, (min(counts), max(counts))


def test_energy_via_nu_never_repeats_a_probe(monkeypatch):
    probes = record_residual_probes(monkeypatch)
    for alpha in TABLE2_ALPHAS:
        for n in range(7):
            probes.clear()
            energy_via_nu(reference_potential(alpha), n)
            assert probes, (alpha, n)
            assert len(set(probes)) == len(probes), (alpha, n, probes)


# --- wavefunctions -----------------------------------------------------------

def test_ground_state_nodeless():
    r_fn = normalized_wavefunction(PT_REF, 0)[1]
    values = r_fn(np.linspace(1e-4, PT_REF.r_max - 1e-4, 2000))
    assert np.all(values > 0.0)


def test_wavefunction_defect_small_on_interior():
    p = PT_REF
    r_fn = normalized_wavefunction(p, 2)[1]
    samples = np.linspace(0.02, p.r_max - 0.02, 50)
    residual = oracle.ode_residual(r_fn, p, energy_closed_form(p, 2), samples)
    assert residual <= 1e-6


def exact_factors(p):
    """(p1, p2, ja, jb) at 30 digits: p1 = 1/4 + sqrt(1/16 + V1'/(4 alpha^2)),
    p2 the same in V2', and the Jacobi indices 2*p1 - 1/2, 2*p2 - 1/2."""
    with mpmath.workdps(30):
        alpha2 = 4 * mpmath.mpf(p.alpha) ** 2
        p1, p2 = (0.25 + mpmath.sqrt(0.0625 + 2 * mpmath.mpf(p.m) * v / alpha2)
                  for v in (mpmath.mpf(p.v1), mpmath.mpf(p.v2)))
        return p1, p2, 2 * p1 - 0.5, 2 * p2 - 0.5


@pytest.mark.parametrize("alpha", TABLE2_ALPHAS)
def test_nu_derivation_gives_the_closed_form_factors(alpha):
    # the paper's NU route: the constant chain at the closed-form eps, read
    # as s^p1 (1-s)^p2 P_n^(ja,jb), gives the factors the wavefunction uses
    p = reference_potential(alpha)
    expected = [float(x) for x in exact_factors(p)]
    for n in range(7):
        d = nu.derive_constants(to_nu_family(p).coefficients(2.0 * p.m * energy_closed_form(p, n)))
        np.testing.assert_allclose(eigenfunction_factors(d), expected, rtol=1e-14, atol=0.0)
    if alpha == 1.2:
        assert 2.0 * expected[0] == pytest.approx(8.8483, abs=1e-4)


def test_ground_state_is_the_power_product():
    # R_0 = N_0 (sin ar)^k1 (cos ar)^k2 at the float sin and cos each path
    # takes of ar; a ratio to the midpoint sample drops N_0
    p = PT_REF
    p1, p2, _, _ = exact_factors(p)
    r_fn = normalized_wavefunction(p, 0)[1]
    rng = np.random.default_rng(9)
    r = np.append(np.arcsin(np.sqrt(rng.uniform(1e-6, 1.0 - 1e-6, 100))) / p.alpha, p.r_max / 2)
    for values, sin, cos in (([r_fn(x) for x in r.tolist()], [math.sin(p.alpha * x) for x in r],
                              [math.cos(p.alpha * x) for x in r]),
                             (r_fn(r), np.sin(p.alpha * r), np.cos(p.alpha * r))):
        with mpmath.workdps(30):
            envelope = [mpmath.mpf(x) ** (2 * p1) * abs(mpmath.mpf(y)) ** (2 * p2)
                        for x, y in zip(sin, cos)]
            expected = [float(e / envelope[-1]) for e in envelope]
        np.testing.assert_allclose(np.divide(values, values[-1]), expected, rtol=1e-14, atol=0.0)


def test_first_excited_state_at_the_midpoint():
    # at s = 1/2 the envelope is 2^-(p1+p2) and P_1^(ja,jb)(0) = (ja - jb)/2
    # from the explicit degree-1 form; N_1 comes from the gamma form of h_1
    p = PT_REF
    r_fn = normalized_wavefunction(p, 1)[1]
    p1, p2, ja, jb = exact_factors(p)
    with mpmath.workdps(30):
        norm = mpmath.exp(strength_form_log_norm(p, 1))
        expected = float(norm * 2 ** -(p1 + p2) * (ja - jb) / 2)
    assert r_fn(p.r_max / 2) == pytest.approx(expected, rel=1e-13)
    assert r_fn(np.array([p.r_max / 2])) == pytest.approx([expected], rel=1e-13)


def test_wavefunction_is_exactly_zero_at_a_zero_of_the_polynomial():
    # the Jacobi factor of n = 1 rounds to exactly 0 at this r; math.log(0.0)
    # raises where numpy's log gives -inf, and both paths return 0.0
    r = 2.1157167096330998
    r_fn = normalized_wavefunction(PtPotential(10.0, 5.0, 3.0, 0.4), 1)[1]
    value = r_fn(r)
    assert type(value) is float and value == 0.0
    assert r_fn(np.array([r])).tolist() == [0.0]


def test_wavefunction_is_zero_where_sin_underflows():
    # alpha r rounds to 0 at the smallest subnormal r, so sin(alpha r) is 0;
    # math.log(0.0) would raise, and both paths return 0.0
    r_fn = normalized_wavefunction(reference_potential(0.5), 0)[1]
    value = r_fn(5e-324)
    assert type(value) is float and value == 0.0
    assert r_fn(np.array([5e-324])).tolist() == [0.0]


# 3x the gap measured at each distance d from the well's ends; a state that
# formed cos^2 as 1 - sin^2 missed by 1.1e-10, 1.5e-6, 4.1e-2 and 3.2e1
MIRROR_GAPS = {1e-4: 5.8e-13, 1e-6: 6.5e-11, 1e-8: 4.2e-9, 1e-10: 8.2e-7}


def test_state_near_r_max_matches_its_mirror_near_zero():
    # swapping V1 and V2 maps R_n(r) to (-1)^n R_n(r_max - r), so the sample
    # at r_max - d must match the mirror state's at d, where it takes the same
    # factor through sin(alpha d).  At jb near 1/2 the factor (cos ar)^k2 is
    # about alpha d there; what is left is the rounding of r_max - d and of
    # alpha r, about 1e-16 / (alpha d).
    p = PtPotential(0.1, 100.0, 0.01, 3.2)
    n = 30
    r_fn = normalized_wavefunction(p, n)[1]
    mirror = normalized_wavefunction(PtPotential(p.m, p.v2, p.v1, p.alpha), n)[1]
    for d, bound in MIRROR_GAPS.items():
        want = (-1) ** n * mirror(d)
        for got in (r_fn(p.r_max - d), r_fn(np.array([p.r_max - d]))[0]):
            assert abs(got / want - 1.0) <= bound, (d, got, want)


def test_wavefunction_vanishes_at_both_ends():
    r_fn = normalized_wavefunction(PT_REF, 1)[1]
    interior_peak = np.max(np.abs(r_fn(np.linspace(0.05, PT_REF.r_max - 0.05, 500))))
    assert abs(r_fn(1e-5)) < 1e-12 * interior_peak
    assert abs(r_fn(PT_REF.r_max - 1e-5)) < 1e-12 * interior_peak


def test_wavefunction_domain_error():
    r_fn = normalized_wavefunction(PT_REF, 0)[1]
    for r in (0.0, PT_REF.r_max, np.array([1.0, 0.0]), np.array([PT_REF.r_max])):
        with pytest.raises(DomainError):
            r_fn(r)


@pytest.mark.parametrize("r", [math.nan, 0.0, -1.0, PT_REF.r_max])
def test_wavefunction_refuses_a_float_and_an_array_alike(r):
    # a NaN r must fail the ndarray check too, not reach the s check
    r_fn = normalized_wavefunction(PT_REF, 0)[1]
    with pytest.raises(DomainError) as from_float:
        r_fn(r)
    with pytest.raises(DomainError) as from_array:
        r_fn(np.array([r]))
    assert str(from_array.value) == str(from_float.value) == f"r outside the well (0, {PT_REF.r_max})"


@pytest.mark.parametrize("alpha", TABLE2_ALPHAS)
def test_wavefunction_of_a_float_matches_the_array_path(alpha):
    # a float r is evaluated with math, an ndarray with numpy; sin, log and
    # exp may differ in the last bit between the two libraries
    p = reference_potential(alpha)
    r = p.r_max * np.arange(1, 401) / 401
    for n in range(7):
        r_fn = normalized_wavefunction(p, n)[1]
        from_floats = [r_fn(x) for x in r.tolist()]
        assert all(type(value) is float for value in from_floats)
        np.testing.assert_allclose(from_floats, r_fn(r), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [0, 3, 20])
def test_wavefunction_array_inputs_keep_their_kind(n):
    # anything but a float takes the numpy path: an empty array gives an
    # empty float64 array, a 0-d array or a numpy scalar of another width a
    # float, and a list an ndarray
    r_fn = normalized_wavefunction(PT_REF, n)[1]
    empty = r_fn(np.array([]))
    assert type(empty) is np.ndarray and empty.dtype == np.float64 and empty.shape == (0,)
    for r in (0.5, 0.3 * PT_REF.r_max):
        for arg in (np.asarray(r), np.float32(r)):
            value = r_fn(arg)
            assert type(value) is float
            assert value == pytest.approx(r_fn(float(arg)), rel=1e-10, abs=0.0)
    values = r_fn([0.5, 0.3 * PT_REF.r_max])
    assert type(values) is np.ndarray and values.shape == (2,)


def test_node_counts():
    wrong = []
    for alpha, n in ALL_STATES:
        p = reference_potential(alpha)
        grid = np.linspace(p.r_max * 1e-4, p.r_max * (1.0 - 1e-4), 10000)
        _, r_fn = normalized_wavefunction(p, n)
        nodes = count_sign_changes(r_fn(grid))
        if nodes != n:
            wrong.append((alpha, n, nodes))
    assert wrong == []


# --- normalization -----------------------------------------------------------

def test_normalize_unit_norm():
    wrong = []
    for alpha, n in ALL_STATES:
        p = reference_potential(alpha)
        state, r_fn = normalized_wavefunction(p, n)
        value = norm_by_quadrature(r_fn, p.r_max)
        if not (state.n == n and math.isfinite(state.log_norm) and abs(value - 1.0) <= 1e-10):
            wrong.append((alpha, n, state.log_norm, value))
    assert wrong == []


@pytest.mark.parametrize("alpha", [0.002, 1.2])
def test_high_state_stays_finite(alpha):
    # at alpha = 0.002 the Jacobi factor of n = 200 reaches about 1e366
    n = 200
    p = reference_potential(alpha)
    state, r_fn = normalized_wavefunction(p, n)
    grid = np.linspace(p.r_max * 1e-4, p.r_max * (1.0 - 1e-4), 200_000)
    values = r_fn(grid)
    assert np.all(np.isfinite(values))
    assert count_sign_changes(values) == n
    assert norm_by_quadrature(r_fn, p.r_max) == pytest.approx(1.0, abs=1e-10)
    assert math.isfinite(state.log_norm)


@pytest.mark.parametrize("corner, n", [((M_REF, V1_REF, V2_REF, 0.002), 600),
                                       ((M_REF, V1_REF, V2_REF, 0.002), 1000),
                                       ((50.0, 100.0, 100.0, 0.02), 1000)])
def test_states_whose_norm_leaves_float_range(corner, n):
    # log N_n exceeds 2000 here, so N_n itself overflows, while each state
    # peaks below 1: only log N_n is carried, inside the callable's log sum.
    # Measured norm errors: 7.1e-12, 2.5e-11 and 4.3e-12.
    p = PtPotential(*corner)
    r_fn = normalized_wavefunction(p, n)[1]
    grid = np.linspace(p.r_max * 1e-4, p.r_max * (1.0 - 1e-4), 40_000)
    assert count_sign_changes(r_fn(grid)) == n
    assert norm_by_quadrature(r_fn, p.r_max, panels=800) == pytest.approx(1.0, abs=1e-10)


def test_normalize_bookkeeping():
    p = PT_REF
    state = normalize(p, 2)
    assert state.eps == 2.0 * p.m * state.energy
    assert state.energy == energy_closed_form(p, 2)
    # a tuple, so it equals the plain tuple of its fields
    assert state == (2, state.energy, state.eps, state.log_norm)


@pytest.mark.parametrize("v1", [1e10, 1e12, 1e14])
def test_ground_state_keeps_its_digits_when_v1_dwarfs_v2(v1):
    # p1 grows as sqrt(v1) while p2 stays near 2.3, so the envelope peaks
    # within about 1/p1 of s = 1; a p2 that carries rounding of order p1
    # (as one formed by cancelling sqrt(a8) did) misses these ratios by
    # 2.3e-11 to 3.8e-10.  Each sample is compared at the float sin and cos
    # the callable takes of alpha r.
    p = PtPotential(M_REF, v1, V2_REF, 1.2)
    r_fn = normalized_wavefunction(p, 0)[1]
    with mpmath.workdps(40):
        k1, k2 = strengths(p)
        u_peak = k2 / (k1 + k2)
        u = [u_peak * t for t in (1, 0.1, 0.3, 0.6, 0.9, 1.2, 2, 3, 5, 8, 10)]
        r = [float(mpmath.asin(mpmath.sqrt(1 - x))) / p.alpha for x in u]
        envelope = [mpmath.mpf(math.sin(p.alpha * x)) ** k1 * abs(mpmath.mpf(math.cos(p.alpha * x))) ** k2
                    for x in r]
        expected = [float(e / envelope[0]) for e in envelope]
    values = [r_fn(x) for x in r]
    np.testing.assert_allclose(np.divide(values, values[0]), expected, rtol=1e-13, atol=0.0)


def test_normalized_wavefunction_derives_once():
    # one closed form serves both the state and its callable, normalize is
    # that state, and neither runs the NU template
    p = reference_potential(0.4)
    for n in range(7):
        for build in (normalized_wavefunction, normalize):
            with mock.patch.object(pt, "energy_closed_form", wraps=energy_closed_form) as closed, \
                 mock.patch.object(pt, "to_nu_family", wraps=to_nu_family) as family, \
                 mock.patch.object(nu, "derive_constants", wraps=nu.derive_constants) as derive:
                result = build(p, n)
            counts = (closed.call_count, family.call_count, derive.call_count)
            assert counts == (1, 0, 0), (build.__name__, n, counts)
        assert result == normalized_wavefunction(p, n)[0]


@pytest.mark.parametrize("alpha", [1e-50, 1e-100, 1e-163])
def test_normalize_refuses_a_norm_out_of_range(alpha):
    # N_n leaves the float range here, but log N_n is carried instead; the
    # terms of order 1/alpha that cancel in it lose every digit first
    p = reference_potential(alpha)
    with pytest.raises(DomainError, match="rounding may move the norm"):
        normalize(p, 2)
    with pytest.raises(DomainError, match="rounding may move the norm"):
        normalized_wavefunction(p, 2)


@pytest.mark.parametrize("alpha", [1e-6, 1e-5, 1e-4, 0.002, 1.2])
def test_small_alpha_norms_match_mpmath(alpha):
    # at the peak of the envelope, where the value does not move with the
    # rounding of r or of the exponents, so only the norm can be off
    p = reference_potential(alpha)
    with mpmath.workdps(40):
        kappa, lam = strengths(p)
        r = float(mpmath.asin(mpmath.sqrt(kappa / (kappa + lam)))) / alpha
    for n in (0, 2, 6):
        _, r_fn = normalized_wavefunction(p, n)
        exact = strength_form_state(p, n, r)
        with mpmath.workdps(40):
            error = float(abs(mpmath.mpf(r_fn(r)) / exact - 1))
        assert error <= pt.NORM_RTOL, (alpha, n, error)


@pytest.mark.parametrize("alpha", [1e-7, 1e-12, 1e-13, 1e-14, 1e-16])
def test_normalize_refuses_a_norm_lost_to_rounding(alpha):
    # terms of order 1/alpha cancel in the log of the norm: at 1e-12 the
    # norm came back 3 % off, and from 1e-14 down wrong in every digit
    p = reference_potential(alpha)
    with pytest.raises(DomainError):
        normalize(p, 2)
    with pytest.raises(DomainError):
        normalized_wavefunction(p, 2)


def test_normalize_answers_on_the_wide_box_corners():
    # the largest magnitudes of alpha >= 1e-4, m <= 50, V1, V2 <= 100, n <= 100
    for corner in WIDE_CORNERS:
        for n in (0, 6, 100):
            state = normalize(PtPotential(*corner), n)
            assert math.isfinite(state.log_norm), (corner, n)


# 3x the worst deviation of log N_n from mpmath measured in each alpha band
# (1.35e-12, 1.22e-11 and 3.50e-9, the last at alpha = 1e-4 and n = 1000);
# an absolute deviation in log N_n is a relative one in N_n
LOG_NORM_ATOL = ((0.02, 4.1e-12), (0.002, 3.7e-11), (0.0, 1.05e-8))


def test_log_norm_matches_mpmath():
    cells = [(reference_potential(alpha), n) for alpha in TABLE2_ALPHAS
             for n in (*range(7), 30, 100, 600, 1000)]
    cells += [(PtPotential(*corner), n) for corner in WIDE_CORNERS for n in (0, 6, 100, 1000)]
    wrong = []
    for p, n in cells:
        log_norm = normalize(p, n).log_norm
        with mpmath.workdps(40):
            deviation = float(abs(mpmath.mpf(log_norm) - strength_form_log_norm(p, n)))
        bound = next(atol for floor, atol in LOG_NORM_ATOL if p.alpha >= floor)
        if not deviation <= bound:
            wrong.append((p, n, deviation))
    assert wrong == []


def test_orthogonality_of_normalized_states():
    for alpha in (1.2, 0.8, 0.4, 0.2):
        p = reference_potential(alpha)
        states = [normalized_wavefunction(p, n) for n in range(6)]
        for m in range(6):
            for n in range(m + 1, 6):
                overlap, _ = integrate(lambda r: states[m][1](r) * states[n][1](r),
                                       0.0, p.r_max, 64)
                assert abs(overlap) <= 1e-6, (alpha, m, n)


# 3x the worst deviation measured on the default potential, 2.43e-13 at
# n = 100, alpha = 1.2; the wide-box sample's worst is 2.93e-13
HELLMANN_FEYNMAN_RTOL = 7.3e-13


def test_states_give_the_level_slopes_of_the_closed_form():
    # Hellmann-Feynman: dE_n/dV1 = <R_n| sin^-2(alpha r) |R_n> and dE_n/dV2 =
    # <R_n| cos^-2(alpha r) |R_n>, so each state's exponents, Jacobi indices
    # and shape are tied to the level formula.  A 60-node Gauss-Legendre rule
    # on 400 equal panels over the well; the quadrature's own norm divides.
    base_nodes, base_weights = np.polynomial.legendre.leggauss(60)
    wrong = []
    for alpha in TABLE2_ALPHAS:
        p = reference_potential(alpha)
        edges = np.linspace(0.0, p.r_max, 401)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        r = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * base_nodes).ravel()
        weights = (half * base_weights).ravel()
        sin2, cos2 = np.sin(alpha * r) ** 2, np.cos(alpha * r) ** 2
        for n in [*range(7), 30, 100]:
            density = weights * normalized_wavefunction(p, n)[1](r) ** 2
            norm = density.sum()
            slopes = ((density / sin2).sum() / norm, (density / cos2).sum() / norm)
            deviation = max(abs(got / want - 1.0) for got, want in zip(slopes, level_depth_slopes(p, n)))
            if not deviation <= HELLMANN_FEYNMAN_RTOL:
                wrong.append((alpha, n, deviation))
    assert wrong == []


def depth_expectations(p, n):
    """(<R_n| sin^-2(alpha r) |R_n>, <R_n| cos^-2(alpha r) |R_n>) / <R_n|R_n>
    by a 60-node Gauss-Legendre rule on 400 equal panels over
    `helpers.state_window`, with the first panel split into 41 that halve
    in width toward its left end and the last into 31 toward its right
    end; 40 halvings there would round nodes onto r_max."""
    _, r_fn = normalized_wavefunction(p, n)
    lo, hi = state_window(r_fn, p.r_max)
    equal = np.linspace(lo, hi, 401)
    edges = np.concatenate([[lo], lo + (equal[1] - lo) * 0.5 ** np.arange(40, 0, -1), equal[1:-1],
                            hi - (hi - equal[-2]) * 0.5 ** np.arange(1, 31), [hi]])
    base_nodes, base_weights = np.polynomial.legendre.leggauss(60)
    half = 0.5 * np.diff(edges)[:, None]
    r = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * base_nodes).ravel()
    density = (half * base_weights).ravel() * r_fn(r) ** 2
    norm = density.sum()
    return ((density / np.sin(p.alpha * r) ** 2).sum() / norm,
            (density / np.cos(p.alpha * r) ** 2).sum() / norm)


def test_states_give_the_level_slopes_on_the_wide_box():
    # Hellmann-Feynman on the 16 WIDE_CORNERS at n = 0, 6 and 30, and on 40
    # seeded states of the box m in [0.1, 50], V1, V2 log-uniform in
    # [0.01, 100], alpha log-uniform in [1e-4, 3.2], n <= 30.  At ja near
    # 1/2 the density over sin^2 goes as r^(2 ja - 1) at r = 0: equal panels
    # alone missed by up to 8.3e-7, the graded ones by 8.9e-14.  At jb near
    # 1/2 the density over cos^2 does the same at r_max, where a state that
    # formed cos^2 as 1 - sin^2 missed by up to 9.5 on 15 of these states.
    rng = random.Random(12)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    states = [(PtPotential(*corner), n) for corner in WIDE_CORNERS for n in (0, 6, 30)]
    states += [(PtPotential(rng.uniform(0.1, 50.0), log_uniform(0.01, 100.0),
                            log_uniform(0.01, 100.0), log_uniform(1e-4, 3.2)), rng.randint(0, 30))
               for _ in range(40)]
    wrong = []
    for p, n in states:
        slopes = depth_expectations(p, n)
        deviation = max(abs(got / want - 1.0) for got, want in zip(slopes, level_depth_slopes(p, n)))
        if not deviation <= HELLMANN_FEYNMAN_RTOL:
            wrong.append((p, n, deviation))
    assert wrong == []


def test_integrate_raises_the_states_domain_error_after_one_call():
    # past r_max the state refuses its whole node array, and integrate lets
    # that error through instead of retrying node by node
    p = PT_REF
    state = normalized_wavefunction(p, 2)[1]
    calls = []

    def counted(r):
        calls.append(r)
        return state(r)

    with pytest.raises(DomainError, match="outside the well"):
        integrate(counted, 0.0, 2.0 * p.r_max, 8)
    assert len(calls) == 1


# --- spectrum table ----------------------------------------------------------

def test_spectrum_table_reproduces_published_grid():
    table = spectrum_table(M_REF, V1_REF, V2_REF, list(TABLE2_ALPHAS), 6)
    assert len(table) == 7 and all(len(row) == 6 for row in table)
    for n in range(7):
        for j, alpha in enumerate(TABLE2_ALPHAS):
            assert table[n][j] == pytest.approx(float(TABLE2_STRINGS[alpha][n]), abs=1e-6)


def test_spectrum_table_single_cell():
    table = spectrum_table(10.0, 5.0, 3.0, [1.2], 0)
    assert len(table) == 1 and len(table[0]) == 1
    assert table[0][0] == pytest.approx(18.02560022, abs=1e-6)


def test_spectrum_table_columns_increase_in_n():
    table = spectrum_table(M_REF, V1_REF, V2_REF, list(TABLE2_ALPHAS), 6)
    for j in range(6):
        column = [table[n][j] for n in range(7)]
        assert all(b > a for a, b in zip(column, column[1:]))


def test_spectrum_table_validation():
    with pytest.raises(DomainError):
        spectrum_table(10.0, 5.0, 3.0, [], 3)
    with pytest.raises(DomainError):
        spectrum_table(10.0, 5.0, 3.0, [1.2], -1)
