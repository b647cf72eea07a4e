"""Randomized properties over the paper's parameter space.

Inputs are drawn from m in [1, 20], V1 and V2 in [0.5, 10] (all fm^-1),
alpha log-uniform in [0.002, 1.5] fm^-1 and n in 0..6 (0..10 for the NU
bracket).  The NU root is also checked on a wider box: m in [0.1, 50],
V1 and V2 log-uniform in [0.01, 100], alpha log-uniform in [1e-4, 3.2]
and n in 0..100.  The draws are derandomized and no example database is
kept, so every run checks the same examples.  The 16 corners of each box
are always checked too: random draws rarely reach them, the oracle's
error peaks there, and so do the residual magnitudes of the NU root.
The command line is drawn from a grammar of flag values, valid and not.
"""
import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import BOX_CORNERS, WIDE_CORNERS
from ptnu import PtPotential, energy_closed_form, energy_via_nu, nu, to_nu_family
from ptnu.cli import RunConfig, cmd_verify, main
from ptnu.errors import PtnuError
from ptnu.poschl_teller import normalize

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


masses = st.floats(1.0, 20.0)
depths = st.floats(0.5, 10.0)
alphas = log_uniform(0.002, 1.5)
levels = st.integers(0, 6)


def at_box_corners(*ns, corners=BOX_CORNERS):
    def add_examples(test):
        for corner in corners:
            for n in ns:
                test = example(*corner, n)(test)
        return test
    return add_examples


@DETERMINISTIC
@given(masses, depths, depths, alphas, levels)
@at_box_corners(6)
def test_verify_agrees_three_ways(m, v1, v2, alpha, n_max):
    # verify's default 2000 / 4001 oracle pair; a coarser grid misses the
    # spacing check at the box corners
    out = io.StringIO()
    config = RunConfig(m=m, v1=v1, v2=v2, alphas=(alpha,), n_max=n_max, format="json",
                       precision=17)
    with contextlib.redirect_stdout(out):
        assert cmd_verify(config) == 0
    rows = json.loads(out.getvalue())
    assert [row["n"] for row in rows] == list(range(n_max + 1))
    p = PtPotential(m, v1, v2, alpha)
    for row in rows:
        assert row["nu_dev"] <= 1e-9
        assert row["oracle_dev"] <= 1e-4
        n = row["n"]
        spacing = energy_closed_form(p, n + 1) - energy_closed_form(p, n)
        assert abs(row["e_oracle"] - row["e_closed"]) <= 1e-3 * spacing


@DETERMINISTIC
@given(masses, depths, depths, alphas, levels)
@at_box_corners(6)
def test_results_are_finite_or_typed_errors(m, v1, v2, alpha, n):
    p = PtPotential(m, v1, v2, alpha)
    for compute in (energy_closed_form, energy_via_nu, normalize):
        try:
            result = compute(p, n)
        except PtnuError:
            continue
        values = (result.energy, result.eps, result.log_norm) if compute is normalize else (result,)
        assert all(math.isfinite(v) for v in values)


def walked_energy(p, n):
    """energy_via_nu with its bracket found by multiplying hi by 4, probe by
    probe, from max(4 alpha^2, 1) until the residual changes sign; started
    there, solve_energy neither jumps nor walks."""
    family = to_nu_family(p)
    hi = max(4.0 * p.alpha * p.alpha, 1.0)
    r_lo = family.residual(0.0, n)
    for _ in range(80):
        if family.residual(hi, n) * r_lo < 0.0:
            break
        hi *= 4.0
    return nu.solve_energy(family, n, hi) / (2.0 * p.m)


@DETERMINISTIC
@given(masses, depths, depths, alphas, st.integers(0, 10))
@at_box_corners(0, 10)
def test_energy_via_nu_jumps_to_the_walked_bracket(m, v1, v2, alpha, n):
    p = PtPotential(m, v1, v2, alpha)
    with mock.patch.object(nu, "quantization_residual", wraps=nu.quantization_residual) as probe:
        energy = energy_via_nu(p, n)
    assert probe.call_count <= 6
    assert energy == walked_energy(p, n)


# roots within about 1e-15 of a x4 step hi0 * 4**k: a jump taken straight
# past the predicted root lands one step beyond the walk's bracket here
@pytest.mark.parametrize("m,v1,v2,alpha,n", [
    (3.0, 0.7, 0.09049768902710102, 1.0, 0),
    (1.0, 0.7, 0.010992006632826297, 0.5, 0),
    (10.0, 0.7, 1.3845960299799969, 1.3, 0),
    (1.0, 0.7, 53.349999999999945, 1.3, 3),
    (1.0, 0.7, 12159.989999999965, 1.3, 3),
])
def test_energy_via_nu_keeps_the_walked_bracket_on_a_step(m, v1, v2, alpha, n):
    p = PtPotential(m, v1, v2, alpha)
    assert energy_via_nu(p, n) == walked_energy(p, n)


@DETERMINISTIC
@given(st.floats(0.1, 50.0), log_uniform(0.01, 100.0), log_uniform(0.01, 100.0),
       log_uniform(1e-4, 3.2), st.integers(0, 100))
@at_box_corners(0, 100, corners=WIDE_CORNERS)
def test_energy_via_nu_takes_the_affine_step_on_the_wide_box(m, v1, v2, alpha, n):
    # solve_energy has no fallback: a residual off the line through the
    # bracket ends, or one above its tolerance after the polish, would
    # raise here.  Measured worst: 7.4e-14 over 18,000 seeded cells.
    p = PtPotential(m, v1, v2, alpha)
    assert energy_via_nu(p, n) == pytest.approx(energy_closed_form(p, n), rel=1e-12, abs=0.0)


HUGE = str(10 ** 160)
# values that a flag's parser, a range check or a ceiling must refuse
EXTREMES = [HUGE, "-" + HUGE, "1e308", "-1e308", "5e-324", "inf", "-inf", "nan", "-1", "0",
            "junk", ""]
# small valid values, and a small base run that drawn flags override, so
# that no example starts long work
SMALL = {"m": ["10", "0.5"], "v1": ["5", "20"], "v2": ["3"], "alpha": ["1.2", "0.002,0.4"],
         "nmax": ["0", "2"], "grid-points": ["1000"], "format": ["csv", "json"],
         "precision": ["1", "17"], "n": ["0", "1"], "points": ["3"]}
BASE = ["--alpha=1.2", "--nmax=1", "--grid-points=1000"]
COMMON = ["m", "v1", "v2", "alpha", "nmax", "grid-points", "format", "precision", "config"]


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """Paths of a config file that is not UTF-8, a valid one and a missing one."""
    folder = tmp_path_factory.mktemp("configs")
    (folder / "latin.cfg").write_bytes(b"m=10\n\xff\xfe=3\n")
    (folder / "small.cfg").write_bytes(b"alpha=0.4\nnmax=0\n")
    return [str(folder / name) for name in ("latin.cfg", "small.cfg", "missing.cfg")]


@pytest.mark.parametrize("command", ["table2", "wavefunction", "verify", "limit"])
@DETERMINISTIC
@given(data=st.data())
def test_every_command_line_gets_a_typed_answer(command, config_files, data):
    # exit 0, 1 or 2 (2 with one line on stderr and nothing on stdout),
    # whichever flag holds a bad value; no exception escapes
    flags = COMMON + (["n", "points"] if command == "wavefunction" else [])
    argv = [command, *BASE]
    for flag in data.draw(st.lists(st.sampled_from(flags), unique=True, max_size=4)):
        values = config_files if flag == "config" else SMALL[flag] + EXTREMES
        argv.append(f"--{flag}={data.draw(st.sampled_from(values))}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


def test_failing_property_is_reported_as_a_failure(tmp_path):
    # under the suite's own pytest settings a failing property must show its
    # example, not end the run in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n", encoding="utf-8")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(pyproject), "--rootdir", str(tmp_path), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
