"""Randomized properties over the paper's parameter space.

Inputs are drawn from m in [1, 20], V1 and V2 in [0.5, 10] (all fm^-1),
alpha log-uniform in [0.002, 1.5] fm^-1 and n in 0..6.  The draws are
derandomized and no example database is kept, so every run checks the
same examples.  The 16 corners of the box, at n = 6, are always checked
too: random draws rarely reach them, and the oracle's error peaks there.
"""
import io
import itertools
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptnu import PtPotential, energy_closed_form, energy_via_nu, normalize
from ptnu.cli import RunConfig, cmd_verify
from ptnu.errors import PtnuError

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

masses = st.floats(1.0, 20.0)
depths = st.floats(0.5, 10.0)
alphas = st.floats(math.log(0.002), math.log(1.5)).map(math.exp)
levels = st.integers(0, 6)


def at_box_corners(test):
    for m, v1, v2, alpha in itertools.product((1.0, 20.0), (0.5, 10.0), (0.5, 10.0), (0.002, 1.5)):
        test = example(m, v1, v2, alpha, 6)(test)
    return test


@DETERMINISTIC
@given(masses, depths, depths, alphas, levels)
@at_box_corners
def test_verify_agrees_three_ways(m, v1, v2, alpha, n_max):
    # verify's default 2000 / 4001 oracle pair; a coarser grid misses the
    # spacing check at the box corners
    out = io.StringIO()
    config = RunConfig(m=m, v1=v1, v2=v2, alphas=(alpha,), n_max=n_max, format="json",
                       precision=17)
    assert cmd_verify(config, out) == 0
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
@at_box_corners
def test_results_are_finite_or_typed_errors(m, v1, v2, alpha, n):
    p = PtPotential(m, v1, v2, alpha)
    for compute in (energy_closed_form, energy_via_nu, normalize):
        try:
            result = compute(p, n)
        except PtnuError:
            continue
        values = (result.energy, result.eps, result.norm) if compute is normalize else (result,)
        assert all(math.isfinite(v) for v in values)
