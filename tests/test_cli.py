import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import TABLE2_ALPHAS, count_sign_changes, reference_potential
from ptnu import PtPotential, energy_closed_form, energy_via_nu
import ptnu
from ptnu.cli import RunConfig, _build_parser, certify, cmd_verify, main
from ptnu.errors import ConfigError

# the directory that holds this ptnu; child interpreters import it from there
SRC = str(Path(ptnu.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_main(argv):
    """Drive main() capturing stdout/stderr; returns (exit, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def parse_table(text, sep=","):
    lines = text.strip().splitlines()
    return lines[0].split(sep), [line.split(sep) for line in lines[1:]]


# --- byte-identical output ---------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("table2", ["table2"]),
    ("limit", ["limit"]),
    ("wavefunction", ["wavefunction"]),
    ("wavefunction_n2_points400_alpha1.2",
     ["wavefunction", "--n", "2", "--points", "400", "--alpha", "1.2"]),
    ("wavefunction_n6_points1000_alpha0.002",
     ["wavefunction", "--n", "6", "--points", "1000", "--alpha", "0.002"]),
])
def test_output_matches_golden(name, argv):
    # golden files hold the stdout of the quadrature-normalized implementation
    code, out, err = run_main(argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_default_verify_pins_closed_form_and_engine_columns():
    # e_closed, e_nu and nu_dev are byte-identical to the golden columns;
    # the oracle digits depend on the LAPACK build, so only their band is pinned
    code, out, err = run_main(["verify"])
    assert code == 0 and err == ""
    header, rows = parse_table(out)
    keep = [header.index(c) for c in ("n", "alpha", "e_closed", "e_nu", "nu_dev")]
    pinned = "".join(",".join(r[i] for i in keep) + "\n" for r in [header] + rows)
    assert pinned == (GOLDEN / "verify_closed_nu.txt").read_text(encoding="utf-8")
    devs = [float(row[header.index("oracle_dev")]) for row in rows]
    assert len(devs) == 42
    # rows run alpha by alpha: 1.2, 0.8, 0.4 first, then 0.2, 0.02, 0.002
    assert max(devs[:21]) <= 1e-9
    # the near-flat wells of small alpha: measured 1.49e-8 at alpha = 0.002, n = 6
    assert max(devs[21:]) <= 2e-8


# --- table2 ------------------------------------------------------------------

def test_table2_default_grid():
    code, out, err = run_main(["table2"])
    assert code == 0 and err == ""
    header, rows = parse_table(out)
    assert header == ["n"] + [f"alpha={a}" for a in TABLE2_ALPHAS]
    assert len(rows) == 7
    for n, row in enumerate(rows):
        assert row[0] == str(n)
        for value, alpha in zip(row[1:], TABLE2_ALPHAS):
            expected = energy_closed_form(reference_potential(alpha), n)
            assert value == f"{expected:.8f}"


def test_table2_minimal():
    code, out, _ = run_main(["table2", "--nmax", "0", "--alpha", "0.8"])
    assert code == 0
    assert out.strip().splitlines() == ["n,alpha=0.8", f"0,{energy_closed_form(reference_potential(0.8), 0):.8f}"]


def test_table2_json_matches_csv_values():
    code, csv_out, _ = run_main(["table2"])
    code_j, json_out, _ = run_main(["table2", "--format", "json"])
    assert code == 0 and code_j == 0
    cells = json.loads(json_out)
    assert len(cells) == 42
    _, rows = parse_table(csv_out)
    for cell in cells:
        n = cell["n"]
        column = 1 + TABLE2_ALPHAS.index(cell["alpha"])
        assert float(rows[n][column]) == pytest.approx(cell["energy"], abs=1e-8)


def test_table2_tsv_separator():
    code, out, _ = run_main(["table2", "--format", "tsv", "--nmax", "1"])
    assert code == 0
    assert "\t" in out.splitlines()[0] and "," not in out.splitlines()[0]


def test_table2_deterministic():
    _, first, _ = run_main(["table2", "--precision", "12"])
    _, second, _ = run_main(["table2", "--precision", "12"])
    assert first == second


def test_table2_respects_precision():
    code, out, _ = run_main(["table2", "--nmax", "0", "--alpha", "1.2", "--precision", "3"])
    assert code == 0
    assert out.strip().splitlines()[1] == "0,18.026"


# --- wavefunction ------------------------------------------------------------

def test_wavefunction_ground_state_single_signed():
    code, out, _ = run_main(["wavefunction", "--n", "0", "--points", "150", "--alpha", "1.2"])
    assert code == 0
    header, rows = parse_table(out)
    assert header == ["r", "R_over_r", "R"]
    assert len(rows) == 150
    # one-signed: no entry of the opposite sign (edge values may round to 0)
    psi = np.array([float(row[1]) for row in rows])
    assert np.all(psi >= 0.0) and psi.max() > 0.0


def test_wavefunction_node_count():
    code, out, _ = run_main(["wavefunction", "--n", "3", "--points", "400", "--alpha", "1.2"])
    assert code == 0
    _, rows = parse_table(out)
    radial = np.array([float(row[2]) for row in rows])
    assert count_sign_changes(radial) == 3


def test_wavefunction_boundary_decay():
    code, out, _ = run_main(["wavefunction", "--n", "1", "--points", "500", "--alpha", "1.2"])
    assert code == 0
    _, rows = parse_table(out)
    radial = np.abs([float(row[2]) for row in rows])
    assert radial[0] <= 1e-3 * radial.max()
    assert radial[-1] <= 1e-3 * radial.max()


def test_wavefunction_smallest_alpha():
    code, out, err = run_main(["wavefunction", "--alpha", "0.002", "--n", "6", "--points", "1000"])
    assert code == 0, err
    _, rows = parse_table(out)
    assert count_sign_changes([float(row[2]) for row in rows]) == 6


def test_wavefunction_of_a_state_whose_norm_overflows():
    # log N_n is about 2324 at n = 600, yet the state peaks near 0.2
    code, out, err = run_main(["wavefunction", "--alpha", "0.002", "--n", "600", "--nmax", "600",
                               "--points", "2000"])
    assert code == 0, err
    _, rows = parse_table(out)
    assert len(rows) == 2000


def test_wavefunction_invalid_args():
    assert run_main(["wavefunction", "--n", "9", "--alpha", "1.2"])[0] == 2
    assert run_main(["wavefunction", "--n", "0", "--points", "1"])[0] == 2


# --- verify ------------------------------------------------------------------

def test_verify_oracle_alphas_pass():
    code, out, err = run_main(["verify", "--alpha", "1.2,0.8,0.4", "--nmax", "2",
                               "--grid-points", "1000"])
    assert code == 0, err
    header, rows = parse_table(out)
    assert header == ["n", "alpha", "e_closed", "e_nu", "e_oracle", "nu_dev", "oracle_dev"]
    assert len(rows) == 9
    assert all("skipped" not in row for row in rows)


def engine_off_by(relative):
    """energy_via_nu with its root scaled by 1 + relative, to patch into cli."""
    return lambda p, n: (1.0 + relative) * energy_via_nu(p, n)


def test_verify_unachievable_band_fails(monkeypatch):
    # inside ORACLE_BAND, but 3e-3 of the level spacing off at n = 6
    code, out, _ = run_main(["verify", "--m", "20", "--v1", "10", "--v2", "10",
                             "--alpha", "0.002", "--nmax", "6", "--grid-points", "1000"])
    assert code == 1
    assert out  # report still printed
    # a root 1e-8 off misses NU_BAND in every cell, and no other gate
    monkeypatch.setattr(ptnu.cli, "energy_via_nu", engine_off_by(1e-8))
    code, out, err = run_main(["verify", "--alpha", "0.002,0.02", "--nmax", "6",
                               "--grid-points", "1000"])
    assert code == 1 and out
    assert err.splitlines() == [f"verify: n={n} alpha={alpha} fails NU_BAND"
                                for alpha in (0.002, 0.02) for n in range(7)]


def test_a_wrong_engine_fails_every_cell_of_default_verify(monkeypatch):
    # the engine band is a constant: no setting lets a root 0.1 % off pass
    monkeypatch.setattr(ptnu.cli, "energy_via_nu", engine_off_by(1e-3))
    code, out, err = run_main(["verify"])
    assert code == 1 and out
    assert err.splitlines() == [f"verify: n={n} alpha={alpha} fails NU_BAND"
                                for alpha in TABLE2_ALPHAS for n in range(7)]


def test_verify_small_alpha_certified():
    code, out, err = run_main(["verify", "--alpha", "0.002", "--nmax", "1",
                               "--grid-points", "1000"])
    assert code == 0, err
    assert "skipped" not in out
    _, rows = parse_table(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row[6]) <= 1e-4


def json_matches_csv(argv):
    """Run argv in csv and in json, require each json row to hold its csv
    row's values as raw numbers, and return (json rows, csv rows)."""
    code, csv_out, _ = run_main(argv)
    code_j, json_out, _ = run_main(argv + ["--format", "json"])
    assert code == 0 and code_j == 0
    header, rows = parse_table(csv_out)
    cells = json.loads(json_out)
    assert len(cells) == len(rows)
    for cell, row in zip(cells, rows):
        assert list(cell) == header
        assert [cell[key] for key in header] == [float(text) for text in row], argv
    return cells, rows


def test_verify_json_round_trip():
    cells, csv_rows = json_matches_csv(["verify", "--alpha", "1.2,0.002", "--nmax", "1",
                                        "--grid-points", "1000"])
    for cell, row in zip(cells, csv_rows):
        assert str(cell["n"]) == row[0]
        assert float(cell["e_closed"]) == pytest.approx(float(row[2]), abs=1e-8)
        assert isinstance(cell["e_oracle"], float)
        assert cell["e_oracle"] == pytest.approx(float(row[4]), abs=1e-8)
    # with table2's own test, every command's json output is checked
    json_matches_csv(["limit"])
    json_matches_csv(["wavefunction", "--n", "2", "--points", "50", "--alpha", "0.02"])


def test_certify_fails_the_corner_at_n5_and_n6():
    # at N = 1000 the oracle misses n = 5 and 6 by 1.8e-3 and 3.0e-3 of a
    # spacing, inside the relative band
    cells = certify(PtPotential(20.0, 10.0, 10.0, 0.002), 7, 1000)
    assert [c.n for c in cells] == list(range(7))
    assert all(c.oracle_dev <= 1e-4 and c.nu_dev <= 1e-9 for c in cells)
    assert [(c.n, c.failed) for c in cells if c.failed] == [(5, ("ORACLE_SPACING",)),
                                                             (6, ("ORACLE_SPACING",))]


def test_verify_names_each_failed_cell_on_stderr():
    # stdout and the exit code alone do not say which cell or gate failed
    code, out, err = run_main(["verify", "--m", "20", "--v1", "10", "--v2", "10",
                               "--alpha", "0.002", "--grid-points", "1000"])
    assert code == 1 and out
    assert err.splitlines() == ["verify: n=5 alpha=0.002 fails ORACLE_SPACING",
                                "verify: n=6 alpha=0.002 fails ORACLE_SPACING"]


def test_verify_at_a_negligible_coupling_fails_spacing_not_the_oracle():
    # the oracle's shifts land on diagonal entries with near-zero pivots;
    # its levels stay finite, so the cells fail ORACLE_SPACING alone
    code, out, err = run_main(["verify", "--m", "50", "--v1", "100", "--v2", "100",
                               "--alpha", "1e-59", "--nmax", "6"])
    assert code == 1 and out and "nan" not in out + err
    assert err.splitlines() == [f"verify: n={n} alpha=1e-59 fails ORACLE_SPACING"
                                for n in range(7)]


def test_certify_fails_exactly_the_cells_outside_nu_band(monkeypatch):
    p = PtPotential(10.0, 5.0, 3.0, 0.002)
    loose = certify(p, 7, 1000)
    monkeypatch.setattr(ptnu.cli, "NU_BAND", 1e-17)
    tight = certify(p, 7, 1000)
    assert all(c.failed == () for c in loose)
    # the band moves the verdicts alone, and only where nu_dev exceeds it
    assert [c[:-1] for c in tight] == [c[:-1] for c in loose]
    assert [c.failed for c in tight] == [("NU_BAND",) if c.nu_dev > 1e-17 else () for c in tight]
    assert {c.failed for c in tight} == {("NU_BAND",), ()}


# (10, 5, 3) at alpha = 0.002, the smallest default alpha
SMALL_ALPHA = PtPotential(10.0, 5.0, 3.0, 0.002)


def test_live_defect_2000_points_fail_n20_at_alpha_0_002():
    # an open defect: the oracle misses n = 20 by 1.05e-3 of the gap to
    # n = 21, against the 1e-3 of ORACLE_SPACING.  An oracle that refines
    # its own grid would pass the cell, and fail this test.
    cells = certify(SMALL_ALPHA, 21, 2000)
    assert [(c.n, c.failed) for c in cells if c.failed] == [(20, ("ORACLE_SPACING",))]


def test_4000_points_certify_n30_at_alpha_0_002():
    # the workaround for the defect above: worst miss 2.11e-4 of a gap,
    # worst oracle_dev 9.4e-8
    cells = certify(SMALL_ALPHA, 31, 4000)
    assert [c.n for c in cells] == list(range(31))
    assert [c for c in cells if c.failed] == []


@pytest.mark.parametrize("config,engine_error,code", [
    (RunConfig(alphas=(1.2, 0.002), n_max=3, grid_points=1000), 0.0, 0),
    # a root 1e-8 off: every cell misses NU_BAND, and no other gate
    (RunConfig(alphas=(0.002, 0.02), grid_points=1000), 1e-8, 1),
    (RunConfig(m=20.0, v1=10.0, v2=10.0, alphas=(0.002,), grid_points=1000), 0.0, 1),
    (RunConfig(m=20.0, v1=10.0, v2=10.0, alphas=(0.002,), n_max=4, grid_points=1000), 0.0, 0),
])
def test_verify_prints_the_records_and_fails_when_one_fails(config, engine_error, code,
                                                            monkeypatch):
    monkeypatch.setattr(ptnu.cli, "energy_via_nu", engine_off_by(engine_error))
    cells = [cell for alpha in config.alphas
             for cell in certify(PtPotential(config.m, config.v1, config.v2, alpha),
                                 config.n_max + 1, config.grid_points)]
    assert (1 if any(c.failed for c in cells) else 0) == code
    if engine_error:
        assert {c.failed for c in cells} == {("NU_BAND",)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cmd_verify(config) == code
    header, rows = parse_table(out.getvalue())
    assert header == ["n", "alpha", "e_closed", "e_nu", "e_oracle", "nu_dev", "oracle_dev"]
    assert [(int(row[0]), float(row[1])) for row in rows] == [(c.n, c.alpha) for c in cells]


def test_verify_rejects_coarse_grid():
    code, _, err = run_main(["verify", "--grid-points", "500", "--alpha", "1.2"])
    assert code == 2
    assert "grid_points" in err


# --- limit -------------------------------------------------------------------

def test_limit_deviation_decreasing():
    code, out, _ = run_main(["limit"])
    assert code == 0
    _, rows = parse_table(out)
    deviations = [float(row[2]) for row in rows]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))


def test_limit_equal_depths():
    code, out, _ = run_main(["limit", "--v1", "1", "--v2", "1", "--alpha", "0.5"])
    assert code == 0
    _, rows = parse_table(out)
    assert rows[0][3] == "4.00000000"


def test_limit_small_alpha_energy():
    code, out, _ = run_main(["limit", "--alpha", "0.002"])
    assert code == 0
    _, rows = parse_table(out)
    assert rows[0][1] == "15.74951629"


def test_limit_of_depths_whose_product_overflows():
    # V1 * V2 = 1e615 overflows, while V1 + V2 + 2 sqrt(V1) sqrt(V2) is a float
    code, out, _ = run_main(["limit", "--m", "1e-300", "--v1", "1e308", "--v2", "1e307",
                             "--format", "json"])
    assert code == 0
    limits = {row["limit"] for row in json.loads(out)}
    assert limits == {1.732455532033676e308}


# --- configuration -----------------------------------------------------------

def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# reference setup\nm=10\nv1=5\nv2=3\nalpha=0.8\nprecision=6\n")
    code, out, _ = run_main(["table2", "--nmax", "0", "--config", str(config)])
    assert code == 0
    assert out.strip().splitlines()[1] == f"0,{energy_closed_form(reference_potential(0.8), 0):.6f}"
    # flags win over the file
    code, out, _ = run_main(["table2", "--nmax", "0", "--config", str(config),
                             "--alpha", "1.2", "--precision", "8"])
    assert out.strip().splitlines()[1] == f"0,{energy_closed_form(reference_potential(1.2), 0):.8f}"


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(b"m=10\nalpha=0.8\n")
    marked.write_bytes(b"\xef\xbb\xbfm=10\nalpha=0.8\n")
    with_bom = run_main(["table2", "--config", str(marked)])
    assert with_bom[0] == 0, with_bom[2]
    assert with_bom == run_main(["table2", "--config", str(plain)])


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("mass=10\n")
    code, _, err = run_main(["table2", "--config", str(config)])
    assert code == 2
    assert "unknown key" in err


def test_config_file_refuses_the_engine_band(tmp_path):
    # NU_BAND is a constant, not a setting
    config = tmp_path / "old.cfg"
    config.write_text("alpha=1.2\ntol = 1e-9\n")
    code, out, err = run_main(["verify", "--config", str(config)])
    assert (code, out) == (2, "")
    assert err == f"error: {config}:2: unknown key 'tol'\n"


def test_config_file_bad_value(tmp_path):
    config = tmp_path / "bad.cfg"
    # the last two are not UTF-8, and longer than any config file needs
    for text in (b"m=ten\n", b"alpha=1.2,x\n", b"m 10\n", b"m=10\n\xff\xfe=3\n", b"#" * 65537):
        config.write_bytes(text)
        code, out, err = run_main(["table2", "--config", str(config)])
        assert (code, out) == (2, ""), text
        assert str(config) in err, text


def test_config_file_sets_every_key_as_the_flags_do(tmp_path):
    settings = {"m": "12", "v1": "4", "v2": "6", "alpha": "1.1,0.5", "nmax": "1",
                "grid_points": "1000", "format": "json", "precision": "12"}
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
    from_file = run_main(["verify", "--config", str(config)])
    flags = [item for key, value in settings.items()
             for item in (f"--{key.replace('_', '-')}", value)]
    from_flags = run_main(["verify"] + flags)
    assert from_file[0] == from_flags[0] == 0, from_file[2]
    assert from_file[1] == from_flags[1]
    assert json.loads(from_file[1])[0]["alpha"] == 1.1


# the limit, V1 + V2 + 2 sqrt(V1) sqrt(V2), rounds to inf while the level,
# summed in another order, rounds to the largest float
OVERFLOWING_LIMIT = ["limit", "--m", "1e-10", "--v1", "1e308", "--v2", "1.1613154887379645e307"]


def test_invalid_flags_exit_two():
    for argv in (["table2", "--precision", "0"],
                 ["table2", "--m", "-4"],
                 ["table2", "--alpha", "1.2,-0.5"],
                 ["table2", "--nmax", "-1"],
                 ["table2", "--m", "inf"],
                 ["table2", "--v2", "nan"],
                 ["limit", "--alpha", "inf", "--format", "json"],
                 # finite inputs whose results leave floating-point range
                 ["table2", "--m", "1e308"],
                 ["limit", "--v1", "1e308", "--v2", "1e308", "--format", "json"],
                 # the limit overflows and the level does not; the
                 # printed-value check refuses the deviation
                 OVERFLOWING_LIMIT,
                 ["verify", "--alpha", "1.2", "--nmax", "0", "--m", "1e300", "--v1", "1e10",
                  "--grid-points", "1000"],
                 # extreme range parameters: 4 alpha^2 underflows, dstebz cannot
                 # count, 2/h^2 overflows, h * h underflows, rounding swamps the
                 # norm (at 1e-305 the log-gamma of its bound overflows)
                 ["verify", "--alpha", "1e-163", "--nmax", "0"],
                 ["wavefunction", "--alpha", "1e-300"],
                 ["wavefunction", "--alpha", "1e-305"],
                 ["verify", "--alpha", "1e150", "--nmax", "0"],
                 ["verify", "--alpha", "1e155", "--nmax", "0"],
                 ["verify", "--alpha", "1e160", "--nmax", "0"],
                 ["wavefunction", "--alpha", "1e-50"],
                 # the norm's rounding could exceed its bound, at small alpha
                 # and at a V1 far above about 2.8e14
                 ["wavefunction", "--alpha", "1e-12"],
                 ["wavefunction", "--v1", "1e40"],
                 ["verify", "--alpha", "1e308", "--nmax", "0"],
                 # above a ceiling on the size of a run
                 ["table2", "--nmax", "1001"],
                 ["table2", "--alpha", ",".join(["1.2"] * 101)],
                 ["wavefunction", "--points", "100001"],
                 ["wavefunction", "--n", "100", "--nmax", "100", "--points", "100000"],
                 ["verify", "--grid-points", "100001", "--alpha", "1.2", "--nmax", "0"],
                 ["verify", "--grid-points", "4000", "--alpha", "1.2", "--nmax", "999"],
                 ["verify", "--grid-points", "40000", "--alpha", "1.2,0.4", "--nmax", "49"],
                 # more levels than the coarse grid has eigenvalues
                 ["verify", "--nmax", "1000", "--grid-points", "1000", "--alpha", "1.2"],
                 # RunConfig's checks and argparse's own type check refuse
                 # alike, whichever command runs
                 ["table2", "--grid-points", "5"],
                 ["table2", "--format", "xml"],
                 ["wavefunction", "--n", "junk"]):
        code, out, err = run_main(argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        if argv is OVERFLOWING_LIMIT:
            assert "is not finite" in err, err


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "1e300"],
    ["limit", "--tol", "0"],
    ["limit", "--tol", "inf"],
])
def test_the_engine_band_is_not_a_flag(argv):
    # an unknown flag: argparse prints its usage and exits 2, before any work
    done = subprocess.run([sys.executable, "-m", "ptnu", *argv], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ptnu")
    assert done.stderr.endswith("error: unrecognized arguments: --tol " + argv[-1] + "\n")


@pytest.mark.parametrize("argv", [
    ["table2", "--nmax", str(10 ** 160)],
    ["wavefunction", "--n", str(10 ** 160), "--nmax", str(10 ** 160)],
])
def test_oversized_runs_are_refused_before_any_work(argv):
    # without a ceiling on nmax, the first ran until killed and the second
    # ended in an OverflowError traceback with exit 1
    done = subprocess.run([sys.executable, "-m", "ptnu", *argv], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: nmax must be in [0, 1000]")
    assert done.stderr.count("\n") == 1


def test_run_config_validate_direct():
    # every record checks itself: built directly, or copied by _replace
    for bad in ({"format": "xml"}, {"precision": 18}, {"m": math.inf},
                {"alphas": (1.2, math.nan)}, {"grid_points": 999}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    with pytest.raises(ConfigError):
        RunConfig()._replace(precision=18)
    assert RunConfig()._replace(precision=17).precision == 17


def test_run_config_keeps_its_defaults():
    defaults = {"m": 10.0, "v1": 5.0, "v2": 3.0, "alphas": (1.2, 0.8, 0.4, 0.2, 0.02, 0.002),
                "n_max": 6, "grid_points": 2000, "format": "csv", "precision": 8}
    config = RunConfig()
    assert config._fields == tuple(defaults)
    for field, value in defaults.items():
        assert getattr(config, field) == value and type(getattr(config, field)) is type(value), field
    # a tuple, so it equals the plain tuple of its fields
    assert config == tuple(defaults.values())


# --- binary contract ---------------------------------------------------------

def test_cli_import_does_not_load_scipy():
    # no module imports scipy: verify loads only its LAPACK extension, and only
    # when the oracle first runs, so table2/limit/wavefunction never pay for it
    probe = "import sys, ptnu.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("code,absent", [
    ("import ptnu", {"numpy", "scipy"}),
    ("from ptnu.cli import main; main(['table2'])", {"numpy", "scipy"}),
    ("from ptnu.cli import main; main(['limit'])", {"numpy", "scipy"}),
    ("from ptnu.cli import main; main(['wavefunction'])", {"numpy", "scipy"}),
    ("from ptnu.cli import main; main(['verify', '--alpha', '1.2'])", {"scipy"}),
])
def test_closed_form_commands_do_not_load_array_libraries(code, absent):
    # table2 and limit need only the closed form, and wavefunction evaluates
    # its samples one float at a time: all three need only the math module.
    # verify needs numpy, and of scipy only the LAPACK extension the oracle
    # loads from its file
    probe = f"import sys; {code}; print(*{{m.split('.')[0] for m in sys.modules}})"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split())
    assert loaded & absent == set()


@pytest.mark.parametrize("code", [
    "import ptnu",
    "import ptnu.cli",
    "from ptnu.cli import main; main(['table2'])",
    "from ptnu.cli import main; main(['limit'])",
])
def test_cli_paths_do_not_load_dataclasses_inspect_or_typing(code):
    # none of the three is needed at run time, and dataclasses alone pulls in
    # inspect.  Both interpreters skip site (-S), and only the modules the
    # code adds to the bare one count, so a site that loads them changes nothing.
    listing = "print(*sorted(sys.modules))"
    bare = subprocess.run([sys.executable, "-S", "-c", f"import sys; {listing}"],
                          capture_output=True, text=True)
    done = subprocess.run([sys.executable, "-S", "-c",
                           f"import sys; sys.path.insert(0, {SRC!r}); {code}; {listing}"],
                          capture_output=True, text=True)
    assert bare.returncode == 0 and done.returncode == 0, done.stderr
    added = set(done.stdout.splitlines()[-1].split()) - set(bare.stdout.split())
    assert "ptnu" in added
    assert added & {"dataclasses", "inspect", "typing"} == set()


def test_main_reuses_one_parser_across_calls():
    # the parser is built once per process; every call must still behave
    # as the same command run on its own
    assert _build_parser() is _build_parser()
    argvs = [["table2", "--nmax", "1"],
             ["limit", "--alpha", "0.4,0.2", "--format", "json"],
             ["wavefunction", "--n", "1", "--points", "3"],
             ["table2", "--precision", "0"],
             ["table2", "--format", "tsv", "--precision", "4"]]
    together = [run_main(argv) for argv in argvs]
    for argv, result in zip(argvs, together):
        alone = subprocess.run([sys.executable, "-m", "ptnu", *argv], capture_output=True,
                               text=True, env=CHILD_ENV)
        assert result == (alone.returncode, alone.stdout, alone.stderr), argv
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 0]
    with pytest.raises(SystemExit) as bad:
        run_main(["table2", "--no-such-flag"])
    assert bad.value.code == 2
    assert run_main(argvs[0]) == together[0]


def test_a_missing_command_keeps_the_usage_exit():
    # as an unknown flag does (see above): argparse prints its usage
    with pytest.raises(SystemExit) as bad:
        run_main([])
    assert bad.value.code == 2


@pytest.mark.parametrize("command", ["ptnu", "table2", "wavefunction", "verify", "limit"])
def test_help_matches_golden(command, monkeypatch, capsys):
    # argparse wraps its help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(([] if command == "ptnu" else [command]) + ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{command}.txt").read_text(encoding="utf-8")


def test_module_entry_point_exit_codes():
    ok = subprocess.run([sys.executable, "-m", "ptnu", "table2", "--nmax", "0"],
                        capture_output=True, text=True, env=CHILD_ENV)
    assert ok.returncode == 0
    assert ok.stdout.startswith("n,alpha=1.2")
    assert ok.stderr == ""
    bad = subprocess.run([sys.executable, "-m", "ptnu", "table2", "--precision", "99"],
                         capture_output=True, text=True, env=CHILD_ENV)
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert "precision" in bad.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_leaves_early_gets_status_141(unbuffered):
    # 100,000 rows overfill the pipe, so the command is still writing when
    # the reader closes it after one line, as `| head -1` does; this ended
    # in a BrokenPipeError traceback and exit 1, the failed-verification
    # status.  Unbuffered, the error comes from a write, else from a flush.
    env = dict(CHILD_ENV)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "ptnu", "wavefunction", "--points", "100000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.readline() == b"r,R_over_r,R\n"
        child.stdout.close()
        _, err = child.communicate(timeout=30)
    assert (child.returncode, err) == (141, b"")


def run_redirected(argv, redirect):
    """Run `python -m ptnu argv` with one shell redirection applied to the
    child alone; returns the CompletedProcess, its streams as text."""
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh",
                           sys.executable, "-m", "ptnu", *argv],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=60)


@pytest.mark.parametrize("argv,redirect,code", [
    (["table2"], ">&-", errno.EBADF),
    (["limit"], ">/dev/full", errno.ENOSPC),
    (["--help"], ">&-", errno.EBADF),
    (["verify", "--help"], ">/dev/full", errno.ENOSPC),
], ids=["closed", "full", "help-closed", "help-full"])
def test_a_closed_or_full_stdout_gets_status_74(argv, redirect, code):
    # these ended in an AttributeError and an OSError traceback with exit 1,
    # the failed-verification status; 74 is EX_IOERR in sysexits.h.  The
    # help exited 0, written to stderr when stdout was closed and lost when
    # it was full.
    done = run_redirected(argv, redirect)
    assert (done.returncode, done.stdout) == (74, "")
    assert done.stderr == f"error: cannot write output: [Errno {code}] {os.strerror(code)}\n"


@pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"], ids=["closed", "full"])
def test_a_refused_flag_with_a_closed_or_full_stderr_leaves_stdout_empty(redirect):
    # closed, print(file=None) wrote the error line to stdout; full, the
    # OSError of that print ended the run with exit 1
    done = run_redirected(["table2", "--m", "-1"], redirect)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "")


def test_a_failed_verify_with_stderr_closed_prints_only_the_table():
    # print(file=None) appended the failed-cell line to the table on stdout
    argv = ["verify", "--alpha", "0.002", "--nmax", "20"]
    code, out, err = run_main(argv)
    assert (code, err) == (1, "verify: n=20 alpha=0.002 fails ORACLE_SPACING\n")
    done = run_redirected(argv, "2>&-")
    assert (done.returncode, done.stdout, done.stderr) == (1, out, "")
