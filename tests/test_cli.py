import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import TABLE2_ALPHAS, count_sign_changes, reference_potential
from ptnu import energy_closed_form
from ptnu.cli import RunConfig, cmd_limit, cmd_table2, cmd_verify, cmd_wavefunction, main
from ptnu.errors import ConfigError


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
    devs = [row[header.index("oracle_dev")] for row in rows]
    populated = [float(d) for d in devs if d != "skipped"]
    assert len(populated) == 21
    assert max(populated) <= 1e-9


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


def test_verify_unachievable_band_fails():
    # sub-ulp relative band: no root-finder can satisfy it
    code, out, _ = run_main(["verify", "--alpha", "0.002,0.02", "--nmax", "6",
                             "--grid-points", "1000", "--tol", "1e-17"])
    assert code == 1
    assert out  # report still printed


def test_verify_small_alpha_skipped():
    code, out, _ = run_main(["verify", "--alpha", "0.002", "--nmax", "1",
                             "--grid-points", "1000"])
    assert code == 0
    _, rows = parse_table(out)
    for row in rows:
        assert row[4] == "skipped" and row[6] == "skipped"


def test_verify_json_round_trip():
    args = ["verify", "--alpha", "1.2,0.002", "--nmax", "1", "--grid-points", "1000"]
    _, csv_out, _ = run_main(args)
    _, json_out, _ = run_main(args + ["--format", "json"])
    _, csv_rows = parse_table(csv_out)
    cells = json.loads(json_out)
    assert len(cells) == len(csv_rows)
    for cell, row in zip(cells, csv_rows):
        assert str(cell["n"]) == row[0]
        assert float(cell["e_closed"]) == pytest.approx(float(row[2]), abs=1e-8)
        if row[4] == "skipped":
            assert cell["e_oracle"] is None
        else:
            assert float(cell["e_oracle"]) == pytest.approx(float(row[4]), abs=1e-8)


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


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("mass=10\n")
    code, _, err = run_main(["table2", "--config", str(config)])
    assert code == 2
    assert "unknown key" in err


def test_config_file_bad_value(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("m=ten\n")
    code, _, err = run_main(["table2", "--config", str(config)])
    assert code == 2


def test_invalid_flags_exit_two():
    for argv in (["table2", "--precision", "0"],
                 ["table2", "--m", "-4"],
                 ["table2", "--alpha", "1.2,-0.5"],
                 ["table2", "--nmax", "-1"],
                 ["limit", "--tol", "0"],
                 ["table2", "--m", "inf"],
                 ["table2", "--v2", "nan"],
                 ["limit", "--alpha", "inf", "--format", "json"],
                 ["limit", "--tol", "inf"],
                 # finite inputs whose results leave floating-point range
                 ["table2", "--m", "1e308"],
                 ["limit", "--v1", "1e308", "--v2", "1e308", "--format", "json"],
                 ["verify", "--alpha", "1.2", "--nmax", "0", "--m", "1e300", "--v1", "1e10",
                  "--grid-points", "1000"]):
        code, out, err = run_main(argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:")


def test_run_config_validate_direct():
    with pytest.raises(ConfigError):
        RunConfig(format="xml").validate()
    with pytest.raises(ConfigError):
        RunConfig(precision=18).validate()
    with pytest.raises(ConfigError):
        RunConfig(m=math.inf).validate()
    with pytest.raises(ConfigError):
        RunConfig(alphas=(1.2, math.nan)).validate()
    assert RunConfig().validate() is not None


def test_commands_accept_explicit_streams():
    out = io.StringIO()
    assert cmd_table2(RunConfig(n_max=0, alphas=(1.2,)), out) == 0
    assert out.getvalue().startswith("n,alpha=1.2")
    out = io.StringIO()
    assert cmd_limit(RunConfig(alphas=(0.5,)), out) == 0
    out = io.StringIO()
    assert cmd_wavefunction(RunConfig(alphas=(1.2,)), 0, 5, out) == 0
    with pytest.raises(ConfigError):
        cmd_verify(RunConfig(grid_points=100), io.StringIO())


# --- binary contract ---------------------------------------------------------

def test_cli_import_does_not_load_scipy():
    # the oracle defers its scipy import, so table2/limit/wavefunction never pay for it
    probe = "import sys, ptnu.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_module_entry_point_exit_codes():
    ok = subprocess.run([sys.executable, "-m", "ptnu", "table2", "--nmax", "0"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    assert ok.stdout.startswith("n,alpha=1.2")
    assert ok.stderr == ""
    bad = subprocess.run([sys.executable, "-m", "ptnu", "table2", "--precision", "99"],
                         capture_output=True, text=True)
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert "precision" in bad.stderr
