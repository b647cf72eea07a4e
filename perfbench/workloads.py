"""The four workloads: inputs made from a seed, the timed operation, and
the checks of its output against `reference`.

A workload is a list of rounds; a run repeats them in order and stops
only between rounds, so every run attempts whole rounds of the same
operations and the share of failed operations is the same in every run.

Import this module only after `import ptnu` has been timed: it pulls in
mpmath and the benchmark's own references.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from ptnu import cli as ptnu_cli
from ptnu import poschl_teller as pt

import reference as ref
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CERTIFY_ALPHAS = (1.2, 0.8, 0.4)
CERTIFY_GRID_POINTS = 1000
WAVEFUNCTION_POINTS = 400
SPECTRUM_POTENTIALS = 200


class Failed(Exception):
    """Raised by a check when an operation returned without raising but
    its result cannot be used; the operation counts as failed."""


@dataclass
class Workload:
    """`run` is the timed operation.  A workload whose program runs in
    child processes has `in_process` false; its children are traced when
    `child_trace` names a tracer mode, and report into `child_stats`."""

    name: str
    rounds: list[list[Any]]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    finish: Callable[[], list[str]] = field(default=lambda: [])
    in_process: bool = True
    child_trace: str | None = None
    child_stats: list[dict] = field(default_factory=list)


def _draw_potential(rng: random.Random, m_range, v_range) -> tuple[float, float, float]:
    return (round(rng.uniform(*m_range), 6), round(rng.uniform(*v_range), 6),
            round(rng.uniform(*v_range), 6))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 6)


# --- certify ---------------------------------------------------------------

def _certify(seed: int) -> Workload:
    rng = random.Random(seed)
    potentials = [ref.PAPER] + [_draw_potential(rng, (2.0, 20.0), (1.0, 10.0)) for _ in range(2)]
    # Each round takes every potential and every alpha once (a Latin
    # square), so every round costs about the same and a run's mix does
    # not depend on how many rounds fit in it.
    rounds = [[(pot, CERTIFY_ALPHAS[(j + k) % 3]) for j, pot in enumerate(potentials)]
              for k in range(3)]
    refs = {(pot, a): [ref.energy(*pot, a, n) for n in range(7)]
            for pot in potentials for a in CERTIFY_ALPHAS}

    def run(item):
        (m, v1, v2), alpha = item
        argv = ["verify", "--m", repr(m), "--v1", repr(v1), "--v2", repr(v2),
                "--alpha", repr(alpha), "--nmax", "6",
                "--grid-points", str(CERTIFY_GRID_POINTS),
                "--format", "json", "--precision", "12"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ptnu_cli.main(argv)
        return code, json.loads(out.getvalue())

    def check(item, output):
        (m, v1, v2), alpha = item
        code, rows = output
        expected = refs[item]
        problems = [] if code == 0 else [f"verify {item} exited {code}"]
        if [(r["n"], r["alpha"]) for r in rows] != [(n, alpha) for n in range(7)]:
            return problems + [f"verify {item} returned rows {[(r['n'], r['alpha']) for r in rows]}"]
        for row, e_ref in zip(rows, expected):
            label = f"verify {item} n={row['n']}"
            problems += ref.relative_problem(label + " e_closed", row["e_closed"], e_ref, ref.CLOSED_BAND)
            problems += ref.relative_problem(label + " e_nu", row["e_nu"], e_ref, ref.NU_BAND)
            problems += ref.relative_problem(label + " e_oracle", row["e_oracle"], e_ref, ref.ORACLE_BAND)
        problems += ref.ladder_problems(f"verify {item} e_nu", [r["e_nu"] for r in rows], v1, v2)
        return problems

    return Workload("certify", rounds, run, check)


# --- spectrum --------------------------------------------------------------

def _spectrum(seed: int) -> Workload:
    rng = random.Random(seed)
    cells = [(ref.PAPER + (alpha,), n) for alpha in ref.TABLE2_ALPHAS for n in range(7)]
    # Enough seeded potentials that the mix of cheap and dear roots, and
    # so the cost of a round, hardly moves from seed to seed.
    for _ in range(SPECTRUM_POTENTIALS):
        pot = _draw_potential(rng, (1.0, 20.0), (0.5, 10.0)) + (_log_uniform(rng, 0.002, 1.5),)
        cells += [(pot, n) for n in range(11)]
    refs = {cell: ref.energy(*cell[0], cell[1]) for cell in cells}
    seen: dict[tuple, dict[int, float]] = {}

    def run(cell):
        p = pt.PtPotential(*cell[0])
        return pt.energy_closed_form(p, cell[1]), pt.energy_via_nu(p, cell[1])

    def check(cell, output):
        closed, via_nu = output
        problems = (ref.relative_problem(f"closed form {cell}", closed, refs[cell], ref.CLOSED_BAND)
                    + ref.relative_problem(f"energy_via_nu {cell}", via_nu, refs[cell], ref.NU_BAND))
        pot, n = cell
        if pot[:3] == ref.PAPER and pot[3] in ref.TABLE2:
            problems += ref.published_problem(f"closed form {cell}", pot[3], n, closed)
        seen.setdefault(cell[0], {})[cell[1]] = via_nu
        return problems

    def finish():
        problems = ref.published_problems()
        for pot, levels in seen.items():
            energies = [levels[n] for n in sorted(levels)]
            problems += ref.ladder_problems(f"energy_via_nu {pot}", energies, pot[1], pot[2])
        return problems

    return Workload("spectrum", [cells], run, check, finish)


# --- wavefunction ----------------------------------------------------------

class WrongNorm(Failed):
    """The state came back with a norm, by the benchmark's own quadrature,
    more than NORM_BAND away from 1.  The operation counts as failed."""


def _wavefunction(seed: int) -> Workload:
    # Seeded alphas are left out: normalize raises DomainError at alphas
    # spread through (0, 1.5] (0.143888, 0.791168, 0.992338 among them),
    # so which seeds fail could not be told in advance.  The seed orders
    # the states instead; the first stays a state that succeeds.
    rng = random.Random(seed)
    states = [(a, n) for a in ref.TABLE2_ALPHAS for n in range(7)]
    rest = states[1:]
    rng.shuffle(rest)
    states = states[:1] + rest
    grids = {a: ref.state_grid(*ref.PAPER, a, 6) for a in ref.TABLE2_ALPHAS}
    refs = {s: ref.energy(*ref.PAPER, *s) for s in states}
    values: dict[tuple[float, int], np.ndarray] = {}

    def run(item):
        alpha, n = item
        state, radial = pt.normalized_wavefunction(pt.PtPotential(*ref.PAPER, alpha), n)
        return state, radial(grids[alpha][0])

    def check(item, output):
        state, samples = output
        norm = float(grids[item[0]][1] @ (samples * samples))
        if not abs(norm - 1.0) <= ref.NORM_BAND:
            raise WrongNorm(f"state {item} has norm {norm!r}")
        problems = ref.relative_problem(f"state {item} energy", state.energy, refs[item], ref.CLOSED_BAND)
        if ref.sign_changes(samples) != item[1]:
            problems.append(f"state {item} has {ref.sign_changes(samples)} interior nodes")
        values[item] = samples
        return problems

    def finish():
        problems = []
        for (alpha, n), lower in values.items():
            upper = values.get((alpha, n + 1))
            if upper is not None:
                overlap = float(grids[alpha][1] @ (lower * upper))
                if not abs(overlap) <= ref.OVERLAP_BAND:
                    problems.append(f"states {n}, {n + 1} at alpha={alpha} overlap {overlap!r}")
        return problems

    return Workload("wavefunction", [states], run, check, finish)


# --- cli -------------------------------------------------------------------

def ptnu_command(program: list[str]) -> subprocess.CompletedProcess:
    """Run `python <program>` on the checkout's sources and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *program], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _cli(seed: int) -> Workload:
    rng = random.Random(seed)
    # The wavefunction command keeps the paper's potential at alpha = 1.2:
    # at other alphas and depths normalize can raise DomainError or miss
    # the unit norm (see the wavefunction workload), depending on the seed.
    potentials = [ref.PAPER] + [_draw_potential(rng, (2.0, 20.0), (1.0, 10.0)) for _ in range(3)]
    alpha_list = ",".join(repr(a) for a in ref.TABLE2_ALPHAS)
    paper_flags = ("--m", repr(ref.PAPER[0]), "--v1", repr(ref.PAPER[1]), "--v2", repr(ref.PAPER[2]))
    wavefunction = ("wavefunction", ref.PAPER, (1.2,),
                    ("wavefunction",) + paper_flags + ("--alpha", "1.2", "--n", "2",
                                                       "--points", str(WAVEFUNCTION_POINTS)))
    rounds = []
    for pot in potentials:
        flags = ("--m", repr(pot[0]), "--v1", repr(pot[1]), "--v2", repr(pot[2]))
        rounds.append([
            ("table2", pot, ref.TABLE2_ALPHAS, ("table2",) + flags + ("--alpha", alpha_list)),
            ("limit", pot, ref.TABLE2_ALPHAS, ("limit",) + flags + ("--alpha", alpha_list)),
            wavefunction,
        ])
    refs = {(pot, a): [ref.energy(*pot, a, n) for n in range(7)]
            for r in rounds for _, pot, alphas, _ in r for a in alphas}

    def run(item):
        if workload.child_trace is None:
            return ptnu_command(["-m", "ptnu", *item[3]])
        done = ptnu_command([str(HERE / "cli_child.py"), workload.child_trace, *item[3]])
        stderr = []
        for line in done.stderr.splitlines(keepends=True):
            if line.startswith(tracer.MARKER):
                workload.child_stats.append(json.loads(line[len(tracer.MARKER):]))
            else:
                stderr.append(line)
        done.stderr = "".join(stderr)
        return done

    def check_table2(pot, alphas, lines):
        problems = []
        if lines[0] != ["n"] + [f"alpha={a}" for a in alphas] or len(lines) != 8:
            return [f"table2 {pot}: unexpected layout {lines[:1]} with {len(lines)} lines"]
        for n, row in enumerate(lines[1:]):
            for alpha, token in zip(alphas, row[1:]):
                e_ref = refs[(pot, alpha)][n]
                problems += ref.printed_problem(f"table2 {pot} alpha={alpha} n={n}", token, e_ref)
                if pot == ref.PAPER:
                    problems += ref.published_problem(f"table2 alpha={alpha} n={n}", alpha, n, float(token))
        for j, alpha in enumerate(alphas):
            column = [float(row[j + 1]) for row in lines[1:]]
            problems += ref.ladder_problems(f"table2 {pot} alpha={alpha}", column, pot[1], pot[2])
        return problems

    def check_limit(pot, alphas, lines):
        if lines[0] != ["alpha", "energy", "abs_deviation", "limit"] or len(lines) != len(alphas) + 1:
            return [f"limit {pot}: unexpected layout {lines[:1]} with {len(lines)} lines"]
        problems = []
        floor = ref.well_floor(pot[1], pot[2])
        for alpha, (a_token, e_token, dev_token, lim_token) in zip(alphas, lines[1:]):
            e_ref = refs[(pot, alpha)][0]
            if float(a_token) != alpha:
                problems.append(f"limit {pot}: row alpha {a_token}, expected {alpha}")
            problems += ref.printed_problem(f"limit {pot} alpha={alpha} energy", e_token, e_ref)
            problems += ref.printed_problem(f"limit {pot} limit", lim_token, floor)
            problems += ref.relative_problem(f"limit {pot} alpha={alpha} deviation",
                                             float(dev_token), e_ref - floor, 1e-6)
        return problems

    def check_wavefunction(pot, alpha, lines):
        if lines[0] != ["r", "R_over_r", "R"] or len(lines) != WAVEFUNCTION_POINTS + 1:
            return [f"wavefunction {pot}: unexpected layout {lines[:1]} with {len(lines)} lines"]
        table = np.array([[float(x) for x in row] for row in lines[1:]])
        r, r_over, radial = table.T
        step = math.pi / (2.0 * alpha) / (WAVEFUNCTION_POINTS + 1)
        problems = []
        if not np.allclose(r, step * np.arange(1, WAVEFUNCTION_POINTS + 1), rtol=0, atol=6e-9):
            problems.append(f"wavefunction {pot} alpha={alpha}: sample points off the uniform grid")
        if not np.allclose(r_over * r, radial, rtol=0, atol=1e-6):
            problems.append(f"wavefunction {pot} alpha={alpha}: R_over_r * r differs from R")
        # R vanishes at both ends of the well, so the trapezoid rule over
        # the 400 samples is the integral of R^2 over the whole well.
        norm = float(step * np.sum(radial * radial))
        if not abs(norm - 1.0) <= 1e-6:
            problems.append(f"wavefunction {pot} alpha={alpha}: samples integrate to {norm!r}")
        if ref.sign_changes(radial) != 2:
            problems.append(f"wavefunction {pot} alpha={alpha}: {ref.sign_changes(radial)} sign changes")
        return problems

    def check(item, output):
        command, pot, alphas, _ = item
        if output.returncode != 0 or output.stderr:
            return [f"{command} {pot} exited {output.returncode}: {output.stderr.strip()[:200]}"]
        lines = [line.split(",") for line in output.stdout.splitlines()]
        if command == "table2":
            return check_table2(pot, alphas, lines)
        if command == "limit":
            return check_limit(pot, alphas, lines)
        return check_wavefunction(pot, alphas[0], lines)

    workload = Workload("cli", rounds, run, check, ref.published_problems, in_process=False)
    return workload  # run() reads its child_trace


MAKERS = {"certify": _certify, "spectrum": _spectrum, "wavefunction": _wavefunction, "cli": _cli}


def make(name: str, seed: int) -> Workload:
    """The workload `name` with its inputs and references drawn from `seed`."""
    return MAKERS[name](seed)
