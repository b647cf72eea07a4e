"""Quick self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs a few operations of every workload with all checks on, shows that
a corrupted energy or norm makes the checks fail, and that the tracer
counts calls and restores the functions it wrapped.  Exits 0 when every
case holds.  Takes about half a minute.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptnu import poschl_teller as pt  # noqa: E402

import reference as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(("ok    " if condition else "FAIL  ") + label)
    if not condition:
        FAILURES.append(label)


def first_items(workload, count: int):
    """The first `count` operations of every round."""
    return [item for round_ in workload.rounds for item in round_[:count]]


def outcome(workload, item) -> tuple[list[str], str | None]:
    """(check problems, name of the failure or None) of one operation."""
    try:
        output = workload.run(item)
        return workload.check(item, output), None
    except Exception as exc:  # a failure is what some cases expect
        return [], type(exc).__name__


class patched:
    """Replace a ptnu function everywhere it is bound, for a `with` block."""

    def __init__(self, original, replacement):
        self.original, self.replacement = original, replacement

    def __enter__(self):
        self.undo = tracer.rebind(self.original, self.replacement)

    def __exit__(self, *exc):
        tracer.restore(self.undo)


def scaled_energy(factor: float):
    original = pt.energy_closed_form
    return patched(original, lambda p, n: factor * original(p, n))


def scaled_norm(factor: float):
    original = pt.normalize

    def wrong(p, n, *args, **kwargs):
        state = original(p, n, *args, **kwargs)
        return replace(state, norm=factor * state.norm)

    return patched(original, wrong)


def main() -> int:
    expect(not ref.published_problems(), "the published Table 2 agrees with the mpmath reference")

    certify = workloads.make("certify", SEED)
    spectrum = workloads.make("spectrum", SEED)
    wavefunction = workloads.make("wavefunction", SEED)
    cli = workloads.make("cli", SEED)

    # clean runs: a few operations of each workload pass every check
    for workload, count in ((certify, 1), (spectrum, 40), (cli, 3)):
        results = [outcome(workload, item) for item in first_items(workload, count)]
        expect(all(not p and f is None for p, f in results),
               f"{workload.name}: {len(results)} operations pass their checks")
    results = {item: outcome(wavefunction, item) for item in wavefunction.rounds[0]}
    expect(not any(p for p, _ in results.values()) and not wavefunction.finish(),
           "wavefunction: the states that do not fail pass their checks")
    failures = sorted({(a, f) for (a, _), (_, f) in results.items() if f})
    expect({f for _, f in failures} <= {"DomainError", "QuadratureFailure", "WrongNorm"}
           and (0.02, "DomainError") in failures and (0.002, "QuadratureFailure") in failures,
           f"wavefunction: failures are the known ones {failures}")

    # corrupted energies are caught
    with scaled_energy(1.0 + 1e-6):
        expect(any(outcome(spectrum, item)[0] for item in spectrum.rounds[0][:5]),
               "spectrum: a closed form off by 1e-6 fails the check")
        expect(bool(outcome(certify, certify.rounds[0][0])[0]),
               "certify: a closed form off by 1e-6 fails the check")
        expect(bool(outcome(wavefunction, (1.2, 1))[0]),
               "wavefunction: a state energy off by 1e-6 fails the check")
    original_nu = pt.energy_via_nu
    with patched(original_nu, lambda p, n, *a: (1.0 + 1e-8) * original_nu(p, n, *a)):
        expect(bool(outcome(spectrum, spectrum.rounds[0][0])[0]),
               "spectrum: energy_via_nu off by 1e-8 fails the 1e-9 check")

    # a corrupted norm makes the state count as failed
    with scaled_norm(1.0 + 1e-5):
        expect(outcome(wavefunction, (1.2, 1))[1] == "WrongNorm",
               "wavefunction: a norm off by 1e-5 counts as a failed operation")

    # corrupted command output is caught
    table2, _, wave = cli.rounds[0]
    done = cli.run(table2)
    lines = done.stdout.splitlines()
    cells = lines[3].split(",")
    cells[2] = f"{float(cells[2]) + 2e-8:.8f}"
    done.stdout = "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"
    expect(bool(cli.check(table2, done)), "cli: a table2 energy off by two printed digits fails")
    done = cli.run(wave)
    rows = [row.split(",") for row in done.stdout.splitlines()]
    rows[1:] = [[r, f"{1.001 * float(q):.8f}", f"{1.001 * float(v):.8f}"] for r, q, v in rows[1:]]
    done.stdout = "\n".join(",".join(row) for row in rows) + "\n"
    expect(bool(cli.check(wave, done)), "cli: wavefunction samples scaled by 1.001 fail the norm check")

    # the tracer counts calls and puts the functions back
    original = pt.energy_via_nu
    spans = tracer.Tracer()
    spans.install()
    try:
        outcome(spectrum, spectrum.rounds[0][0])
    finally:
        spans.uninstall()
    metrics = tracer.layer_metrics(spans, tracer.Tracer(alloc=True), 1)
    expect(metrics["poschl_teller.energy_via_nu.calls"][0] == 1
           and metrics["nu.residuals_per_root"][0] > 1 and not spans.absent,
           "tracer: one spectrum operation is one energy_via_nu call with several residuals")
    expect(pt.energy_via_nu is original, "tracer: uninstall restores the wrapped functions")

    print(f"{len(FAILURES)} case(s) failed" if FAILURES else "all cases hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
