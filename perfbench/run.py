"""Benchmark of ptnu: one workload per run, a single caller in a closed
loop (the next operation starts when the previous one returns).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify|spectrum|wavefunction|cli \
        --seed N --seconds S --trace 0|1

The program is ptnu from the checkout's `src/`; it receives only the
inputs the workload draws from the seed.  Every output is checked
against references computed apart from the program (see reference.py).

With --trace 0 the run reports the end-to-end metrics: setup_s (median
over fresh interpreters of `import ptnu.cli` plus one warm-up
operation), ops_per_s (completed operations over the time they took)
and latency_p50_ms (median time of one operation).  Every time is a
wall time rescaled to a reference host speed by probes taken around it
(see host_probe and start_probe).  With --trace 1 the run reports the
per-layer metrics of tracer.py and the tracing overhead.  The last line
of stdout is the result object; the line before it carries details:
failures by type, sample count, the unscaled wall-time median, the
probe median, and the p90 latency where a run holds 100 operations.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("certify", "spectrum", "wavefunction", "cli")
SETUP_TRIALS = 5
ALLOC_ITEMS = 3
TRACE_PAIRS = 2
P90_MIN_SAMPLES = 100
BATCH_SECONDS = 0.1
# Reference probe times: they fix the scale of rescaled times, about
# the probes' times on a quiet host of the machine in README.md.
HOST_PROBE_REFERENCE_S = 0.005
START_PROBE_REFERENCE_S = 0.05


@dataclass
class Measurement:
    """Operations of one measured stretch, in batches of about
    BATCH_SECONDS of work; each batch holds the probe times taken just
    before and just after it and the wall times of its successful
    operations.  `reference` is the probe's reference time."""

    reference: float
    batches: list[tuple[float, float, list[float]]] = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Measurement") -> None:
        self.batches += other.batches
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.problems += other.problems

    def wall_times(self) -> list[float]:
        return [lat for _, _, batch in self.batches for lat in batch]

    def latencies(self) -> list[float]:
        """Wall times rescaled to the reference host speed: each is
        multiplied by `reference` over the mean of the two probes around
        its batch."""
        return [lat * 2.0 * self.reference / (before + after)
                for before, after, batch in self.batches for lat in batch]


def host_probe() -> float:
    """Wall time of a fixed loop of small numpy operations and Python
    arithmetic, the mix ptnu's hot paths are made of.

    The host is shared, and its speed swings by up to 2x in spells of
    seconds to minutes.  This probe's time follows those swings closely
    (rescaling by it cut the spread of 10 s medians of normalize,
    energy_via_nu and lowest_eigenvalues from 0.30 to 0.04), while no
    change to ptnu can move it."""
    start = time.perf_counter()
    x = np.arange(8.0)
    total = 0
    for i in range(4000):
        x = x * 1.0000001 + 0.5
        total += i % 7
    return time.perf_counter() - start


def start_probe() -> float:
    """Wall time of starting a bare interpreter, `python -c pass`.

    The host probe does not follow operations that run in child
    processes: over a cli run its time and theirs were found
    uncorrelated.  This probe's time does (correlation 0.67 with
    `ptnu table2`; rescaling by it held the medians of 15 s stretches
    within 4 %, against 16 % for raw wall time)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def probe_for(workload):
    """The probe that follows the workload's operations, and its
    reference time."""
    if workload.in_process:
        return host_probe, HOST_PROBE_REFERENCE_S
    return start_probe, START_PROBE_REFERENCE_S


def attempt(workload, item, result: Measurement) -> tuple[float, bool]:
    """Run and check one operation; returns its wall time and whether it
    succeeded.  Only the operation itself is timed.  A failed operation,
    one that raised or whose check raised workloads.Failed, is counted in
    `result` by exception type."""
    import workloads

    result.attempted += 1
    begin = time.perf_counter()
    try:
        output = workload.run(item)
    except Exception as exc:  # the run goes on; the failure is counted
        result.failures[type(exc).__name__] += 1
        return time.perf_counter() - begin, False
    latency = time.perf_counter() - begin
    try:
        result.problems += workload.check(item, output)
    except workloads.Failed as exc:
        result.failures[type(exc).__name__] += 1
        return latency, False
    return latency, True


def measure(workload, seconds: float) -> Measurement:
    """Repeat the workload's rounds until `seconds` have passed, stopping
    only between rounds, with a probe between batches."""
    probe, reference = probe_for(workload)
    result = Measurement(reference=reference)
    start = time.perf_counter()
    before, batch, batch_work = probe(), [], 0.0
    index = 0
    while True:
        for item in workload.rounds[index % len(workload.rounds)]:
            latency, ok = attempt(workload, item, result)
            batch_work += latency
            if ok:
                batch.append(latency)
            if batch_work >= BATCH_SECONDS:
                after = probe()
                result.batches.append((before, after, batch))
                before, batch, batch_work = after, [], 0.0
        index += 1
        if time.perf_counter() - start >= seconds:
            if batch_work:
                result.batches.append((before, probe(), batch))
            return result


def probe_setup(workload, seed: int) -> dict:
    """One set-up trial in a fresh interpreter.  For an in-process
    workload the import is rescaled by a host probe taken here before the
    child starts and one the child takes after the import, the warm-up by
    probes just around it; otherwise both by start probes around the
    whole trial."""
    probe, reference = probe_for(workload)
    before = probe()
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    trial = json.loads(done.stdout.splitlines()[-1])
    trial["wall_s"] = trial["import_s"] + trial["op_s"]
    if workload.in_process:
        import_scale = 2.0 * reference / (before + trial["import_probe_s"])
        op_scale = 2.0 * reference / sum(trial["op_probes_s"])
    else:
        import_scale = op_scale = 2.0 * reference / (before + probe())
    trial["import_s"] *= import_scale
    trial["setup_s"] = trial["import_s"] + trial["op_s"] * op_scale
    return trial


def end_to_end(run: Measurement, probes: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = run.latencies()
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
    }


def per_layer(workload, seconds: float, probes: list[dict]):
    """Untraced and traced stretches in turn, then a short tracemalloc
    pass.  Taking them in turn lets a slow spell of the host fall on
    both, so the difference of their mean latencies is the tracing
    overhead."""
    import tracer

    reference = probe_for(workload)[1]
    plain, traced = Measurement(reference), Measurement(reference)
    spans = tracer.Tracer()
    stretch = seconds / (2 * TRACE_PAIRS)
    for _ in range(TRACE_PAIRS):
        plain.add(measure(workload, stretch))
        traced.add(_traced(workload, spans, lambda: measure(workload, stretch)))

    def alloc_pass() -> Measurement:
        result = Measurement(reference)
        for item in workload.rounds[0][:ALLOC_ITEMS]:
            attempt(workload, item, result)
        return result

    alloc = tracer.Tracer(alloc=True)
    alloc_run = _traced(workload, alloc, alloc_pass)
    metrics = tracer.layer_metrics(spans, alloc, traced.attempted)
    mean_plain = statistics.mean(plain.latencies())
    mean_traced = statistics.mean(traced.latencies())
    metrics["trace.overhead_pct"] = (100.0 * (mean_traced / mean_plain - 1.0), "%")
    metrics["ptnu.import_ms"] = (1e3 * statistics.median(p["import_s"] for p in probes), "ms")
    plain.add(traced)
    plain.problems += alloc_run.problems
    return metrics, plain, sorted(spans.absent)


def _traced(workload, spans, body) -> Measurement:
    """Run body() with `spans` installed in this process, or in each
    child process of a workload whose program runs there."""
    if workload.in_process:
        spans.install()
        if spans.alloc:
            tracemalloc.start()
    else:
        workload.child_trace = "alloc" if spans.alloc else "spans"
    try:
        result = body()
    finally:
        spans.uninstall()
        tracemalloc.stop()
        workload.child_trace = None
    for raw in workload.child_stats:
        spans.merge(raw)
    workload.child_stats.clear()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the ptnu library and command.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptnu" / "__init__.py").is_file():
        print(f"perfbench: no ptnu sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ptnu.cli

    if SRC.resolve() not in Path(ptnu.__file__).resolve().parents:
        print(f"perfbench: ptnu imported from {ptnu.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.make(args.workload, args.seed)
    probes = [probe_setup(workload, args.seed) for _ in range(SETUP_TRIALS)]
    first = workload.rounds[0][0]
    problems = [p for probe in probes for p in probe["problems"]]
    problems += workload.check(first, workload.run(first))

    absent = []
    if args.trace:
        metrics, run, absent = per_layer(workload, args.seconds, probes)
    else:
        run = measure(workload, args.seconds)
        metrics = end_to_end(run, probes)
    problems += run.problems + workload.finish()
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    latencies = run.latencies()
    probe_times = [t for before, after, _ in run.batches for t in (before, after)]
    details = {"workload": args.workload, "seed": args.seed, "samples": len(latencies),
               "failures": dict(run.failures), "problems": len(problems), "absent": absent,
               "wall_p50_ms": 1e3 * statistics.median(run.wall_times()),
               "probe_p50_ms": 1e3 * statistics.median(probe_times),
               "setup_wall_s": [p["wall_s"] for p in probes]}
    if len(latencies) >= P90_MIN_SAMPLES:
        details["latency_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems and bool(latencies),
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
