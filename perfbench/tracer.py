"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions listed in TARGETS and rebinds
each name in every `ptnu` module namespace that holds it, so calls made
inside the package are seen too.  A wrapper keeps a stack of open calls:
a call's self time is its duration minus the time of the wrapped calls
it made.  A listed function that the package no longer has is reported
as absent.  With `alloc=True` only ALLOC_TARGETS are wrapped, and each
records its tracemalloc peak above the memory in use when it started.
"""
from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

TARGETS = {
    "cli": ("main",),
    "poschl_teller": ("energy_closed_form", "energy_via_nu", "normalize"),
    "nu": ("solve_energy", "quantization_residual", "derive_constants"),
    "special_functions": ("integrate", "gauss_rule", "jacobi"),
    "oracle": ("discretize", "lowest_eigenvalues", "richardson", "ode_residual"),
}
# The unit-norm radial function handed back by normalized_wavefunction.
CALLABLE = "poschl_teller.normalized_wavefunction.callable"
WRAPPED = [f"{module}.{name}" for module, names in TARGETS.items() for name in names]
SPANS = WRAPPED + [CALLABLE]
ALLOC_TARGETS = ("oracle.lowest_eigenvalues", "special_functions.integrate")
MARKER = "PERFBENCH_TRACE "


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every name bound to `original` in a loaded ptnu module at
    `replacement`; returns what `restore` needs to undo it."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "ptnu" or module_name.startswith("ptnu."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.alloc_peak = dict.fromkeys(ALLOC_TARGETS, 0)
        self.grid_points = 0
        self.absent: set[str] = set()
        self._open: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        for span in (ALLOC_TARGETS if self.alloc else WRAPPED):
            module_name, name = span.rsplit(".", 1)
            try:
                module = importlib.import_module(f"ptnu.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, name, None)
            if original is None:
                self.absent.add(span)
                continue
            wrapper = self._measure_alloc(span, original) if self.alloc else self._span(span, original)
            self._restore += rebind(original, wrapper)
        if not self.alloc:
            pt = sys.modules.get("ptnu.poschl_teller")
            original = getattr(pt, "normalized_wavefunction", None)
            if original is None:
                self.absent.add(CALLABLE)
            else:
                self._restore += rebind(original, self._wrap_returned_callable(original))

    def uninstall(self) -> None:
        restore(self._restore)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, span: str, fn):
        counts_grid = span == "oracle.discretize"

        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.calls[span] += 1
                self.self_s[span] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
                if counts_grid:
                    self.grid_points += args[1] if len(args) > 1 else kwargs["n_points"]

        return wrapper

    def _wrap_returned_callable(self, fn):
        def wrapper(*args, **kwargs):
            state, radial = fn(*args, **kwargs)
            return state, self._span(CALLABLE, radial)

        return wrapper

    def _measure_alloc(self, span: str, fn):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.alloc_peak[span] = max(self.alloc_peak[span], peak)

        return wrapper

    # -- results --------------------------------------------------------------

    def raw(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "alloc_peak": self.alloc_peak,
                "grid_points": self.grid_points, "absent": sorted(self.absent)}

    def merge(self, raw: dict) -> None:
        """Add the counts of a tracer that ran in another process."""
        for span, count in raw["calls"].items():
            self.calls[span] += count
            self.self_s[span] += raw["self_s"][span]
        for span, peak in raw["alloc_peak"].items():
            self.alloc_peak[span] = max(self.alloc_peak[span], peak)
        self.grid_points += raw["grid_points"]
        self.absent.update(raw["absent"])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Tracer, alloc: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation calls and self time of every span, the work counters
    and the allocation peaks, as {name: (value, unit)}."""
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = (ratio(spans.calls[span], ops), "count")
        metrics[f"{span}.self_ms"] = (ratio(1e3 * spans.self_s[span], ops), "ms")
    metrics["nu.residuals_per_root"] = (
        ratio(spans.calls["nu.quantization_residual"], spans.calls["nu.solve_energy"]), "count")
    metrics["special_functions.panels_per_integral"] = (
        ratio(spans.calls["special_functions.gauss_rule"], spans.calls["special_functions.integrate"]),
        "count")
    metrics["oracle.grid_points_per_op"] = (ratio(spans.grid_points, ops), "count")
    for span in ALLOC_TARGETS:
        metrics[f"{span}.alloc_peak_kib"] = (alloc.alloc_peak[span] / 1024.0, "KiB")
    return metrics
