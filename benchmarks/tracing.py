"""Span tracer that wraps strongdrive's layer entry points from the outside.

Library modules import each other's functions by value (``from ._magnus
import magnus_segment``), so a function has to be replaced in every
namespace that holds it, not only in the module that defines it; a patch
on the defining module alone would miss those calls without any error.
``Tracer.install`` therefore patches every ``strongdrive`` module attribute
that is the same object as the entry point.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, parent
being the index of the enclosing span or -1, and are written out by the
worker when the run ends.  Span names are ``<layer>.<function>``, the layer
being the module name.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: Entry points wrapped in a span, per strongdrive module.  Functions called
#: once per integrator step (su2_exp, matmul2) are left out: a span there
#: would cost more than the work it measures.
LAYERS = {
    "cli": ("main",),
    "floquet": (
        "quasienergy_sweep",
        "build_floquet_matrix",
        "analytic_quasienergies",
        "monodromy_quasienergies",
        "monodromy_quasienergies_batch",
    ),
    "_magnus": ("magnus_segment",),
    "evolve": (
        "continuous_drive_states",
        "sweep_pulse_duration",
        "final_states_for_durations",
        "propagate",
        "propagate_train",
        "evolve_interval",
        "prepare_state",
    ),
    "spectral": ("dft", "find_peaks", "classify_peaks", "fast_component_amplitudes"),
    "tomography": ("simulate_shots", "mle_reconstruct", "bootstrap_errors"),
}


def _step_updates(u, x_of_t, hz, t0, t1, n_steps):
    """Integrator step updates done by one magnus_segment call: n_steps x batch."""
    if t1 <= t0 or n_steps < 1:
        return 0
    return n_steps * math.prod(np.shape(u)[:-2])


def _sweep_points(delta, omega, amplitudes, *args, **kwargs):
    return np.size(amplitudes)


#: Counters derived from a call's arguments, keyed by span name.
WEIGHTS = {
    "magnus.magnus_segment": ("magnus.step_updates", _step_updates),
    "floquet.quasienergy_sweep": ("floquet.points", _sweep_points),
}


def _namespaces():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "strongdrive" or name.startswith("strongdrive."))
    ]


class Tracer:
    """Records spans and counters for one traced workload iteration."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        # span() inlined: this wrapper runs ~50k times per drive-scan
        # iteration, and a context manager would double its cost
        spans, stack, counts = self.spans, self._stack, self.counts
        key, weigh = WEIGHTS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if weigh is not None:
                counts[key] += weigh(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Patch every namespace that resolves a layer entry point."""
        namespaces = _namespaces()
        for module_name, functions in LAYERS.items():
            home = importlib.import_module(f"strongdrive.{module_name}")
            layer = module_name.lstrip("_")
            for fn_name in functions:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, traced)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def patched(self) -> set[str]:
        """``module.attr`` of every namespace entry currently patched."""
        return {f"{ns.__name__}.{attr}" for ns, attr, _ in self._patches}


def self_times(spans) -> Counter:
    """Per span name: duration minus the time covered by direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, _), child in zip(spans, covered):
        out[name] += (end - start) - child
    return out


def inclusive_times(spans) -> Counter:
    """Per span name: total duration, counting nested same-name spans once."""
    out: Counter = Counter()
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return out


def by_layer(per_name: Counter) -> Counter:
    out: Counter = Counter()
    for name, value in per_name.items():
        out[name.split(".", 1)[0]] += value
    return out


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Cost of one traced call over a direct one, for a plain wrapper and for
    one that also counts step updates: median of ``repeats`` timings of
    ``calls`` no-op calls each."""
    tracer = Tracer()

    def noop(*args):
        return None

    plain = tracer.wrap("bench.noop", noop)
    weighted = tracer.wrap("magnus.magnus_segment", noop)
    args = (np.zeros((2, 2, 2)), None, 0.0, 0.0, 1.0, 1)

    def per_call(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            times.append(time.perf_counter() - start)
            tracer.spans.clear()
        return statistics.median(times) / calls

    direct = per_call(noop)
    return per_call(plain) - direct, per_call(weighted) - direct


def overhead_s(spans) -> float:
    """Time the wrappers added to an iteration: span count times the
    per-call cost measured now, in the same process."""
    plain, weighted = wrapper_cost_s()
    n_weighted = sum(name in WEIGHTS for name, *_ in spans)
    return (len(spans) - n_weighted) * plain + n_weighted * weighted


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metrics of one traced iteration (names as in BENCHMARK.json).

    ``extra`` supplies the values measured outside the spans:
    ``tomography.mle_failures`` and ``cli.bytes_written``.  The tracing
    overhead is estimated from the span count (``overhead_s``).
    """
    spans = tracer.spans
    incl = inclusive_times(spans)
    selfs = by_layer(self_times(spans))
    calls = Counter(name for name, *_ in spans)
    counts = tracer.counts

    def rate(num, den):
        return num / den if den > 0 else 0.0

    sweep_s = incl["floquet.quasienergy_sweep"]
    magnus_s = incl["magnus.magnus_segment"]
    mle_calls = calls["tomography.mle_reconstruct"]
    return {
        "floquet.sweep_s": sweep_s,
        "floquet.points_per_s": rate(counts["floquet.points"], sweep_s),
        "floquet.matrix_builds": calls["floquet.build_floquet_matrix"],
        "floquet.monodromy_s": incl["floquet.monodromy_quasienergies_batch"]
        + incl["floquet.monodromy_quasienergies"],
        "magnus.segment_calls": calls["magnus.magnus_segment"],
        "magnus.step_updates": counts["magnus.step_updates"],
        "magnus.updates_per_s": rate(counts["magnus.step_updates"], magnus_s),
        "evolve.drive_states_s": incl["evolve.continuous_drive_states"],
        "evolve.duration_sweep_s": incl["evolve.final_states_for_durations"],
        "evolve.train_s": incl["evolve.propagate_train"],
        "evolve.propagate_s": incl["evolve.propagate"],
        "evolve.self_s": selfs["evolve"],
        "tomography.calibration_s": incl["tomography.prerotation_pulses"],
        "tomography.mle_calls": mle_calls,
        "tomography.mle_ms_per_call": 1e3 * rate(incl["tomography.mle_reconstruct"], mle_calls),
        "tomography.mle_failures": extra["tomography.mle_failures"],
        "tomography.bootstrap_s": incl["tomography.bootstrap_errors"],
        "spectral.s": sum(v for k, v in incl.items() if k.startswith("spectral.")),
        "cli.self_s": selfs["cli"],
        "cli.bytes_written": extra["cli.bytes_written"],
        "trace.overhead_s": overhead_s(spans),
    }
