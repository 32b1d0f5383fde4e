"""Per-layer spans for the traced benchmark run.

The traced run wraps the public entry point of every layer a sweep
crosses, from this file, by replacing the attribute the caller looks up
(a module global or a class method) for the duration of one pass.  Each
wrapper records calls, total time and *self* time: the span's duration
minus the spans nested in it and minus the garbage-collector pauses that
landed in it.  GC is a layer of its own, fed by ``gc.callbacks``, so a
collection the kernel deferred (it disables GC while it runs) is not
blamed on whichever span happens to allocate next.

Nothing here changes what a wrapped call computes; the benchmark checks
that the traced pass stores the same record bytes as the untraced one.
"""

from __future__ import annotations

import functools
import gc
import importlib
from time import perf_counter
from typing import Dict, List, Tuple

#: (module, attribute path, layer span name).  The attribute is patched
#: where callers look it up: ``engine.run_scheme`` is the name the sweep
#: engine imported, not ``repro.simulation.runner.run_scheme``.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.traces.synthetic", "SyntheticTraceGenerator.generate", "traces.generate"),
    ("repro.sweep.catalog", "build_default_scenario", "topology.build"),
    ("repro.sweep.catalog", "ScenarioSpec.build", "catalog.build"),
    ("repro.sweep.engine", "expand_tasks", "engine.expand"),
    ("repro.sweep.engine", "run_metrics", "engine.run_metrics"),
    ("repro.sweep.engine", "run_scheme", "simulation"),
    ("repro.sweep.engine", "run_serial_supervised", "supervisor"),
    # The kernel admits arrivals through its own inlined copy of
    # FlowScheduler.admit, so admission is timed at that call.
    ("repro.simulation.simulator", "AccessNetworkSimulator._admit_arrivals", "flows.admit"),
    ("repro.flows.scheduler", "FlowScheduler.ensure_rates", "flows.ensure_rates"),
    ("repro.flows.scheduler", "FlowScheduler.serve_single", "flows.serve_single"),
    ("repro.flows.scheduler", "FlowScheduler.serve", "flows.serve"),
    (
        "repro.flows.scheduler",
        "FlowScheduler.stretch_completion_bound",
        "flows.stretch_completion_bound",
    ),
    ("repro.core.bh2", "BH2Terminal.decide_fast", "bh2.decide"),
    ("repro.core.optimal", "GreedyAggregationSolver.solve", "solver.solve"),
    ("repro.wattopt.solver", "WattGreedyAggregationSolver.solve", "solver.solve"),
    ("repro.sweep.store", "ResultStore.put", "store.put"),
    ("repro.sweep.store", "ResultStore.append_timing", "store.append_timing"),
    ("repro.sweep.store", "ResultStore.get", "store.get"),
    ("repro.sweep.store", "ResultStore.known_digests", "store.known_digests"),
    ("repro.sweep.report", "render_sweep", "report.render"),
)


def owner_of(module_name: str, path: str) -> Tuple[object, str]:
    """The object holding a :data:`SPANS` entry point, and its attribute."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class LayerTracer:
    """Span accounting for one traced pass; use as a context manager.

    Entering patches every entry point in :data:`SPANS` and registers the
    GC callback; leaving restores the original attributes exactly.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        # Open spans, innermost last: [name, child_s, gc_s].
        self._stack: List[list] = []
        self._gc_started = 0.0
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _wrap(self, original, name: str):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(original)
        def span(*args, **kwargs):
            # A subclass solver calling super().solve() is one solve.
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] = calls.get(name, 0) + 1
                total_s[name] = total_s.get(name, 0.0) + elapsed
                self_s[name] = self_s.get(name, 0.0) + elapsed - frame[1] - frame[2]
                if stack:
                    stack[-1][1] += elapsed

        return span

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        pause = perf_counter() - self._gc_started
        self.gc_pause_s += pause
        self.gc_collections += 1
        if self._stack:
            self._stack[-1][2] += pause

    def __enter__(self) -> "LayerTracer":
        for module_name, path, name in SPANS:
            owner, attr = owner_of(module_name, path)
            # Read the raw attribute (not through the descriptor) so it can
            # be put back byte for byte; only functions are wrapped.
            raw = vars(owner)[attr]
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results ----------------------------------------------------------
    def self_time(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def total_time(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)
