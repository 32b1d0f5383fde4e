#!/usr/bin/env python3
"""Sweep benchmark of the access-network reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-day --seed 0 --seconds 10 --trace 0

A run times what ``repro-access sweep`` does, ``run_sweep(...)`` followed
by ``render_sweep(result)``, on one workload of :mod:`workloads`, in the
reference seconds of :mod:`calibrate`.  The seed picks every family's
scenario seeds (see ``REFERENCE_SEEDS`` in :mod:`workloads`).  Passes
repeat until ``--seconds`` have been measured (at least one pass); every
pass writes a fresh result store in a temporary directory under
``perfbench/.cache``, so a run leaves nothing else behind.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced serial passes with passes that wrap every layer's entry point
(see :mod:`layers`) and prints the per-layer metrics instead.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
problems found by the checks of :mod:`check` go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"
#: Bytecode goes here, not next to the sources.  It is always written, so
#: set-up is timed against a warm bytecode cache whatever the environment
#: says; the first import of a checkout warms it before any probe runs.
PYCACHE_DIR = CACHE_DIR / "pycache"
sys.pycache_prefix = str(PYCACHE_DIR)
sys.dont_write_bytecode = False

from calibrate import one_cpu, reference_seconds  # noqa: E402
from check import Checker, load_reference, percentile  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END_UNITS,
    FLOW_PHASES,
    PER_LAYER_UNITS,
    WORKLOADS,
    Workload,
)

#: Fresh interpreters timed from process start to the first timed pass.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: import and resolve as a run does, print "ready", exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def resolve_families(workload: Workload, seed: int) -> list:
    """Import the program and resolve the workload's families at ``seed``."""
    import repro.resilience  # noqa: F401  (the timed pass needs it)
    import repro.sweep.report  # noqa: F401
    from repro.sweep import family

    per_spec = workload.seeds_per_spec
    families = []
    for name in workload.families:
        catalog = family(name)
        first = catalog.base.seed + seed * per_spec
        if per_spec == 1:
            families.append(replace(catalog, base=replace(catalog.base, seed=first)))
        else:
            seeds = tuple(range(first, first + per_spec))
            families.append(replace(catalog, grid=catalog.grid + (("seed", seeds),)))
    return families


def timed_pass(families, workload: Workload, store_dir: Path, workers: int):
    """One ``repro-access sweep``: the sweep and its report; returns the
    result and the wall time."""
    from repro.resilience import RetryPolicy
    from repro.sweep import ResultStore, SweepConfig, report, run_sweep

    start = perf_counter()
    result = run_sweep(
        families=families,
        config=SweepConfig(runs_per_scheme=workload.runs_per_scheme),
        store=ResultStore(store_dir),
        workers=workers,
        retry=RetryPolicy(keep_going=True),
    )
    # Looked up on the module so the traced pass sees its span.
    report.render_sweep(result)
    return result, perf_counter() - start


def probe_setup(workload: Workload, seed: int) -> float:
    """Wall time from a fresh interpreter's start to the first timed pass."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE_DIR))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload.name, "--seed", str(seed), "--setup-probe",
    ]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class Pass(NamedTuple):
    """One timed pass: the sweep result, its reference seconds (see
    :mod:`calibrate`) and the machine's slowdown while it ran."""

    result: object
    seconds: float
    slowdown: float


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.checker = Checker(load_reference(workload.grid, seed))
        self.families = resolve_families(workload, seed)
        self.warm_dir = tmp / "warm" if workload.warm_store else None
        self._passes = 0

    def one_pass(self, workers: int, tracer=None, populate: bool = False) -> Pass:
        """A timed pass into a fresh store (or the warm one), then its checks."""
        from repro.sweep import ResultStore

        warm = self.warm_dir is not None
        store_dir = self.warm_dir if warm else self.tmp / f"pass-{self._passes}"
        self._passes += 1

        def timed():
            with tracer if tracer is not None else contextlib.nullcontext():
                return timed_pass(self.families, self.workload, store_dir, workers)

        timing = Pass(*reference_seconds(timed))
        # Passes that wrote the store check its bytes; resume passes only
        # read it, and their records are checked against what was written.
        wrote = populate or not warm
        self.checker.check_sweep(timing.result, ResultStore(store_dir) if wrote else None)
        if not warm:
            shutil.rmtree(store_dir)
        return timing

    def populate(self) -> float:
        """Fill the warm store, if the workload reads one; its reference seconds."""
        if self.warm_dir is None:
            return 0.0
        return self.one_pass(self.workload.workers, populate=True).seconds

    def measure(self, workers: int) -> Tuple[Pass, List[float]]:
        """Passes until ``seconds`` have been measured (at least one);
        returns the first pass and every pass's reference seconds."""
        deadline = perf_counter() + self.seconds
        first = self.one_pass(workers)
        seconds = [first.seconds]
        while perf_counter() < deadline:
            seconds.append(self.one_pass(workers).seconds)
        return first, seconds


def end_to_end(run: Run, population_s: float) -> dict:
    # Probes run on the CPU they are calibrated against.
    with one_cpu():
        probes = [
            reference_seconds(lambda: (None, probe_setup(run.workload, run.seed)))[1]
            for _ in range(SETUP_PROBES)
        ]
    with contextlib.nullcontext() if run.workload.pooled else one_cpu():
        first, seconds = run.measure(run.workload.workers)
    return {
        "cells_per_s": len(first.result.tasks) / statistics.median(seconds),
        "setup_s": statistics.median(probes) + population_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run) -> dict:
    workload = run.workload
    # Pool-side numbers come from an untraced pass at the workload's
    # worker count; without a pool, the first untraced serial pass serves.
    pool = run.measure(workload.workers)[0] if workload.pooled else None
    pool_workers = workload.workers if workload.pooled else 1
    # The traced pass runs serial, so its overhead is taken against
    # untraced serial passes, alternated with it so that drift in the
    # machine's speed lands on both sides.
    tracer = LayerTracer()
    kernel = {}
    executed = flows_served = sim_hours = 0.0
    serial_seconds, traced = [], []
    deadline = perf_counter() + run.seconds
    while not traced or perf_counter() < deadline:
        with one_cpu():
            serial = run.one_pass(1)
            traced.append(run.one_pass(1, tracer))
        pool = pool or serial
        serial_seconds.append(serial.seconds)
        result = traced[-1].result
        for name, value in result.obs.get("counters", {}).items():
            kernel[name] = kernel.get(name, 0.0) + value
        executed += result.executed
        for digest in result.task_stats:
            record = result.records[digest]
            flows_served += record.metrics["served_flows"]
            sim_hours += record.duration_s / 3600.0
    passes = len(traced)
    # Span times are wall times: bring them to reference seconds per pass.
    span_scale = sum(timing.slowdown for timing in traced)

    def self_s(name):
        return tracer.self_time(name) / span_scale

    def calls(name):
        return tracer.count(name) / passes

    def ratio(part, whole):
        return part / whole if whole else 0.0

    cell_seconds = [
        stats["wall_s"] / pool.slowdown for stats in pool.result.task_stats.values()
    ]
    metrics = {
        "traces.generate_s": self_s("traces.generate"),
        "topology.build_s": self_s("topology.build"),
        "catalog.build_calls": calls("catalog.build"),
        "engine.expand_s": self_s("engine.expand"),
        "engine.run_metrics_s": self_s("engine.run_metrics"),
        "engine.kernel_runs_per_cell": ratio(tracer.count("simulation"), executed),
        "simulation.self_s": self_s("simulation"),
        "simulation.steps": kernel.get("kernel.steps", 0.0) / passes,
        "simulation.flows_served": flows_served / passes,
        "simulation.sim_hours_per_s": ratio(
            sim_hours, tracer.total_time("simulation") / span_scale * passes
        ),
    }
    for phase in FLOW_PHASES:
        metrics[f"flows.{phase}_s"] = self_s(f"flows.{phase}")
        metrics[f"flows.{phase}_calls"] = calls(f"flows.{phase}")
    hits = kernel.get("kernel.rate_cache_hits", 0.0)
    metrics.update({
        "flows.rate_cache_hit_ratio": ratio(hits, hits + kernel.get("kernel.rate_recomputes", 0.0)),
        "bh2.decide_s": self_s("bh2.decide"),
        "bh2.decisions": calls("bh2.decide"),
        "bh2.rounds": kernel.get("kernel.bh2_rounds", 0.0) / passes,
        "solver.solve_s": self_s("solver.solve"),
        "solver.calls": calls("solver.solve"),
        "store.put_s": self_s("store.put"),
        "store.puts": calls("store.put"),
        "store.append_timing_s": self_s("store.append_timing"),
        "store.get_s": self_s("store.get"),
        "store.gets": calls("store.get"),
        "store.known_digests_s": self_s("store.known_digests"),
        "supervisor.self_s": self_s("supervisor"),
        "supervisor.worker_busy_frac": ratio(sum(cell_seconds), pool_workers * pool.seconds),
        "supervisor.cell_p50_s": percentile(cell_seconds, 0.5),
        "supervisor.cell_p90_s": percentile(cell_seconds, 0.9),
        "supervisor.retries": float(pool.result.retries),
        "supervisor.respawns": float(pool.result.respawns),
        "report.render_s": self_s("report.render"),
        "gc.pause_s": tracer.gc_pause_s / span_scale,
        "gc.collections": tracer.gc_collections / passes,
        "trace.overhead_frac": (
            statistics.median(timing.seconds for timing in traced)
            / statistics.median(serial_seconds) - 1.0
        ),
    })
    return metrics


def use_program() -> bool:
    """Put the checkout's ``src/`` on the path; False if it is not there."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_program():
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        resolve_families(workload, args.seed)
        print("ready", flush=True)
        return 0

    CACHE_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR))
    try:
        run = Run(workload, args.seed, args.seconds, tmp)
        population_s = run.populate()
        if args.trace:
            metrics = per_layer(run)
        else:
            metrics = end_to_end(run, population_s)
        run.checker.check_anchor(ROOT / "baselines")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    checker = run.checker
    if args.trace:
        metrics["failed_frac"] = checker.failed_frac
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for problem in checker.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
