"""The benchmark's workloads and the layer map each one is read with.

Every workload times what ``repro-access sweep`` does: ``run_sweep`` over
a scenario-family grid into a fresh result store, then ``render_sweep``
on the result, on the default scalar path.  A sweep is a batch job, so
throughput is reported at a fixed grid size, as grid cells per second.
Why each workload was chosen is the ``why`` of its entry in
``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END_UNITS: Dict[str, str] = {
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

FLOW_PHASES = ("admit", "ensure_rates", "serve_single", "serve", "stretch_completion_bound")

#: The per-layer metrics every traced run reports, with their units.
PER_LAYER_UNITS: Dict[str, str] = {
    "traces.generate_s": "s",
    "topology.build_s": "s",
    "catalog.build_calls": "count",
    "engine.expand_s": "s",
    "engine.run_metrics_s": "s",
    "engine.kernel_runs_per_cell": "ratio",
    "simulation.self_s": "s",
    "simulation.steps": "count",
    "simulation.flows_served": "count",
    "simulation.sim_hours_per_s": "h/s",
    **{
        f"flows.{phase}_{suffix}": unit
        for phase in FLOW_PHASES
        for suffix, unit in (("s", "s"), ("calls", "count"))
    },
    "flows.rate_cache_hit_ratio": "ratio",
    "bh2.decide_s": "s",
    "bh2.decisions": "count",
    "bh2.rounds": "count",
    "solver.solve_s": "s",
    "solver.calls": "count",
    "store.put_s": "s",
    "store.puts": "count",
    "store.append_timing_s": "s",
    "store.get_s": "s",
    "store.gets": "count",
    "store.known_digests_s": "s",
    "supervisor.self_s": "s",
    "supervisor.worker_busy_frac": "ratio",
    "supervisor.cell_p50_s": "s",
    "supervisor.cell_p90_s": "s",
    "supervisor.retries": "count",
    "supervisor.respawns": "count",
    "report.render_s": "s",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One grid the benchmark times."""

    name: str
    families: Tuple[str, ...]
    runs_per_scheme: int
    workers: int
    #: Scenario seeds per family spec.  Above 1 the family gains a seed
    #: grid axis, so one run averages over that many traces.
    seeds_per_spec: int = 1
    #: Serve the grid from a store populated during set-up (the resume
    #: path) instead of computing it.
    warm_store: bool = False
    #: Per-layer metric -> the end-to-end metrics it should move on this
    #: workload.  A layer left out is expected to stay flat here.
    moves: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: The workload whose grid (and reference hashes) this one shares.
    same_grid_as: str = ""

    @property
    def pooled(self) -> bool:
        """Whether a timed pass runs cells on a worker pool."""
        return self.workers > 1 and not self.warm_store

    @property
    def grid(self) -> str:
        """Name of the grid whose reference hashes this workload checks."""
        return self.same_grid_as or self.name


_THROUGHPUT = ("cells_per_s",)

PAPER_DAY = Workload(
    # Kernel-heavy: builds (~2 s per run) and the five Fig. 6 kernels.
    # No repetitions and no pool, so collapse and the supervisor idle;
    # engine.kernel_runs_per_cell stays 1.0 here.  Builds moved ahead of
    # the timed sweep would move setup_s instead of cells_per_s.
    name="paper-day",
    families=("paper-default",),
    runs_per_scheme=1,
    workers=1,
    moves={
        **{
            name: _THROUGHPUT
            for name in (
                "traces.generate_s", "topology.build_s", "catalog.build_calls",
                "engine.run_metrics_s", "simulation.steps",
                "simulation.sim_hours_per_s", "flows.rate_cache_hit_ratio",
                "bh2.decide_s", "bh2.decisions", "bh2.rounds",
                "solver.solve_s", "solver.calls", "gc.pause_s",
                *(f"flows.{phase}_s" for phase in FLOW_PHASES),
            )
        },
        "simulation.self_s": ("cells_per_s", "peak_rss_mb"),
        "simulation.flows_served": ("cells_per_s", "peak_rss_mb"),
    },
)

FLEET_REPS = Workload(
    # 1920 short cells: per-cell kernel set-up, the watt solver, store
    # writes and pool IPC; 64% are non-BH2 repetitions, where an
    # engine-level repetition collapse would act.  Most four-hour
    # night-time traces of 12 clients carry no flows at all, so one trace
    # per spec made cells_per_s swing by a third from seed to seed; 16
    # traces per spec (8 repetitions each) average that out.
    name="fleet-reps",
    families=("smoke-watt", "correlated-outage"),
    runs_per_scheme=8,
    seeds_per_spec=16,
    workers=2,
    moves={
        name: _THROUGHPUT
        for name in (
            "engine.kernel_runs_per_cell", "solver.solve_s", "solver.calls",
            "store.put_s", "store.puts", "store.append_timing_s",
            "supervisor.self_s", "supervisor.worker_busy_frac",
            "supervisor.cell_p50_s", "supervisor.cell_p90_s",
            "supervisor.retries", "supervisor.respawns",
        )
    },
)

# The read twin of fleet-reps: its grid from a warm store, no kernel runs.
RESUME = replace(
    FLEET_REPS,
    name="resume",
    warm_store=True,
    same_grid_as=FLEET_REPS.name,
    moves={
        name: _THROUGHPUT
        for name in (
            "engine.expand_s", "store.get_s", "store.gets",
            "store.known_digests_s", "report.render_s",
        )
    },
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (PAPER_DAY, FLEET_REPS, RESUME)
}

#: Default and held-out workload seeds with committed reference hashes.
#: Seed ``n`` gives a family with catalog seed ``c`` the scenario seeds
#: ``c + n*k + j`` for ``j < k = seeds_per_spec``, so seed 0 includes the
#: catalog scenarios themselves, the ones the regress baselines were cut
#: from.
REFERENCE_SEEDS = (0, 1)
