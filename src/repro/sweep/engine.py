"""The sweep engine: shard the scenario × scheme × repetition grid.

Every cell of the grid is a :class:`SweepTask` that carries its own
:class:`~repro.sweep.catalog.ScenarioSpec` and is seeded with the
crc32-deterministic :func:`~repro.simulation.runner.scheme_run_seed`, so
a serial execution, a parallel execution and a resumed execution of the
same grid produce bit-identical per-run metrics and therefore
bit-identical aggregates.  The engine is the repo's one execution path:
:func:`run_sweep` runs catalog grids into the result store, and
:func:`run_comparison` runs the paper's one-scenario scheme comparison
(the figures and ``simulate``) over the same expansion, collapse and
supervised dispatch, returning whole results instead of stored metrics.

Only BH2 draws from the run seed, so the repetitions of every other
scheme are copies of one run.  The engine runs the kernel once per such
(spec, scheme) group and persists the other repetitions as replicas
(:func:`plan_collapse`), each under its own digest, so the store holds
exactly what running every cell would have written.

Workers rebuild scenarios from their (small, picklable) specs and keep a
per-process cache keyed by spec, so a spec's trace is generated once per
worker regardless of how many scheme × repetition tasks land on it.
Completed runs stream back to the parent, which persists each one to the
:class:`~repro.sweep.store.ResultStore` immediately — a sweep killed
mid-run loses at most the runs that were in flight.

Execution is supervised (:mod:`repro.resilience.supervisor`): per-task
wall-clock timeouts, bounded retries with deterministic backoff, dead
worker respawn with re-enqueue of in-flight tasks, and degradation to
serial execution when the pool keeps dying.  Because a retried task is
the *same* :class:`SweepTask` — its seed was fixed at expansion time —
the rescue path reproduces the exact bytes a clean run would have
stored.  A :class:`~repro.resilience.faults.ChaosConfig` injects
deterministic faults (worker crash, hang, raise, torn store write) to
prove it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import SchemeConfig, no_sleep, standard_schemes
from repro.obs.metrics import MetricsRegistry, kernel_snapshot
from repro.obs.progress import notify
from repro.resilience.faults import (
    ChaosConfig,
    FaultKind,
    FaultPlan,
    InjectedFault,
    build_plan,
    tear_write,
)
from repro.resilience.supervisor import (
    RetryPolicy,
    SupervisedOutcome,
    TaskFailure,
    run_serial_supervised,
    run_supervised,
)
from repro.simulation.metrics import peak_window
from repro.simulation.runner import (
    SchemeComparison,
    run_scheme,
    scheme_run_seed,
    uses_run_seed,
)
from repro.simulation.simulator import SimulationResult
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec, resolve_families
from repro.sweep.store import ResultStore, RunDigestSeries, RunRecord
from repro.topology.scenario import Scenario

@dataclass(frozen=True)
class SweepConfig:
    """Execution knobs of a sweep (grid membership lives in the catalog)."""

    runs_per_scheme: int = 1
    step_s: float = 2.0
    sample_interval_s: float = 60.0

    def __post_init__(self) -> None:
        if self.runs_per_scheme <= 0:
            raise ValueError("runs_per_scheme must be positive")
        if self.step_s <= 0 or self.sample_interval_s <= 0:
            raise ValueError("step_s and sample_interval_s must be positive")


@dataclass(frozen=True)
class SweepTask:
    """One cell of the scenario × scheme × repetition grid."""

    family: str
    spec: ScenarioSpec
    scheme: SchemeConfig
    run_index: int
    seed: int
    step_s: float
    sample_interval_s: float
    digest: str


def run_metrics(result: SimulationResult, duration_s: float) -> Dict[str, float]:
    """The scalar metrics a sweep stores and aggregates for one run.

    Heterogeneous fleets add one ``gen:<generation>_kwh`` energy column per
    gateway generation (plus the matching ``gen:<generation>_count``), and
    churn scenarios report the flows lost to departures.
    """
    peak = peak_window(duration_s)
    metrics = {
        "mean_savings_percent": 100.0 * result.mean_savings(),
        "peak_savings_percent": 100.0 * result.mean_savings(*peak),
        "mean_online_gateways": result.mean_online_gateways(),
        "peak_online_gateways": result.mean_online_gateways(*peak),
        "mean_online_line_cards": result.mean_online_line_cards(),
        "isp_share_of_savings_percent": 100.0 * result.mean_isp_share_of_savings(),
    }
    metrics["dropped_flows"] = float(result.dropped_flows)
    # Served user demand: completed flows and the bytes they delivered.
    # These are the y axis of the watt Pareto front (gateway kWh spent
    # vs. demand served) and the explicit "user demand stays served"
    # claim of the regression baselines.
    metrics["served_flows"] = float(len(result.flow_records))
    metrics["served_demand_gb"] = (
        sum(record.size_bytes for record in result.flow_records) / 1e9
    )
    # Total gateway-side energy: the column the watt-aware report pairs
    # across schemes to compute watts_saved_vs_count_kwh.
    metrics["gateway_kwh"] = sum(result.generation_energy_j.values()) / 3.6e6
    generation_names = list(result.generation_energy_j)
    # The homogeneous default reports a single pseudo-generation named
    # "default"; real fleet profiles (mixed or uniform-but-non-default)
    # get one energy/count column pair per generation.
    if generation_names and generation_names != ["default"]:
        for name, joules in result.generation_energy_j.items():
            metrics[f"gen:{name}_kwh"] = joules / 3.6e6
            metrics[f"gen:{name}_count"] = float(result.generation_counts.get(name, 0))
    return metrics


def _dedupe_schemes(schemes: Sequence[SchemeConfig]) -> List[SchemeConfig]:
    """Drop repeated scheme names (a duplicate must not inflate the grid)."""
    unique: List[SchemeConfig] = []
    seen = set()
    for scheme in schemes:
        if scheme.name not in seen:
            seen.add(scheme.name)
            unique.append(scheme)
    return unique


def expand_tasks(
    families: Sequence[ScenarioFamily],
    schemes: Optional[Sequence[SchemeConfig]],
    config: SweepConfig,
) -> List[SweepTask]:
    """The full grid in deterministic (family, spec, scheme, run) order.

    ``schemes=None`` lets every family pick its own comparison set (its
    declared ``scheme_names``, or the Fig. 6 standard set); an explicit
    scheme list applies to every family.
    """
    explicit = _dedupe_schemes(schemes) if schemes is not None else None
    standard = None
    tasks: List[SweepTask] = []
    for family_ in families:
        family_schemes = explicit
        if family_schemes is None:
            family_schemes = family_.default_schemes()
            if family_schemes is None:
                if standard is None:
                    standard = standard_schemes()
                family_schemes = standard
        for spec in family_.expand():
            # canonical() materialises churn timelines and fleet mixes;
            # compute it once per spec, not once per scheme x repetition.
            spec_canonical = spec.canonical()
            for scheme in family_schemes:
                # Repetitions share everything but the seed: the series
                # renders the digest payload once per (spec, scheme) and
                # splices the seed in, instead of serializing the whole
                # scenario for every repetition cell.
                digests = RunDigestSeries(
                    spec, scheme, config.step_s, config.sample_interval_s,
                    spec_canonical=spec_canonical,
                )
                for run_index in range(config.runs_per_scheme):
                    seed = scheme_run_seed(spec.seed, run_index, scheme.name)
                    tasks.append(SweepTask(
                        family=family_.name,
                        spec=spec,
                        scheme=scheme,
                        run_index=run_index,
                        seed=seed,
                        step_s=config.step_s,
                        sample_interval_s=config.sample_interval_s,
                        digest=digests.digest(seed),
                    ))
    return tasks


#: Per-process scenario cache: building a spec's trace dominates task
#: startup, and many (scheme, repetition) tasks share one spec.
_SCENARIO_CACHE: dict = {}

#: Tracer handed to in-process (serial) task execution.  Set only around
#: the ``workers == 1`` supervised run; worker processes of a pooled
#: sweep are spawned while this is ``None``, so they never trace.
_TASK_TRACER = None


@dataclass
class TaskOutput:
    """What one executed grid cell ships back to the parent.

    Only ``record`` ever reaches the store, so stored bytes stay
    byte-identical whether or not observability is on (the chaos drill's
    invariant).  The metrics snapshot and phase timings ride alongside:
    the engine merges the snapshots into the sweep-wide registry and
    writes the timings to the store's ``timings.jsonl`` ledger.
    """

    record: RunRecord
    obs: Dict[str, dict]
    build_s: float
    run_s: float
    #: Digest of the representative a replica copied its metrics from
    #: (``None`` for a cell the kernel ran).
    replica_of: Optional[str] = None


def _cached_scenario(spec: ScenarioSpec) -> Tuple[Scenario, float]:
    """The spec's scenario from the per-process cache, and its build time.

    The build time is 0.0 on a cache hit; a miss replaces the cache's
    single entry.
    """
    scenario = _SCENARIO_CACHE.get(spec)
    if scenario is not None:
        return scenario, 0.0
    build_start = time.perf_counter()
    scenario = spec.build()
    build_s = time.perf_counter() - build_start
    _SCENARIO_CACHE.clear()
    _SCENARIO_CACHE[spec] = scenario
    return scenario, build_s


def _execute_task(task: SweepTask) -> TaskOutput:
    """Run one grid cell (top-level so the supervisor can pickle it)."""
    scenario, build_s = _cached_scenario(task.spec)
    run_start = time.perf_counter()
    result = run_scheme(
        scenario,
        task.scheme,
        seed=task.seed,
        step_s=task.step_s,
        sample_interval_s=task.sample_interval_s,
        tracer=_TASK_TRACER,
    )
    run_s = time.perf_counter() - run_start
    record = RunRecord(
        digest=task.digest,
        family=task.family,
        label=task.spec.label,
        scheme=task.scheme.name,
        run_index=task.run_index,
        seed=task.seed,
        duration_s=task.spec.duration_s,
        metrics=run_metrics(result, task.spec.duration_s),
    )
    registry = MetricsRegistry.from_snapshot(kernel_snapshot(result, run_s))
    if build_s > 0:
        registry.observe("sweep.trace_build_s", build_s)
    return TaskOutput(
        record=record, obs=registry.snapshot(), build_s=build_s, run_s=run_s
    )


def plan_collapse(tasks: Sequence[SweepTask]) -> Dict[str, SweepTask]:
    """Map every replica cell's digest to the task that represents it.

    Cells are grouped by (spec, scheme, step_s, sample_interval_s).  For
    a scheme that does not use the run seed
    (:func:`~repro.simulation.runner.uses_run_seed`), the group's
    lowest-``run_index`` cell represents it and every other cell is a
    replica: its metrics are the representative's, byte for byte.  Cells
    of seed-consuming schemes (BH2) never appear in the map.
    """
    groups: Dict[tuple, List[SweepTask]] = {}
    for task in tasks:
        if not uses_run_seed(task.scheme):
            key = (task.spec, task.scheme, task.step_s, task.sample_interval_s)
            groups.setdefault(key, []).append(task)
    replica_of: Dict[str, SweepTask] = {}
    for group in groups.values():
        representative = min(group, key=lambda task: task.run_index)
        for task in group:
            if task.digest != representative.digest:
                replica_of[task.digest] = representative
    return replica_of


def _replicate(
    replicas: Sequence[SweepTask],
    replica_of: Dict[str, SweepTask],
    persist,
    records: Dict[str, RunRecord],
    progress,
) -> Tuple[Dict[str, str], List[TaskFailure]]:
    """Persist every replica with its representative's metrics.

    Each replica gets its own record under its own digest, seed and
    ``run_index``, so the store holds exactly what full execution would
    have written.  A representative without a record (it failed under
    ``keep_going``) fails its replicas instead of guessing.
    """
    replicated: Dict[str, str] = {}
    failures: List[TaskFailure] = []
    for task in replicas:
        representative = replica_of[task.digest]
        source = records.get(representative.digest)
        if source is None:
            failure = TaskFailure(
                digest=task.digest,
                family=task.family,
                label=task.spec.label,
                scheme=task.scheme.name,
                run_index=task.run_index,
                attempts=0,
                kind="error",
                reason=f"collapsed representative {representative.digest[:12]} failed",
            )
            failures.append(failure)
            notify(progress, "task_failed", failure)
            continue
        record = RunRecord(
            digest=task.digest,
            family=task.family,
            label=task.spec.label,
            scheme=task.scheme.name,
            run_index=task.run_index,
            seed=task.seed,
            duration_s=task.spec.duration_s,
            metrics=dict(source.metrics),
        )
        persist(TaskOutput(record=record, obs={}, build_s=0.0, run_s=0.0,
                           replica_of=representative.digest), 0)
        records[task.digest] = record
        replicated[task.digest] = representative.digest
        notify(progress, "task_replicated", task, representative.digest)
    return replicated, failures


@dataclass
class SweepResult:
    """Outcome of a sweep: every task's record plus cache accounting.

    ``failures`` is the ledger of grid cells that exhausted their retry
    budget under ``--keep-going``; their digests are absent from
    ``records`` and their cells are skipped (not guessed at) by
    :meth:`aggregates`.

    Every grid cell is exactly one of: a cache hit, an ``executed``
    kernel run, or a ``collapsed`` replica of a run-seed-invariant
    representative (see :func:`plan_collapse`).
    """

    tasks: List[SweepTask]
    records: Dict[str, RunRecord]
    cache_hits: int = 0
    executed: int = 0
    collapsed: int = 0
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degraded: bool = False
    #: Replica digest -> representative digest, for every cell this sweep
    #: replicated instead of running.
    replica_of: Dict[str, str] = field(default_factory=dict)
    #: Merged observability snapshot (counters/gauges/histograms) across
    #: every executed run plus the engine's own store/supervisor counters.
    obs: Dict[str, dict] = field(default_factory=dict)
    #: Per-digest supervisor accounting for *executed* cells:
    #: ``{"attempts": n, "wall_s": s}`` (cache-served cells and replicas
    #: have none).
    task_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def total_runs(self) -> int:
        """Number of grid cells in the sweep."""
        return len(self.tasks)

    @property
    def cache_hit_fraction(self) -> float:
        """Fraction of the grid served from the result store."""
        return self.cache_hits / len(self.tasks) if self.tasks else 0.0

    def record_for(self, task: SweepTask) -> RunRecord:
        """The stored record backing one grid cell."""
        return self.records[task.digest]

    def aggregates(self) -> List[Dict[str, object]]:
        """Per (family, scenario, scheme) means over repetitions.

        Rows keep grid order; metric means are computed with a fixed
        summation order over run-index-ordered records, so they are
        bit-identical across serial, parallel and resumed executions.
        Cells lost to failures (``--keep-going``) are left out of their
        group's mean — and a group with no surviving repetition is left
        out of the table — rather than silently zero-filled.

        ``runs`` counts the repetitions averaged; ``distinct_runs`` is the
        effective sample count: repetitions of a scheme that ignores the
        run seed are copies of one run, so they count once.
        """
        groups: Dict[Tuple[str, str, str], List[RunRecord]] = {}
        seeded: Dict[Tuple[str, str, str], bool] = {}
        order: List[Tuple[str, str, str]] = []
        for task in self.tasks:
            key = (task.family, task.spec.label, task.scheme.name)
            if key not in groups:
                groups[key] = []
                seeded[key] = uses_run_seed(task.scheme)
                order.append(key)
            record = self.records.get(task.digest)
            if record is not None:
                groups[key].append(record)
        rows: List[Dict[str, object]] = []
        for key in order:
            records = sorted(groups[key], key=lambda r: r.run_index)
            if not records:
                continue  # every repetition of this cell failed
            # Intersect across records: a store written before a metric
            # column existed may back some repetitions of a group.
            metric_names = [
                name
                for name in records[0].metrics
                if all(name in r.metrics for r in records)
            ]
            means = {
                name: sum(r.metrics[name] for r in records) / len(records)
                for name in metric_names
            }
            rows.append({
                "family": key[0],
                "scenario": key[1],
                "scheme": key[2],
                "runs": len(records),
                "distinct_runs": len(records) if seeded[key] else 1,
                **means,
            })
        return rows


def _dispatch(
    tasks: Sequence[SweepTask],
    execute: Callable,
    persist: Callable[[object, int], None],
    policy: RetryPolicy,
    workers: int,
    plan: Optional[FaultPlan] = None,
    tracer=None,
    progress=None,
) -> SupervisedOutcome:
    """Run tasks on the supervisor: in-process for one worker, pooled otherwise.

    Tasks keep their grid order on first assignment, so each spec's cells
    land contiguously and a worker's per-process scenario cache stays
    warm.  Only the in-process path hands ``tracer`` to the kernel.
    """
    global _TASK_TRACER
    workers = max(1, min(workers, len(tasks)))
    try:
        if workers == 1:
            _TASK_TRACER = tracer
            return run_serial_supervised(
                tasks, execute, persist, policy, plan=plan,
                tracer=tracer, progress=progress,
            )
        return run_supervised(
            tasks, execute, persist, policy, plan=plan,
            workers=workers, tracer=tracer, progress=progress,
        )
    finally:
        _TASK_TRACER = None
        # Don't pin the last scenario (and its trace) in this process for
        # its lifetime.
        _SCENARIO_CACHE.clear()


def run_sweep(
    family_names: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[SchemeConfig]] = None,
    config: Optional[SweepConfig] = None,
    store: Optional[ResultStore] = None,
    workers: Optional[int] = None,
    use_cache: bool = True,
    families: Optional[Sequence[ScenarioFamily]] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    tracer=None,
    progress=None,
) -> SweepResult:
    """Run (or resume) a sweep over the given scenario families.

    ``family_names`` selects registered families (all of them when
    omitted); ``families`` bypasses the registry with explicit family
    objects.  ``schemes=None`` runs each family's own comparison set
    (``scheme_names`` when declared, the Fig. 6 standard set otherwise);
    an explicit list applies to every family.  With a ``store``, cached
    runs are served from disk and fresh runs are persisted as they
    complete; ``use_cache=False`` forces recomputation (results still
    overwrite the store).

    ``retry`` configures supervised execution (timeouts, retry budget,
    ``keep_going``); a task that exhausts its budget raises
    :class:`~repro.resilience.supervisor.SweepExecutionError` unless the
    policy says ``keep_going``, in which case the cell lands in
    ``SweepResult.failures`` instead.  ``chaos`` injects a deterministic
    fault plan over the *pending* (not cache-served) digests — the chaos
    drill of the CI ``chaos`` job.

    ``tracer`` attaches a :class:`~repro.obs.tracer.SimTracer`: the
    engine and supervisor record wall-clock spans (cache scan, task
    execution, store puts, retries/respawns), and a serial
    (``workers=1``) sweep additionally records the kernel's sim-time
    events in-process.  Tracing never changes results or stored bytes.

    ``progress`` attaches a :class:`~repro.obs.progress.ProgressSink`
    (e.g. the ``sweep --watch`` dashboard): it is told the grid shape
    and cache hits up front, then receives every supervisor event.  All
    sink callbacks go through the exception-swallowing ``notify``
    wrapper, so — like tracing — watching never changes results.

    Repetitions of a scheme that ignores the run seed are collapsed
    (:func:`plan_collapse`): only the lowest-``run_index`` cell of each
    group runs the kernel, and every other pending cell is persisted
    afterwards under its own digest with the representative's metrics —
    read from the store when the representative was already there.  The
    store ends up byte-identical to running every cell.
    """
    if workers is not None and workers <= 0:
        raise ValueError("workers must be positive")
    config = config or SweepConfig()
    resolved = list(families) if families is not None else resolve_families(family_names)
    # Selecting the same family twice is a no-op, not a doubled grid.
    unique: List[ScenarioFamily] = []
    seen_names = set()
    for family_ in resolved:
        if family_.name not in seen_names:
            seen_names.add(family_.name)
            unique.append(family_)
    resolved = unique
    if not resolved:
        raise ValueError("no scenario families selected")
    tasks = expand_tasks(resolved, schemes, config)

    records: Dict[str, RunRecord] = {}
    pending: List[SweepTask] = []
    seen_digests = set()
    caching = store is not None and use_cache
    scan_start = time.perf_counter()
    # The store-wide manifest answers "which digests exist?" in one read
    # instead of one file open per task; get() stays authoritative, so a
    # stale manifest can only cost a recomputation, never a wrong result.
    known = store.known_digests() if caching else frozenset()
    for task in tasks:
        if task.digest in seen_digests or task.digest in records:
            continue
        cached = store.get(task.digest) if (caching and task.digest in known) else None
        if cached is not None:
            records[task.digest] = cached
        else:
            seen_digests.add(task.digest)
            pending.append(task)
    if tracer is not None:
        tracer.span(
            "sweep.scan", scan_start, time.perf_counter(),
            clock="wall", cat="sweep",
            cached=len(records), pending=len(pending),
        )
    notify(progress, "sweep_started", tasks, frozenset(records))

    replica_of = plan_collapse(tasks) if pending else {}
    run_tasks = [task for task in pending if task.digest not in replica_of]
    replicas = [task for task in pending if task.digest in replica_of]
    policy = retry or RetryPolicy()
    # The plan covers only digests that actually execute: a cache-served
    # cell or a replica cannot crash a worker, and victim choice stays
    # stable across resumes of the same pending set.
    plan: Optional[FaultPlan] = None
    if chaos is not None and chaos.total:
        plan = build_plan([task.digest for task in run_tasks], chaos)

    def persist(output: TaskOutput, attempt: int) -> None:
        """Parent-side persist hook; torn-write injection lives here.

        Receives the worker's :class:`TaskOutput`; only the wrapped
        :class:`RunRecord` reaches the store, and one profiling line is
        appended to the timings ledger per successful persist (so a
        fresh sweep's ledger line count equals its manifest run count).
        A replica's line names its representative instead of timings.
        """
        record = output.record
        if plan is not None and plan.fault_for(record.digest, attempt) is FaultKind.TORN_WRITE:
            if store is not None:
                tear_write(store, record.digest)
            raise InjectedFault(f"injected torn store write for {record.digest[:12]}")
        if store is not None:
            if tracer is not None:
                with tracer.wall_span("store.put", digest=record.digest[:12]):
                    store.put(record)
            else:
                store.put(record)
            entry = {
                "digest": record.digest,
                "family": record.family,
                "label": record.label,
                "scheme": record.scheme,
                "run_index": record.run_index,
            }
            if output.replica_of is not None:
                entry["replica_of"] = output.replica_of
            else:
                entry["attempt"] = attempt
                entry["build_s"] = round(output.build_s, 6)
                entry["run_s"] = round(output.run_s, 6)
            store.append_timing(entry)

    failures: List[TaskFailure] = []
    retries = respawns = timeouts = 0
    degraded = False
    task_stats: Dict[str, Dict[str, float]] = {}
    registry = MetricsRegistry()
    if run_tasks:
        outcome = _dispatch(
            run_tasks, _execute_task, persist, policy, workers or 1,
            plan=plan, tracer=tracer, progress=progress,
        )
        # Unwrap: SweepResult.records holds bare RunRecords (exactly what
        # the cache-served path yields), the snapshots merge sweep-wide.
        for digest, payload in outcome.records.items():
            records[digest] = payload.record
            registry.merge(payload.obs)
        failures = outcome.failures
        retries = outcome.retries
        respawns = outcome.respawns
        timeouts = outcome.timeouts
        degraded = outcome.degraded
        task_stats.update(outcome.task_stats)

    # After the pool every representative that could run has its record.
    replicated, replica_failures = _replicate(
        replicas, replica_of, persist, records, progress,
    )
    failures = failures + replica_failures

    # Every grid cell that did not need a fresh run counts as a hit,
    # including duplicates reached through two families.
    cache_hits = len(tasks) - len(pending)
    registry.counter("store.cache_hits", cache_hits)
    registry.counter("store.executed", len(run_tasks))
    registry.counter("supervisor.retries", retries)
    registry.counter("supervisor.respawns", respawns)
    registry.counter("supervisor.timeouts", timeouts)
    if replicas:
        registry.counter("sweep.collapsed_cells", len(replicas))
    notify(progress, "sweep_finished")
    return SweepResult(
        tasks=tasks,
        records=records,
        cache_hits=cache_hits,
        executed=len(run_tasks),
        collapsed=len(replicas),
        failures=failures,
        retries=retries,
        respawns=respawns,
        timeouts=timeouts,
        degraded=degraded,
        replica_of=replicated,
        obs=registry.snapshot(),
        task_stats=task_stats,
    )


def _simulate_cell(
    task: SweepTask, baseline_durations: Dict[int, float]
) -> SimulationResult:
    """Run one comparison cell to a whole result (picklable via ``partial``)."""
    scenario, _build_s = _cached_scenario(task.spec)
    return run_scheme(
        scenario,
        task.scheme,
        seed=task.seed,
        step_s=task.step_s,
        sample_interval_s=task.sample_interval_s,
        baseline_durations=baseline_durations,
    )


def run_comparison(
    spec: ScenarioSpec,
    schemes: Sequence[SchemeConfig],
    config: SweepConfig,
    workers: Optional[int] = None,
) -> SchemeComparison:
    """Every scheme's repetitions over one scenario, as whole results.

    The paper's protocol (Sec. 5.1) behind the figures and ``simulate``:
    ``config.runs_per_scheme`` runs of every scheme, seeded from
    ``spec.seed``.  The grid is :func:`expand_tasks` over a one-spec
    family, so its cells carry the same seeds and digests a sweep of that
    spec would.  The scenario is built, and the no-sleep baseline (the
    flow durations Fig. 9a compares against) run, once in this process
    before any worker forks.  Only the cells :func:`plan_collapse` keeps
    run the kernel; every replica cell gets its representative's result.
    Execution goes through the supervisor, so a cell that keeps failing
    raises :class:`~repro.resilience.supervisor.SweepExecutionError`
    naming it.
    """
    if workers is not None and workers <= 0:
        raise ValueError("workers must be positive")
    family_ = ScenarioFamily(
        name=spec.label, description="ad-hoc scheme comparison", base=spec
    )
    tasks = expand_tasks([family_], schemes, config)
    # The family's one spec is ``spec`` itself (its label is the family
    # name), so pooled workers fork with the scenario already cached.
    scenario, _build_s = _cached_scenario(spec)
    baseline: Dict[int, float] = {}
    if any(scheme.sleep_enabled for scheme in schemes):
        baseline = run_scheme(
            scenario,
            no_sleep(),
            seed=spec.seed,
            step_s=config.step_s,
            sample_interval_s=config.sample_interval_s,
        ).flow_durations()
    replica_of = plan_collapse(tasks)
    outcome = _dispatch(
        [task for task in tasks if task.digest not in replica_of],
        functools.partial(_simulate_cell, baseline_durations=baseline),
        lambda _result, _attempt: None,
        RetryPolicy(),
        workers or 1,
    )
    comparison = SchemeComparison(scenario=scenario, runs_per_scheme=config.runs_per_scheme)
    for task in tasks:
        source = replica_of.get(task.digest, task)
        comparison.results.setdefault(task.scheme.name, []).append(
            outcome.records[source.digest]
        )
    return comparison
