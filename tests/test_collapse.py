"""Exact repetition collapse in the sweep engine.

Repetitions of a scheme that ignores the run seed are simulated once and
replicated; the store must hold exactly the bytes that running every
cell would have written.  The oracle is the engine's own per-cell
executor, :func:`repro.sweep.engine._execute_task`, applied to every
cell of the grid.
"""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schemes import all_schemes, no_sleep, soi
from repro.obs import SweepDashboard
from repro.resilience import ChaosConfig, RetryPolicy
from repro.simulation.runner import uses_run_seed
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec
from repro.sweep.engine import (
    SweepConfig,
    _execute_task,
    expand_tasks,
    plan_collapse,
    run_sweep,
)
from repro.sweep.report import sweep_to_json
from repro.sweep.store import ResultStore

SCHEMES = list(all_schemes().values())


def _family(**fields) -> ScenarioFamily:
    """A one-hour office-profile deployment busy enough to carry flows."""
    spec = ScenarioSpec(
        label="collapse", num_clients=16, num_gateways=6, duration_s=3600.0,
        profile="office", trace_overrides=(("peak_online_probability", 0.9),),
        **fields,
    )
    return ScenarioFamily(name="collapse", description="test family", base=spec)


def _full_execution_bytes(families, schemes, config):
    """Digest -> record bytes with every grid cell run through the kernel."""
    return {
        task.digest: _execute_task(task).record.to_json()
        for task in expand_tasks(families, schemes, config)
    }


def _store_bytes(store: ResultStore):
    return {
        path.stem: path.read_text() for path in store.runs_dir.glob("*.json")
    }


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    fleet=st.sampled_from(["homogeneous", "tri-mix"]),
    churn=st.sampled_from(["none", "midday-dropout", "dslam-outage"]),
    step_s=st.sampled_from([2.0, 5.0]),
    runs=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=40),
)
def test_collapsed_store_matches_full_execution(fleet, churn, step_s, runs, seed):
    families = [_family(fleet=fleet, churn=churn, seed=seed)]
    config = SweepConfig(runs_per_scheme=runs, step_s=step_s)
    expected = _full_execution_bytes(families, SCHEMES, config)
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(Path(root))
        result = run_sweep(families=families, schemes=SCHEMES, config=config,
                           store=store, workers=1)
        assert not result.failures
        assert _store_bytes(store) == expected
    assert {d: r.to_json() for d, r in result.records.items()} == expected
    # BH2 cells always run; everything else runs once per (spec, scheme).
    by_digest = {task.digest: task for task in result.tasks}
    for digest in result.replica_of:
        assert not uses_run_seed(by_digest[digest].scheme)
    seeded = sum(1 for scheme in SCHEMES if uses_run_seed(scheme))
    assert result.executed == len(SCHEMES) + seeded * (runs - 1)
    assert result.collapsed == (len(SCHEMES) - seeded) * (runs - 1)
    assert result.executed + result.collapsed == result.total_runs


def test_plan_collapse_maps_each_replica_to_run_zero():
    config = SweepConfig(runs_per_scheme=3, step_s=5.0)
    tasks = expand_tasks([_family()], SCHEMES, config)
    replica_of = plan_collapse(tasks)
    for task in tasks:
        representative = replica_of.get(task.digest)
        if uses_run_seed(task.scheme) or task.run_index == 0:
            assert representative is None
        else:
            assert representative.run_index == 0
            assert representative.scheme == task.scheme
            assert representative.spec == task.spec


def test_partial_resume_replicates_from_the_stored_representative(tmp_path):
    families = [_family(churn="midday-dropout")]
    schemes = [no_sleep(), soi(), all_schemes()["BH2+k-switch"]]
    store = ResultStore(tmp_path)
    run_sweep(families=families, schemes=schemes,
              config=SweepConfig(runs_per_scheme=1, step_s=5.0), store=store)
    config = SweepConfig(runs_per_scheme=3, step_s=5.0)
    grown = run_sweep(families=families, schemes=schemes, config=config, store=store)
    # Run 0 of every scheme is cached; only BH2's new repetitions run.
    assert grown.cache_hits == 3
    assert grown.executed == 2
    assert grown.collapsed == 4
    assert _store_bytes(store) == _full_execution_bytes(families, schemes, config)


def test_replica_ledger_and_json_name_the_representative(tmp_path):
    families = [_family()]
    config = SweepConfig(runs_per_scheme=3, step_s=5.0)
    store = ResultStore(tmp_path)
    result = run_sweep(families=families, schemes=[soi()], config=config, store=store)
    assert (result.executed, result.collapsed) == (1, 2)
    representative = next(t.digest for t in result.tasks if t.run_index == 0)
    entries = {entry["digest"]: entry for entry in store.read_timings()}
    assert len(entries) == 3
    for task in result.tasks:
        entry = entries[task.digest]
        if task.run_index == 0:
            assert "replica_of" not in entry and entry["run_s"] > 0
        else:
            assert entry["replica_of"] == representative
            assert "run_s" not in entry and "attempt" not in entry
    runs = json.loads(sweep_to_json(result))["runs"]
    assert [entry.get("replica_of") for entry in runs] == [None, representative, representative]
    assert "wall_s" in runs[0] and "wall_s" not in runs[1]
    row = result.aggregates()[0]
    assert (row["runs"], row["distinct_runs"]) == (3, 1)
    assert result.obs["counters"]["sweep.collapsed_cells"] == 2


def test_failed_representative_fails_its_replicas(tmp_path):
    families = [_family()]
    config = SweepConfig(runs_per_scheme=3, step_s=5.0)
    result = run_sweep(
        families=families, schemes=[soi()], config=config,
        store=ResultStore(tmp_path),
        retry=RetryPolicy(max_retries=0, keep_going=True),
        chaos=ChaosConfig(raises=1, seed=1),
    )
    # The fault plan covers the one cell that executes: the representative.
    assert result.executed == 1 and result.collapsed == 2
    assert len(result.failures) == 3
    assert not result.records and not result.replica_of
    replica_failures = [f for f in result.failures if f.attempts == 0]
    assert len(replica_failures) == 2
    assert all("representative" in f.reason for f in replica_failures)


def test_watched_sweep_resolves_replicas():
    stream = io.StringIO()
    result = run_sweep(
        families=[_family()], schemes=[soi()],
        config=SweepConfig(runs_per_scheme=3, step_s=5.0),
        progress=SweepDashboard(stream=stream, force_plain=True),
    )
    assert "sweep finished: 3/3 resolved, 1 executed, 2 collapsed" in stream.getvalue()
    assert (result.executed, result.collapsed) == (1, 2)
