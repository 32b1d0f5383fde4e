"""Determinism of run seeds and of the engine's scheme comparison.

The seed derived each run's RNG seed from ``hash(scheme.name)``, which
varies with ``PYTHONHASHSEED`` — "identical" runs differed across
processes.  Seeds now come from ``zlib.crc32``
(:func:`repro.simulation.runner.scheme_run_seed`), so repeated runs and
worker processes agree exactly.

:func:`repro.sweep.engine.run_comparison` runs the figures' scheme ×
repetition protocol on the supervisor with repetition collapse.  Its
reference is the plain loop: one ``run_scheme`` per cell, every cell run.
"""

import zlib

import numpy as np
import pytest

from repro.core.schemes import bh2_kswitch, no_sleep, optimal, soi
from repro.resilience.supervisor import SweepExecutionError
from repro.simulation.runner import run_scheme, scheme_run_seed
from repro.sweep import engine
from repro.sweep.catalog import ScenarioSpec
from repro.sweep.engine import SweepConfig, run_comparison

FLAT_PROFILE = tuple([1.0] * 24)

#: Half an hour of a busy flat-profile day, so every scheme serves flows.
SPEC = ScenarioSpec(
    label="busy",
    num_clients=40,
    num_gateways=8,
    duration_s=1800.0,
    seed=5,
    trace_overrides=(
        ("diurnal_profile", FLAT_PROFILE),
        ("peak_online_probability", 0.5),
    ),
)
CONFIG = SweepConfig(runs_per_scheme=3, step_s=2.0)
SCHEMES = [no_sleep(), soi(), bh2_kswitch(), optimal()]


def _reference(spec, schemes, config):
    """Every cell run by plain ``run_scheme``, nothing collapsed."""
    scenario = spec.build()
    baseline = run_scheme(
        scenario, no_sleep(), seed=spec.seed, step_s=config.step_s,
        sample_interval_s=config.sample_interval_s,
    ).flow_durations()
    return {
        scheme.name: [
            run_scheme(
                scenario,
                scheme,
                seed=scheme_run_seed(spec.seed, run_index, scheme.name),
                step_s=config.step_s,
                sample_interval_s=config.sample_interval_s,
                baseline_durations=baseline,
            )
            for run_index in range(config.runs_per_scheme)
        ]
        for scheme in schemes
    }


@pytest.fixture(scope="module")
def reference():
    return _reference(SPEC, SCHEMES, CONFIG)


def test_scheme_run_seed_is_hash_seed_independent():
    # crc32 is a pure function of the bytes — no interpreter state involved.
    assert scheme_run_seed(0, 0, "SoI") == zlib.crc32(b"SoI") % 997
    assert scheme_run_seed(10, 2, "BH2+k-switch") == 10 + 2000 + zlib.crc32(b"BH2+k-switch") % 997
    assert scheme_run_seed(0, 0, "a") != scheme_run_seed(0, 0, "b")


@pytest.mark.parametrize("workers", [1, 2])
def test_comparison_matches_per_cell_reference(reference, workers):
    """Serial and pooled comparisons equal running every cell, cell by cell."""
    comparison = run_comparison(SPEC, SCHEMES, CONFIG, workers=workers)
    assert comparison.scheme_names == [scheme.name for scheme in SCHEMES]
    assert comparison.runs_per_scheme == CONFIG.runs_per_scheme
    assert any(run.flow_records for run in reference["SoI"])
    for name, expected_runs in reference.items():
        runs = comparison.results[name]
        assert len(runs) == len(expected_runs)
        for run, expected in zip(runs, expected_runs):
            assert np.array_equal(run.online_gateways, expected.online_gateways)
            assert np.array_equal(run.online_line_cards, expected.online_line_cards)
            assert np.array_equal(run.energy_series_total_j, expected.energy_series_total_j)
            assert np.array_equal(run.energy_series_isp_j, expected.energy_series_isp_j)
            assert run.gateway_online_seconds == expected.gateway_online_seconds
            assert run.flow_records == expected.flow_records


def _count_kernel_runs(monkeypatch):
    """Record (scheme name, seed) of every kernel run the engine makes."""
    calls = []
    real = engine.run_scheme

    def counting(scenario, scheme, **kwargs):
        calls.append((scheme.name, kwargs["seed"]))
        return real(scenario, scheme, **kwargs)

    monkeypatch.setattr(engine, "run_scheme", counting)
    return calls


def test_bh2_repetitions_are_distinct_kernel_runs(monkeypatch):
    calls = _count_kernel_runs(monkeypatch)
    comparison = run_comparison(SPEC, [bh2_kswitch()], CONFIG, workers=1)
    name = bh2_kswitch().name
    seeds = [seed for scheme, seed in calls if scheme == name]
    assert seeds == [scheme_run_seed(SPEC.seed, i, name) for i in range(3)]
    assert len(set(seeds)) == 3
    runs = comparison.results[name]
    assert len({id(run) for run in runs}) == 3


def test_comparison_collapses_seed_free_repetitions(monkeypatch):
    """[no-sleep, SoI, BH2+k-switch] x 3 = 1 baseline + 1 + 1 + 3 kernel runs."""
    calls = _count_kernel_runs(monkeypatch)
    schemes = [no_sleep(), soi(), bh2_kswitch()]
    comparison = run_comparison(SPEC, schemes, CONFIG, workers=1)
    names = [scheme for scheme, _seed in calls]
    assert len(calls) == 6
    assert names.count("no-sleep") == 2  # the baseline plus the no-sleep cell
    assert names.count("SoI") == 1
    assert names.count("BH2+k-switch") == 3
    assert all(len(runs) == 3 for runs in comparison.results.values())


def test_comparison_validates_workers():
    with pytest.raises(ValueError):
        run_comparison(SPEC, [soi()], CONFIG, workers=0)


@pytest.mark.parametrize("workers", [1, 2])
def test_kernel_failure_names_the_cell(monkeypatch, workers):
    """A cell that keeps failing surfaces as SweepExecutionError naming it."""
    real = engine.run_scheme

    def failing(scenario, scheme, **kwargs):
        if scheme.name == "SoI":
            raise RuntimeError("kernel exploded")
        return real(scenario, scheme, **kwargs)

    monkeypatch.setattr(engine, "run_scheme", failing)
    with pytest.raises(SweepExecutionError) as excinfo:
        run_comparison(
            SPEC, [no_sleep(), soi()], SweepConfig(runs_per_scheme=2, step_s=2.0),
            workers=workers,
        )
    assert [failure.cell for failure in excinfo.value.failures] == ["busy/busy/SoI#0"]
    assert "busy/busy/SoI#0" in str(excinfo.value)
    assert "kernel exploded" in excinfo.value.failures[0].reason
