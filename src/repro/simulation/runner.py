"""One scheme run, its seed rule, and the multi-run comparison it feeds.

The paper runs every scheme 10 times over the same trace and averages the
results; the randomness lies in the BH2 decision offsets and random gateway
selections.  :func:`run_scheme` is one such run; :func:`scheme_run_seed`
derives each repetition's seed deterministically from ``(base_seed,
run_index, scheme name)``, so serial and parallel executions agree bit for
bit.  :class:`SchemeComparison` holds all runs of all schemes over one
scenario and averages them for the figures.  The repetitions themselves
are executed by the sweep engine
(:func:`repro.sweep.engine.run_comparison`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.schemes import AggregationKind, SchemeConfig
from repro.simulation.metrics import average_timeseries
from repro.simulation.simulator import AccessNetworkSimulator, SimulationResult
from repro.topology.scenario import Scenario


def scheme_run_seed(base_seed: int, run_index: int, scheme_name: str) -> int:
    """Deterministic per-run seed for a scheme repetition.

    Uses ``zlib.crc32`` rather than ``hash`` so the seed does not depend on
    ``PYTHONHASHSEED`` — identical runs stay identical across interpreter
    invocations and worker processes.
    """
    return base_seed + 1000 * run_index + zlib.crc32(scheme_name.encode("utf-8")) % 997


def uses_run_seed(scheme: SchemeConfig) -> bool:
    """Whether a run of ``scheme`` depends on its run seed at all.

    The simulator seeds one RNG with the run seed and draws from it only
    to seed the BH2 terminals.  Every other scheme's trajectory is fixed
    by the scenario (trace, topology, fleet, churn — all drawn from the
    scenario seed), so repetitions that differ only in their run seed
    are byte-identical.  The sweep engine relies on this to simulate one
    repetition of such a scheme and replicate the rest.

    Latent trap: :class:`~repro.wireless.channel.WirelessChannel` also
    receives the run seed and draws log-normal shadowing from it when
    ``shadowing_sigma_db > 0``.  The simulator builds its channel with
    the default ``shadowing_sigma_db=0``, so no draw happens; a simulator
    that enables shadowing must make this return ``True`` for every
    scheme.
    """
    return scheme.aggregation is AggregationKind.BH2


def run_scheme(
    scenario: Scenario,
    scheme: SchemeConfig,
    seed: int = 0,
    step_s: float = 1.0,
    sample_interval_s: float = 60.0,
    baseline_durations: Optional[Dict[int, float]] = None,
    tracer=None,
) -> SimulationResult:
    """Run one scheme once over a scenario.

    ``tracer`` optionally attaches a :class:`~repro.obs.tracer.SimTracer`;
    traced runs produce bit-identical results (tracing only observes).
    """
    simulator = AccessNetworkSimulator(
        scenario=scenario,
        scheme=scheme,
        step_s=step_s,
        sample_interval_s=sample_interval_s,
        seed=seed,
        baseline_durations=baseline_durations,
        tracer=tracer,
    )
    return simulator.run()


@dataclass
class SchemeComparison:
    """Results of all runs of all schemes over one scenario."""

    scenario: Scenario
    runs_per_scheme: int
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)

    def first(self, scheme_name: str) -> SimulationResult:
        """The first run of a scheme (convenient for per-flow metrics)."""
        return self.results[scheme_name][0]

    def mean_savings(self, scheme_name: str, t_start: float = 0.0, t_end: Optional[float] = None) -> float:
        """Average savings fraction across the runs of a scheme."""
        return float(np.mean([r.mean_savings(t_start, t_end) for r in self.results[scheme_name]]))

    def mean_online_gateways(
        self, scheme_name: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> float:
        """Average number of powered gateways across the runs of a scheme."""
        return float(
            np.mean([r.mean_online_gateways(t_start, t_end) for r in self.results[scheme_name]])
        )

    def mean_online_line_cards(
        self, scheme_name: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> float:
        """Average number of powered line cards across the runs of a scheme."""
        return float(
            np.mean([r.mean_online_line_cards(t_start, t_end) for r in self.results[scheme_name]])
        )

    def savings_timeseries(self, scheme_name: str):
        """Run-averaged savings-vs-time series of a scheme (Fig. 6)."""
        return average_timeseries(r.savings_timeseries() for r in self.results[scheme_name])

    def online_gateways_timeseries(self, scheme_name: str):
        """Run-averaged online-gateway series of a scheme (Fig. 7)."""
        return average_timeseries(
            (r.sample_times, r.online_gateways) for r in self.results[scheme_name]
        )

    def isp_share_timeseries(self, scheme_name: str):
        """Run-averaged ISP share of savings series of a scheme (Fig. 8)."""
        return average_timeseries(
            r.isp_share_of_savings_timeseries() for r in self.results[scheme_name]
        )

    @property
    def scheme_names(self) -> List[str]:
        """Names of the schemes included in the comparison."""
        return list(self.results)
