"""Physical invariants of the kernel on generated fleet and churn runs.

The seed kernel has no fleets and no churn, so the kernel paths that
serve them cannot be held to it.  Every run here must instead satisfy
the accounting identities of the flow model and the energy ledger:

* every trace arrival admitted so far is completed, dropped, suppressed
  or still in flight;
* the per-interval energy series sum to the breakdown's totals;
* no energy category is negative.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.schemes import all_schemes
from repro.simulation.simulator import AccessNetworkSimulator
from repro.sweep.catalog import ScenarioSpec

SCHEMES = list(all_schemes().values())


@settings(max_examples=8, deadline=None)
@given(
    fleet=st.sampled_from(["homogeneous", "tri-mix"]),
    churn=st.sampled_from(
        ["none", "midday-dropout", "dslam-outage", "subscriber-churn"]
    ),
    step_s=st.sampled_from([2.0, 5.0]),
    seed=st.integers(min_value=0, max_value=40),
)
# Pinned cases that drop flows (a DSLAM outage) and suppress arrivals
# (subscriber churn), whatever the generated ones hit.
@example(fleet="tri-mix", churn="dslam-outage", step_s=5.0, seed=0)
@example(fleet="tri-mix", churn="subscriber-churn", step_s=5.0, seed=0)
def test_generated_runs_keep_flow_and_energy_accounts(fleet, churn, step_s, seed):
    scenario = ScenarioSpec(
        label="invariants", num_clients=16, num_gateways=6, duration_s=3600.0,
        profile="office", trace_overrides=(("peak_online_probability", 0.9),),
        fleet=fleet, churn=churn, seed=seed,
    ).build()
    for scheme in SCHEMES:
        simulator = AccessNetworkSimulator(
            scenario=scenario, scheme=scheme, step_s=step_s, seed=seed
        )
        result = simulator.run(until=2000.0)
        assert simulator._arrival_index == (
            len(result.flow_records)
            + result.dropped_flows
            + result.suppressed_arrivals
            + len(simulator.scheduler.active_flows)
        ), scheme.name
        energy = result.energy
        assert result.energy_series_total_j.sum() == pytest.approx(
            energy.total_j, rel=1e-9
        ), scheme.name
        assert result.energy_series_isp_j.sum() == pytest.approx(
            energy.isp_side_j, rel=1e-9
        ), scheme.name
        negative = {
            category: joules
            for category, joules in energy.per_category_j.items()
            if joules < 0
        }
        assert not negative, (scheme.name, negative)
