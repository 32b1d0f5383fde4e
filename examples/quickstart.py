#!/usr/bin/env python3
"""Quickstart: simulate one day of a small neighbourhood under every scheme.

Builds a scaled-down version of the paper's evaluation scenario (Sec. 5.1),
runs the five schemes of Fig. 6 and prints the energy savings, the number of
powered gateways and the number of powered DSLAM line cards.
"""

from repro.analysis import figures
from repro.analysis.report import render_summary
from repro.simulation.metrics import summarize_savings


def main() -> None:
    scale = figures.EvaluationScale(
        num_clients=100, num_gateways=16, duration_s=24 * 3600.0, step_s=2.0, seed=7
    )
    comparison = figures.run_evaluation(scale)
    scenario = comparison.scenario
    print(f"scenario: {scenario.num_clients} clients, {scenario.num_gateways} gateways, "
          f"{scenario.dslam.num_line_cards} line cards, "
          f"mean {scenario.topology.mean_reachable():.1f} gateways in range of a client")

    summary = summarize_savings({name: comparison.first(name) for name in comparison.scheme_names})
    print()
    print(render_summary(summary))
    print()
    bh2 = comparison.mean_savings("BH2+k-switch")
    optimal = comparison.mean_savings("Optimal")
    print(f"BH2 + k-switch saves {100 * bh2:.1f}% of the access-network energy; "
          f"the optimal margin is {100 * optimal:.1f}%.")


if __name__ == "__main__":
    main()
