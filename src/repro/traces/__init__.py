"""Traffic trace substrate.

The paper's evaluation replays the CRAWDAD UCSD wireless traces (272 clients
over 40 access points during 24 hours) and characterises a 10 K-subscriber
commercial ADSL dataset.  Neither dataset can be shipped here, so this
package provides seeded synthetic generators that reproduce the published
aggregate statistics (diurnal utilisation shape, continuous light traffic,
inter-packet-gap distribution) together with the analysis utilities used by
the figures and the simulator.
"""

from repro.traces.models import Flow, ClientTrace, WirelessTrace, TraceStats
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator, generate_crawdad_like_trace
from repro.traces.adsl import AdslPopulationConfig, AdslUtilizationModel, diurnal_profile
from repro.traces.analysis import (
    busy_intervals,
    gap_histogram,
    idle_gaps,
    utilization_timeseries,
)

__all__ = [
    "Flow",
    "ClientTrace",
    "WirelessTrace",
    "TraceStats",
    "SyntheticTraceConfig",
    "SyntheticTraceGenerator",
    "generate_crawdad_like_trace",
    "AdslPopulationConfig",
    "AdslUtilizationModel",
    "diurnal_profile",
    "busy_intervals",
    "idle_gaps",
    "gap_histogram",
    "utilization_timeseries",
]
