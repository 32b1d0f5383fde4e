"""Tests for the trace analysis utilities (Figs. 2-4 machinery)."""

import numpy as np
import pytest

from repro.traces.adsl import AdslPopulationConfig, AdslUtilizationModel, diurnal_profile
from repro.traces.analysis import (
    FIGURE4_BIN_LABELS,
    busy_intervals,
    fraction_of_idle_below,
    gap_histogram,
    idle_gaps,
    peak_hour,
    utilization_timeseries,
)
from repro.traces.models import ClientTrace, Flow, WirelessTrace


def flows(spec):
    return [Flow(flow_id=i, client_id=0, start_time=s, size_bytes=b) for i, (s, b) in enumerate(spec)]


def test_busy_intervals_single_flow():
    intervals = busy_intervals(flows([(0.0, 750_000)]), backhaul_bps=6e6)
    assert intervals == [(0.0, pytest.approx(1.0))]


def test_busy_intervals_back_to_back_flows_merge():
    intervals = busy_intervals(flows([(0.0, 750_000), (0.5, 750_000)]), backhaul_bps=6e6)
    assert len(intervals) == 1
    assert intervals[0][1] == pytest.approx(2.0)


def test_busy_intervals_requires_positive_rate():
    with pytest.raises(ValueError):
        busy_intervals(flows([(0.0, 100)]), backhaul_bps=0.0)


def test_idle_gaps_between_flows():
    gaps = idle_gaps(flows([(0.0, 750_000), (11.0, 750_000)]), backhaul_bps=6e6, window=(0.0, 20.0))
    assert gaps == [pytest.approx(10.0), pytest.approx(8.0)]


def test_idle_gaps_empty_flows_with_window():
    gaps = idle_gaps([], backhaul_bps=6e6, window=(0.0, 30.0))
    assert gaps == [pytest.approx(30.0)]


def test_gap_histogram_fractions_sum_to_100():
    histogram = gap_histogram([0.5, 2.0, 30.0, 120.0])
    assert sum(histogram) == pytest.approx(100.0)
    assert len(histogram) == len(FIGURE4_BIN_LABELS)


def test_gap_histogram_assigns_to_correct_bins():
    histogram = gap_histogram([0.5, 100.0])
    assert histogram[0] == pytest.approx(100.0 * 0.5 / 100.5)
    assert histogram[-1] == pytest.approx(100.0 * 100.0 / 100.5)


def test_gap_histogram_empty():
    assert gap_histogram([]) == [0.0] * (len(FIGURE4_BIN_LABELS))


def test_fraction_of_idle_below():
    assert fraction_of_idle_below([10.0, 30.0, 60.0], 60.0) == pytest.approx(0.4)
    assert fraction_of_idle_below([], 60.0) == 0.0


def make_trace(spec, num_gateways=2, duration=7200.0):
    clients = {}
    home = {}
    flow_id = 0
    for client, (gateway, flow_spec) in spec.items():
        fs = []
        for start, size in flow_spec:
            fs.append(Flow(flow_id=flow_id, client_id=client, start_time=start, size_bytes=size))
            flow_id += 1
        clients[client] = ClientTrace(client_id=client, flows=fs)
        home[client] = gateway
    return WirelessTrace(duration=duration, clients=clients, home_gateway=home, num_gateways=num_gateways)


def test_utilization_timeseries_simple():
    # 2.7 MB in the first hour on gateway 0 at 6 Mbps = 0.1 % of an hour's capacity.
    trace = make_trace({0: (0, [(0.0, 2_700_000)])})
    series = utilization_timeseries(trace, backhaul_bps=6e6, bin_seconds=3600.0)
    per_gateway_avg = series["utilization_percent"]
    assert per_gateway_avg[0] == pytest.approx(0.1 / 2, rel=1e-3)  # averaged over 2 gateways
    assert per_gateway_avg[1] == pytest.approx(0.0)


def test_utilization_timeseries_per_gateway_shape():
    trace = make_trace({0: (0, [(0.0, 1000)]), 1: (1, [(3700.0, 1000)])})
    series = utilization_timeseries(trace, per_gateway=True)
    assert series["per_gateway_percent"].shape == (2, 2)


def test_peak_hour_detection():
    trace = make_trace({0: (0, [(10.0, 1000), (3600.0 + 10.0, 50_000_000)])})
    assert peak_hour(trace) == 1


def test_adsl_model_daily_curves():
    model = AdslUtilizationModel(AdslPopulationConfig(num_subscribers=500, seed=1))
    data = model.figure2_data()
    assert len(data["avg_downlink_percent"]) == 24
    # Fig. 2: the average stays below ~10 % and the median is far smaller.
    assert max(data["avg_downlink_percent"]) < 12.0
    assert max(data["median_downlink_percent"]) < max(data["avg_downlink_percent"])
    # Uplink is lighter than downlink.
    assert np.mean(data["avg_uplink_percent"]) < np.mean(data["avg_downlink_percent"])


def test_adsl_model_peak_is_in_the_evening():
    model = AdslUtilizationModel(AdslPopulationConfig(num_subscribers=500, seed=1))
    averages, _ = model.daily_curves()
    assert 18 <= int(np.argmax(averages)) <= 23


def test_adsl_average_plan_speed_near_6mbps():
    model = AdslUtilizationModel(AdslPopulationConfig(num_subscribers=2000, seed=2))
    assert 4e6 <= float(np.mean(model.downlink_plan)) <= 9e6


def test_diurnal_profile_wraps():
    assert diurnal_profile(24) == diurnal_profile(0)


def test_adsl_config_validation():
    with pytest.raises(ValueError):
        AdslPopulationConfig(num_subscribers=0)
    with pytest.raises(ValueError):
        AdslPopulationConfig(downlink_plan_weights=(1.0,))
