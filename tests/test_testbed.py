"""Tests for the testbed replay (Sec. 5.3 / Fig. 12)."""

import pytest

from repro.testbed.deployment import (
    Clock,
    GatewayStatusServer,
    TestbedConfig,
    build_testbed_workload,
)
from repro.testbed.replay import TestbedReplay
from repro.traces.synthetic import generate_crawdad_like_trace


@pytest.fixture(scope="module")
def trace():
    return generate_crawdad_like_trace(seed=21, num_clients=80, num_gateways=20, duration=17 * 3600.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TestbedConfig(num_gateways=0)
    with pytest.raises(ValueError):
        TestbedConfig(low_threshold=0.6, high_threshold=0.5)
    assert TestbedConfig().window_duration_s == pytest.approx(1800.0)


def test_build_workload_shapes(trace):
    config = TestbedConfig(window_start_s=15 * 3600.0, window_end_s=15.5 * 3600.0)
    flows, reachable = build_testbed_workload(trace, config, seed=1)
    assert set(flows) == set(range(config.num_gateways))
    assert set(reachable) == set(range(config.num_gateways))
    for terminal, gateways in reachable.items():
        assert terminal in gateways
        assert len(gateways) <= config.max_reachable
    for terminal_flows in flows.values():
        assert all(0 <= f.start_time <= config.window_duration_s for f in terminal_flows)


def test_status_server_lifecycle():
    clock = Clock()
    config = TestbedConfig(idle_timeout_s=60.0, wake_up_time_s=60.0)
    server = GatewayStatusServer(clock, config)
    assert server.status(0) == GatewayStatusServer.SLEEPING
    server.request_wake(0)
    assert server.status(0) == GatewayStatusServer.WAKING
    clock.now = 61.0
    assert server.status(0) == GatewayStatusServer.ACTIVE
    server.report_traffic(0, 1e6)
    clock.now = 200.0
    assert server.status(0) == GatewayStatusServer.SLEEPING


def test_status_server_rejects_traffic_while_sleeping():
    clock = Clock()
    server = GatewayStatusServer(clock, TestbedConfig())
    with pytest.raises(RuntimeError):
        server.report_traffic(0, 100.0)


def test_status_server_load_estimation():
    clock = Clock()
    config = TestbedConfig(adsl_bps=3e6, load_window_s=60.0)
    server = GatewayStatusServer(clock, config)
    server.request_wake(0)
    clock.now = 61.0
    server.report_traffic(0, 0.3 * 3e6 * 60.0)
    assert server.load(0) == pytest.approx(0.3)


def test_replay_bh2_sleeps_more_than_soi(trace):
    replay = TestbedReplay(trace, seed=2)
    results = replay.run_comparison()
    assert set(results) == {"BH2", "SoI"}
    num_gateways = replay.config.num_gateways
    bh2_sleeping = num_gateways - results["BH2"].mean_online()
    soi_sleeping = num_gateways - results["SoI"].mean_online()
    # Fig. 12: BH2 keeps more gateways asleep than plain SoI.
    assert bh2_sleeping >= soi_sleeping - 0.25
    for result in results.values():
        assert len(result.sample_times) == len(result.online_gateways)
        assert all(0 <= count <= num_gateways for count in result.online_gateways)


def test_replay_records_online_time(trace):
    replay = TestbedReplay(trace, seed=4)
    result = replay.run(use_bh2=False)
    assert set(result.gateway_online_seconds) == set(range(replay.config.num_gateways))
    assert result.completed_flows >= 0


def test_replay_pins_fig12_trajectory(trace):
    # The exact Fig. 12 series of this trace: any change to the scheduler's
    # event order or the status server's timing shows up here.
    results = TestbedReplay(trace, seed=2).run_comparison()
    observed = {
        name: (result.online_gateways, result.completed_flows, result.mean_online())
        for name, result in results.items()
    }
    bh2 = [0] + [8] * 5 + [7] * 2 + [6] * 4 + [7] * 11 + [6] * 10 + [5] * 3 + [4] * 4
    bh2 += [5] + [6] * 5 + [7] * 2 + [6] * 5 + [5] * 8
    soi = [0] + [8] * 35 + [7] * 11 + [6] * 12 + [7, 6]
    assert observed == {
        "BH2": (bh2, 2672, pytest.approx(5.9836, abs=1e-4)),
        "SoI": (soi, 2668, pytest.approx(7.2459, abs=1e-4)),
    }
    assert [len(result.sample_times) for result in results.values()] == [61, 61]
