"""Tests for the wireless substrate."""

import pytest

from repro.wireless.channel import WirelessChannel


def test_channel_default_capacities():
    channel = WirelessChannel()
    assert channel.capacity(0, 1, is_home=True) == pytest.approx(12e6)
    assert channel.capacity(0, 2, is_home=False) == pytest.approx(6e6)


def test_channel_capacity_is_cached_per_pair():
    channel = WirelessChannel(shadowing_sigma_db=3.0, seed=1)
    first = channel.capacity(0, 1, is_home=False)
    second = channel.capacity(0, 1, is_home=False)
    assert first == second


def test_channel_shadowing_varies_across_pairs():
    channel = WirelessChannel(shadowing_sigma_db=4.0, seed=1)
    values = {channel.capacity(0, g, is_home=False) for g in range(10)}
    assert len(values) > 1
