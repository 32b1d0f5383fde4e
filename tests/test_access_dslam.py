"""Tests for the DSLAM model and HDF switching."""

import pytest

from repro.access.dslam import Dslam, SwitchingMode
from repro.topology.scenario import DslamConfig


def make_dslam(mode=None, switch_size=4, full=False, num_lines=10):
    config = DslamConfig(num_line_cards=4, ports_per_card=3, switch_size=switch_size, full_switch=full)
    ports = {line: line for line in range(num_lines)}
    return Dslam(config, ports, mode=mode)


def test_mode_derivation_from_config():
    assert SwitchingMode.from_config(DslamConfig(switch_size=None)) is SwitchingMode.FIXED
    assert SwitchingMode.from_config(DslamConfig(switch_size=4)) is SwitchingMode.KSWITCH
    assert SwitchingMode.from_config(DslamConfig(switch_size=None, full_switch=True)) is SwitchingMode.FULL


def test_card_of_port_and_line():
    dslam = make_dslam(switch_size=None)
    assert dslam.card_of_port(0) == 0
    assert dslam.card_of_port(11) == 3
    with pytest.raises(ValueError):
        dslam.card_of_port(99)


def test_duplicate_ports_rejected():
    config = DslamConfig(num_line_cards=2, ports_per_card=2, switch_size=None)
    with pytest.raises(ValueError):
        Dslam(config, {0: 0, 1: 0})


def test_fixed_mode_never_rewires():
    dslam = make_dslam(switch_size=None)
    before = dict(dslam.line_port)
    dslam.rewire({line: True for line in before})
    assert dslam.line_port == before


def test_online_cards_counts_cards_with_active_lines():
    dslam = make_dslam(switch_size=None)
    # Lines 0-2 are on card 0, lines 3-5 on card 1, ...
    assert dslam.online_cards([0, 1]) == {0}
    assert len(dslam.online_cards([0, 3, 9])) == 3
    assert len(dslam.online_cards([])) == 0


def test_kswitch_packs_active_lines_onto_few_cards():
    dslam = make_dslam(switch_size=4)
    active = {line: line in (0, 1, 2) for line in range(10)}
    dslam.rewire(active)
    online = dslam.online_cards([0, 1, 2])
    # Three active lines can share a single card after packing (3 ports per card).
    assert len(online) == 1


def test_kswitch_respects_pinned_active_lines():
    dslam = make_dslam(switch_size=4)
    # First pack with lines 0..5 active so they land on high cards.
    active = {line: line < 6 for line in range(10)}
    dslam.rewire(active)
    cards_before = {line: dslam.card_of_line(line) for line in range(6)}
    # Now only lines 0..2 stay active and are NOT movable: their cards must not change.
    active = {line: line < 3 for line in range(10)}
    movable = {line for line in range(10) if line >= 3}
    dslam.rewire(active, movable)
    for line in range(3):
        assert dslam.card_of_line(line) == cards_before[line]


def test_full_switch_packs_minimally():
    dslam = make_dslam(full=True, switch_size=None)
    active_lines = [0, 4, 8, 9]
    dslam.rewire({line: line in active_lines for line in range(10)})
    assert len(dslam.online_cards(active_lines)) == 2  # ceil(4 active / 3 ports)


def test_full_switch_with_pinned_lines():
    dslam = make_dslam(full=True, switch_size=None)
    line_cards_before = {line: dslam.card_of_line(line) for line in range(10)}
    active = {line: line in (0, 9) for line in range(10)}
    # Line 0 is active and may not be moved; everything else may.
    dslam.rewire(active, movable=set(range(1, 10)))
    assert dslam.card_of_line(0) == line_cards_before[0]
    # Line 9 moved next to line 0 so a single card suffices.
    assert len(dslam.online_cards([0, 9])) == 1


def test_rewire_keeps_unique_ports():
    dslam = make_dslam(switch_size=4)
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(20):
        active = {line: bool(rng.random() < 0.5) for line in range(10)}
        movable = {line for line, a in active.items() if not a}
        dslam.rewire(active, movable)
        ports = list(dslam.line_port.values())
        assert len(set(ports)) == len(ports)
        assert all(0 <= p < dslam.config.total_ports for p in ports)
