"""Tests for the k-switch model (Eq. 2) and packing machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.kswitch import (
    KSwitchBank,
    card_sleep_probability_exact,
    card_sleep_probability_paper,
    expected_sleeping_cards,
    simulate_card_sleep_probability,
)


def test_eq2_matches_paper_shape():
    # Fig. 5 (middle): m=24, p=0.5 — the first card of an 8-switch batch has a
    # high probability of sleeping, later cards a rapidly decreasing one.
    first = card_sleep_probability_paper(1, 8, 24, 0.5)
    fourth = card_sleep_probability_paper(4, 8, 24, 0.5)
    assert first > 0.85
    assert fourth < first


def test_probability_decreases_with_card_index():
    for fn in (card_sleep_probability_paper, card_sleep_probability_exact):
        values = [fn(l, 8, 24, 0.25) for l in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_probability_increases_when_lines_less_active():
    for fn in (card_sleep_probability_paper, card_sleep_probability_exact):
        assert fn(2, 4, 24, 0.25) >= fn(2, 4, 24, 0.5)


def test_exact_first_card_formula():
    # Card 1 sleeps iff every switch has at least one inactive line.
    k, m, p = 4, 12, 0.5
    expected = (1.0 - p ** k) ** m
    assert card_sleep_probability_exact(1, k, m, p) == pytest.approx(expected)
    assert card_sleep_probability_paper(1, k, m, p) == pytest.approx(expected)


def test_degenerate_probabilities():
    assert card_sleep_probability_exact(1, 4, 24, 0.0) == pytest.approx(1.0)
    assert card_sleep_probability_exact(1, 4, 24, 1.0) == pytest.approx(0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        card_sleep_probability_paper(0, 4, 24, 0.5)
    with pytest.raises(ValueError):
        card_sleep_probability_paper(5, 4, 24, 0.5)
    with pytest.raises(ValueError):
        card_sleep_probability_exact(1, 4, 24, 1.5)


def test_monte_carlo_matches_exact():
    k, m, p = 4, 12, 0.4
    simulated = simulate_card_sleep_probability(k, m, p, trials=3000, seed=1)
    for l in range(1, k + 1):
        assert simulated[l - 1] == pytest.approx(card_sleep_probability_exact(l, k, m, p), abs=0.05)


def test_expected_sleeping_cards_bounds():
    expected = expected_sleeping_cards(4, 24, 0.25)
    assert 0.0 <= expected <= 4.0


@given(
    k=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_exact_probability_is_a_probability(k, m, p):
    for l in range(1, k + 1):
        value = card_sleep_probability_exact(l, k, m, p)
        assert 0.0 <= value <= 1.0


@given(
    k=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=40, deadline=None)
def test_bigger_switches_never_hurt_the_first_card(k, m, p):
    smaller = card_sleep_probability_exact(1, k, m, p)
    bigger = card_sleep_probability_exact(1, k + 1, m, p)
    assert bigger >= smaller - 1e-12


def test_kswitch_bank_packs_inactive_lines_low():
    bank = KSwitchBank(k=4, num_ports_per_card=3, line_ids=list(range(12)))
    active = {line: line % 4 == 0 for line in range(12)}  # one active line per switch
    assignment = bank.pack(active)
    # Every switch has exactly one active line, so only the last card hosts active lines.
    assert assignment.cards_with_active_lines == frozenset({3})


def test_kswitch_bank_all_active_keeps_all_cards_awake():
    bank = KSwitchBank(k=2, num_ports_per_card=2, line_ids=[0, 1, 2, 3])
    assignment = bank.pack({0: True, 1: True, 2: True, 3: True})
    assert assignment.cards_with_active_lines == frozenset({0, 1})


def test_kswitch_bank_missing_lines_treated_inactive():
    bank = KSwitchBank(k=2, num_ports_per_card=1, line_ids=[0, 1])
    assert bank.pack({}).cards_with_active_lines == frozenset()


def test_kswitch_bank_validation():
    with pytest.raises(ValueError):
        KSwitchBank(k=0, num_ports_per_card=1, line_ids=[])
    with pytest.raises(ValueError):
        KSwitchBank(k=1, num_ports_per_card=1, line_ids=[0, 1])
    with pytest.raises(ValueError):
        KSwitchBank(k=2, num_ports_per_card=2, line_ids=[0, 0])


@given(p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_packing_never_loses_lines(p, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    lines = list(range(12))
    bank = KSwitchBank(k=4, num_ports_per_card=3, line_ids=lines)
    active = {line: bool(rng.random() < p) for line in lines}
    assignment = bank.pack(active)
    assert set(assignment.line_to_card) == set(lines)
    assert all(0 <= card < 4 for card in assignment.line_to_card.values())
