"""Wireless channel model between clients and gateways.

The evaluation scenario of the paper assigns 12 Mbps between a client and
its home gateway and 6 Mbps between a client and neighbouring gateways
(based on the Mark-and-Sweep measurements of [40]).  The testbed section
additionally reports that the wireless capacity always exceeds the ADSL
backhaul, so the backhaul is the bottleneck; this module still models the
wireless hop explicitly so that scenarios where the wireless link *is* the
bottleneck (distant neighbours, many gateways sharing a channel) behave
correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class WirelessLink:
    """Capacity of the wireless hop between one client and one gateway."""

    client_id: int
    gateway_id: int
    capacity_bps: float
    is_home: bool

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")


class WirelessChannel:
    """Holds the client↔gateway wireless capacities of a deployment.

    Capacities default to the paper's 12 Mbps (home) / 6 Mbps (neighbour)
    figures; an optional log-normal shadowing term perturbs them per link so
    that sensitivity experiments can explore heterogeneous environments.
    """

    def __init__(
        self,
        home_capacity_bps: float = 12e6,
        neighbour_capacity_bps: float = 6e6,
        shadowing_sigma_db: float = 0.0,
        seed: int = 0,
        min_capacity_bps: float = 1e5,
    ):
        if home_capacity_bps <= 0 or neighbour_capacity_bps <= 0:
            raise ValueError("capacities must be positive")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        self.home_capacity_bps = home_capacity_bps
        self.neighbour_capacity_bps = neighbour_capacity_bps
        self.shadowing_sigma_db = shadowing_sigma_db
        self.min_capacity_bps = min_capacity_bps
        self._rng = np.random.default_rng(seed)
        self._cache: Dict[Tuple[int, int], float] = {}

    def link(self, client_id: int, gateway_id: int, is_home: bool) -> WirelessLink:
        """The wireless link between ``client_id`` and ``gateway_id``."""
        return WirelessLink(
            client_id=client_id,
            gateway_id=gateway_id,
            capacity_bps=self.capacity(client_id, gateway_id, is_home),
            is_home=is_home,
        )

    def capacity(self, client_id: int, gateway_id: int, is_home: bool) -> float:
        """Capacity of the wireless hop in bits per second.

        Deterministic per (client, gateway) pair: the shadowing draw is
        cached so repeated queries are consistent within a run.
        """
        key = (client_id, gateway_id)
        if key not in self._cache:
            base = self.home_capacity_bps if is_home else self.neighbour_capacity_bps
            if self.shadowing_sigma_db > 0:
                # Log-normal shadowing expressed in dB around the base rate.
                gain_db = self._rng.normal(0.0, self.shadowing_sigma_db)
                base = base * 10 ** (gain_db / 10.0)
            self._cache[key] = max(self.min_capacity_bps, base)
        return self._cache[key]
