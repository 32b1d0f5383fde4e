"""Wireless substrate: client↔gateway channel capacities.

BH2 relies on wireless-card virtualisation, sequence-number load
estimation and ordinary data transfer through the selected gateway (Sec.
3.2 of the paper).  The kernels read exact gateway utilisation, so this
package models only what they consume: the capacity of each wireless hop.
"""

from repro.wireless.channel import WirelessChannel, WirelessLink

__all__ = ["WirelessChannel", "WirelessLink"]
