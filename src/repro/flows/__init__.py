"""Flow-level transfer model.

The simulator replays traces at flow granularity (as the paper's testbed
does): each flow is a downlink transfer of a fixed number of bytes routed
through whichever gateway its client is attached to at arrival time.  This
package tracks flow progress under max-min fair sharing of each gateway's
ADSL backhaul, capped by the wireless hop, and records completion times for
the QoS analysis of Fig. 9a.
"""

from repro.flows.flow import ActiveFlow, FlowRecord
from repro.flows.scheduler import FlowScheduler

__all__ = ["ActiveFlow", "FlowRecord", "FlowScheduler"]
