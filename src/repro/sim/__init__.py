"""Discrete-event simulation engine.

simpy is not available in this offline environment, so the package ships a
small, self-contained discrete-event kernel with a simpy-like programming
model: an :class:`Environment` drives generator-based processes that yield
:class:`Timeout` and :class:`Event` objects.

The engine is deliberately minimal but complete enough for the access-network
simulations in :mod:`repro.simulation`: processes, timeouts, one-shot events
and interrupts.
"""

from repro.sim.engine import Environment, Event, Interrupt, SimulationError, Timeout
from repro.sim.process import Process

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
]
