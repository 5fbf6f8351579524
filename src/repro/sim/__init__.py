"""Deterministic discrete-event simulation kernel.

The engine drives generator-based processes over an integer-nanosecond
clock.  Processes ``yield`` commands:

* :class:`Timeout` — sleep for a duration,
* :class:`Event` — wait until the event is triggered,
* :class:`AllOf` / :class:`AnyOf` — barrier / race over events,
* another :class:`Process` — join it (a process is itself an event).

Sequential composition of sub-coroutines uses plain ``yield from``.
"""

from repro.sim.engine import Engine, Process, Timeout, AllOf, AnyOf
from repro.sim.event import Event
from repro.sim.resources import Resource, Store
