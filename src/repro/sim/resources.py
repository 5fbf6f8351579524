"""Contention primitives: counting resources and FIFO stores."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine, Timeout
from repro.sim.event import Event


class Resource:
    """A counting semaphore with FIFO queueing (e.g. CPU cores, NIC engines).

    Usage inside a process::

        yield resource.acquire()
        try:
            yield Timeout(work_ns)
        finally:
            resource.release()
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        ev = Event(f"{self.name}.acquire")
        if self._in_use < self.capacity:
            self._in_use += 1
            self.engine.schedule(0, ev)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            ev = self._waiters.popleft()
            self.engine.schedule(0, ev)
        else:
            self._in_use -= 1

    def use(self, duration: int) -> Generator:
        """Sub-coroutine: acquire, hold for *duration* ns, release."""
        yield self.acquire()
        try:
            yield Timeout(duration)
        finally:
            self.release()


class Store:
    """An unbounded FIFO queue of items; ``get`` blocks until one arrives."""

    def __init__(self, engine: Engine, name: str = "store"):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest blocked getter."""
        if self._getters:
            ev = self._getters.popleft()
            self.engine.schedule(0, ev, item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event delivering the next item."""
        ev = Event(f"{self.name}.get")
        if self._items:
            self.engine.schedule(0, ev, self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None
