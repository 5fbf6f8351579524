"""The discrete-event engine and generator-based processes.

Scheduling is *time-bucketed*: instead of one heap entry per event (the
classic ``(at, seq, item)`` tuple scheme), the engine keeps a dict of
``absolute_ns -> [item, ...]`` buckets plus a heap of the *distinct*
timestamps.  Workloads dominated by near-future timers — open-loop fleet
traffic, autoscaler ticks, service completions — schedule many events at
few distinct instants, so the heap shrinks by the bucket fan-in factor
and same-timestamp events dispatch as one batch without re-heapifying.

Determinism is unchanged: within a bucket, items append (and dispatch)
in insertion order, which is exactly the ``seq`` tie-break order of the
old per-event heap; across buckets the timestamp heap pops in ascending
time order.  ``tests/sim/test_engine_replay.py`` holds a reference
implementation of the old heap loop and asserts both engines produce
identical event timelines, final clocks and telemetry snapshots.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.obs.telemetry import current as _telemetry
from repro.sim.event import Event

#: Queue-item dispatch kinds.  Ints, not strings: the inner loop compares
#: them millions of times per run.
_TRIGGER = 0
_RESUME = 1
_CALL = 2

_KIND_NAMES = ("trigger", "resume", "call")


class Timeout:
    """A yieldable command asking the engine to sleep *delay* nanoseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = int(delay)


class AllOf:
    """Barrier: resumes when every child event has triggered.

    Yields the list of child values.  Fails fast on the first child failure.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)


class AnyOf:
    """Race: resumes when the first child event triggers, yielding its value."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf needs at least one event")


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator's ``return`` value becomes the process's event value, so
    ``result = yield some_process`` joins it.
    """

    __slots__ = ("engine", "_gen")

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        super().__init__(name or getattr(gen, "__name__", "process"))
        self.engine = engine
        self._gen = gen

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Throw *exc* (default :class:`SimulationError`) into the process."""
        if self.triggered:
            return
        exc = exc or SimulationError(f"process {self.name!r} interrupted")
        self.engine._resume_throw(self, exc)


class Engine:
    """A deterministic event loop over an integer-nanosecond clock.

    Determinism: ties in the event queue break by insertion order, and user
    code must use :mod:`repro.sim.rng` (seeded) for randomness.
    """

    __slots__ = ("_now", "_buckets", "_times", "_size", "_active",
                 "_spawned")

    def __init__(self):
        self._now = 0
        #: absolute ns -> list of queue items, appended in insertion order
        self._buckets: Dict[int, List[Any]] = {}
        #: heap of the distinct timestamps present in ``_buckets``
        self._times: List[int] = []
        #: scheduled-but-not-yet-dispatched item count (queue depth)
        self._size = 0
        self._active = 0
        #: spawns not yet flushed to the hub (batched: one counter update
        #: per run() instead of one per spawn)
        self._spawned = 0
        hub = _telemetry()
        if hub is not None:
            hub.attach_clock(self)

    # --- clock ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # --- scheduling primitives ---------------------------------------------

    def _push(self, at: int, item: Any) -> None:
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [item]
            heappush(self._times, at)
        else:
            bucket.append(item)
        self._size += 1

    def schedule(self, delay: int, event: Event, value: Any = None) -> Event:
        """Trigger *event* with *value* after *delay* nanoseconds."""
        self._push(self._now + int(delay), (_TRIGGER, event, value))
        return event

    def timeout_event(self, delay: int, value: Any = None,
                      name: str = "timeout") -> Event:
        """An event that triggers after *delay* nanoseconds."""
        return self.schedule(delay, Event(name), value)

    def call_at(self, at: int, fn: Callable[[], None]) -> None:
        """Run *fn* when the clock reaches *at* (absolute ns).

        The interposition point used by :mod:`repro.chaos`: a fault
        schedule registers callbacks that mutate fabric/machine state at
        exact simulated instants, deterministically ordered with respect
        to every other queued event (insertion-order tie-break).
        """
        if at < self._now:
            raise SimulationError(
                f"call_at({at}) is in the past (now={self._now})")
        self._push(at, (_CALL, fn))

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process; it runs from the current time."""
        proc = Process(self, gen, name)
        self._active += 1
        self._push(self._now, (_RESUME, proc, None, None))
        if _telemetry() is not None:  # a hub counts the spawns made under it
            self._spawned += 1
        return proc

    def _resume(self, proc: Process, value: Any = None) -> None:
        self._push(self._now, (_RESUME, proc, value, None))

    def _resume_throw(self, proc: Process, exc: BaseException) -> None:
        self._push(self._now, (_RESUME, proc, None, exc))

    # --- process stepping ----------------------------------------------------

    def _step_process(self, proc: Process, value: Any,
                      exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                cmd = proc._gen.throw(exc)
            else:
                cmd = proc._gen.send(value)
        except StopIteration as stop:
            self._active -= 1
            proc.succeed(getattr(stop, "value", None))
            return
        except BaseException as err:  # noqa: BLE001 - propagate via event
            self._active -= 1
            proc.fail(err)
            return
        self._dispatch(proc, cmd)

    def _dispatch(self, proc: Process, cmd: Any) -> None:
        if type(cmd) is Timeout:
            ev = Event("timeout")
            self._push(self._now + cmd.delay, (_TRIGGER, ev, None))
            self._wait(proc, ev)
        elif isinstance(cmd, Event):  # includes Process
            self._wait(proc, cmd)
        elif isinstance(cmd, AllOf):
            self._wait_all(proc, cmd.events)
        elif isinstance(cmd, AnyOf):
            self._wait_any(proc, cmd.events)
        else:
            self._resume_throw(
                proc, SimulationError(f"process yielded {cmd!r}; expected "
                                      "Timeout/Event/AllOf/AnyOf"))

    def _wait(self, proc: Process, ev: Event) -> None:
        def on_fire(fired: Event) -> None:
            if fired._failed is not None:
                self._resume_throw(proc, fired._failed)
            else:
                self._resume(proc, fired._value)

        ev.add_callback(on_fire)

    def _wait_all(self, proc: Process, events: List[Event]) -> None:
        if not events:
            self._resume(proc, [])
            return
        remaining = {"n": len(events)}
        done = {"failed": False}

        def on_fire(_fired: Event) -> None:
            if done["failed"]:
                return
            if _fired.failure is not None:
                done["failed"] = True
                self._resume_throw(proc, _fired.failure)
                return
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._resume(proc, [e._value for e in events])

        for ev in events:
            ev.add_callback(on_fire)

    def _wait_any(self, proc: Process, events: List[Event]) -> None:
        done = {"fired": False}

        def on_fire(fired: Event) -> None:
            if done["fired"]:
                return
            done["fired"] = True
            if fired.failure is not None:
                self._resume_throw(proc, fired.failure)
            else:
                self._resume(proc, fired._value)

        for ev in events:
            ev.add_callback(on_fire)

    # --- main loop -----------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or the clock passes *until* (ns).

        Returns the final simulated time.  The loop tallies dispatches
        per kind and the queue-depth high-water mark; an installed hub
        gets them, with the spawns made under it and simulated time
        advanced, once the run returns — every metric a function of the
        seeded simulation only.
        """
        hub = _telemetry()
        if hub is not None:
            hub.attach_clock(self)
        sim0 = self._now
        dispatched = [0, 0, 0]
        depth_hw = 0
        buckets = self._buckets
        times = self._times
        step = self._step_process
        try:
            while times:
                at = times[0]
                if until is not None and at > until:
                    # the reference loop measured queue depth once more
                    # before aborting on *until*; keep the gauge identical
                    if self._size > depth_hw:
                        depth_hw = self._size
                    self._now = until
                    return until
                if at < self._now:  # pragma: no cover - defensive
                    raise SimulationError("time went backwards")
                heappop(times)
                self._now = at
                bucket = buckets[at]
                i = 0
                # len() re-evaluates: same-instant scheduling appends to
                # the live bucket and those items dispatch in this batch
                while i < len(bucket):
                    item = bucket[i]
                    i += 1
                    if self._size > depth_hw:
                        depth_hw = self._size
                    self._size -= 1
                    kind = item[0]
                    dispatched[kind] += 1
                    if kind == _RESUME:
                        proc = item[1]
                        if not proc._triggered:
                            step(proc, item[2], item[3])
                    elif kind == _TRIGGER:
                        event = item[1]
                        if not event._triggered:
                            event.succeed(item[2])
                    else:
                        item[1]()
                del buckets[at]
            return self._now
        finally:
            if hub is not None:
                if self._spawned:
                    hub.count("sim", "sim.engine", "processes.spawned",
                              self._spawned)
                    self._spawned = 0
                for kind, n in enumerate(dispatched):
                    if n:
                        hub.count("sim", "sim.engine",
                                  f"events.{_KIND_NAMES[kind]}", n)
                if sum(dispatched):
                    hub.count("sim", "sim.engine", "events.dispatched",
                              sum(dispatched))
                hub.gauge_max("sim", "sim.engine", "queue.depth.hw",
                              depth_hw)
                if self._now > sim0:
                    hub.count("sim", "sim.engine", "sim.advanced.ns",
                              self._now - sim0)

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn *gen*, run to completion, and return its result."""
        proc = self.spawn(gen, name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} deadlocked (queue drained)")
        return proc.value
