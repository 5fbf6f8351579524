"""Placement, container caching and autoscaling across pods."""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.kernel.machine import Machine
from repro.obs.telemetry import current as _telemetry
from repro.platform.container import (STATE_BUSY, STATE_DEAD, STATE_IDLE,
                                      Container)
from repro.platform.dag import FunctionSpec
from repro.platform.planner import VmPlan
from repro.sim.engine import Engine, Timeout
from repro.sim.event import Event
from repro.units import CostModel, seconds


class Scheduler:
    """Gives the coordinator containers to run functions in.

    Implements the caching behaviour the paper leans on (Section 4.2):
    after an invocation the container stays warm for ``cache_ttl_ns``;
    a warm hit costs ``container_warmstart_ns``, a miss pays the cold-start
    penalty.  Placement is least-loaded across machines with a per-machine
    container cap (a pod-per-core approximation of the Knative testbed).
    """

    def __init__(self, engine: Engine, machines: List[Machine],
                 cost: CostModel, containers_per_machine: int = 24,
                 cache_ttl_ns: int = seconds(600)):
        self.engine = engine
        self.machines = machines
        self.cost = cost
        self.containers_per_machine = containers_per_machine
        self.cache_ttl_ns = cache_ttl_ns
        # warm pool: (workflow, function, slot-index) -> containers
        self._pool: Dict[Tuple[str, str, int], List[Container]] = \
            defaultdict(list)
        self._per_machine_count: Dict[str, int] = defaultdict(int)
        self._capacity_waiters: Deque[Event] = deque()
        # activity listeners (e.g. the autoscaler), called with the
        # container on every acquire and release
        self.listeners: List = []
        self.cold_starts = 0
        self.warm_starts = 0
        self.fork_starts = 0
        self.fork_fallbacks = 0
        #: set by :meth:`enable_fork`; None means the fork path is off
        self.fork_manager = None

    def enable_fork(self):
        """Turn on the remote-fork scale-up path (see :mod:`repro.fork`).

        With a manager installed, ``acquire`` tries to fork a running
        same-slot container onto the placement machine before paying a
        cold start.  Returns the :class:`~repro.fork.source.ForkManager`.
        """
        from repro.fork.source import ForkManager
        if self.fork_manager is None:
            self.fork_manager = ForkManager()
        return self.fork_manager

    def _notify(self, container: Container) -> None:
        for listener in self.listeners:
            listener(container)

    def _observe_pods(self, hub) -> None:
        in_use = self.containers_in_use()
        hub.gauge("cluster", "platform", "pods.in_use", in_use)
        hub.gauge_max("cluster", "platform", "pods.in_use.hw", in_use)
        hub.gauge("cluster", "platform", "pods.alive",
                  self.containers_alive())
        if self.fork_manager is not None:
            hub.gauge("cluster", "platform", "pods.fork_backed",
                      self.fork_manager.fork_backed(
                          self.pooled_containers()))

    # -- capacity accounting -----------------------------------------------------

    def total_capacity(self) -> int:
        return self.containers_per_machine * len(self.machines)

    def containers_in_use(self) -> int:
        return sum(1 for pool in self._pool.values()
                   for c in pool if c.state != STATE_IDLE)

    def containers_alive(self) -> int:
        return sum(len(pool) for pool in self._pool.values())

    def busy_containers(self) -> List[Container]:
        """Pods currently executing an invocation, in a stable order
        (the deterministic victim pool for OOM-kill injection)."""
        busy = [c for pool in self._pool.values()
                for c in pool if c.state == STATE_BUSY]
        busy.sort(key=lambda c: c.name)
        return busy

    def pooled_containers(self) -> List[Container]:
        """Every pod the scheduler currently tracks (frame audits)."""
        return [c for pool in self._pool.values() for c in pool]

    def utilization(self) -> float:
        """Busy pods over total cluster pod capacity, at this instant."""
        capacity = self.total_capacity()
        return self.containers_in_use() / capacity if capacity else 0.0

    def stats(self) -> Dict[str, object]:
        """A JSON-ready point-in-time view (fleet/CLI read-back)."""
        return {
            "machines": len(self.machines),
            "machines_alive": sum(1 for m in self.machines if m.alive),
            "capacity": self.total_capacity(),
            "containers_alive": self.containers_alive(),
            "containers_in_use": self.containers_in_use(),
            "utilization": round(self.utilization(), 6),
            "cold_starts": self.cold_starts,
            "warm_starts": self.warm_starts,
            "fork_starts": self.fork_starts,
            "fork_fallbacks": self.fork_fallbacks,
            "capacity_waiters": len(self._capacity_waiters),
        }

    def reset_starts(self) -> None:
        """Zero every start-mode counter (post-prewarm measurement reset)."""
        self.cold_starts = 0
        self.warm_starts = 0
        self.fork_starts = 0
        self.fork_fallbacks = 0

    def _least_loaded_machine(self) -> Optional[Machine]:
        best, best_count = None, None
        for machine in self.machines:
            if not machine.alive:
                continue
            count = self._per_machine_count[machine.mac_addr]
            if count >= self.containers_per_machine:
                continue
            if best is None or count < best_count:
                best, best_count = machine, count
        return best

    # -- acquisition (a sub-coroutine run inside the coordinator process) -------

    def acquire(self, workflow_name: str, spec: FunctionSpec, index: int,
                plan: VmPlan):
        """Sub-coroutine yielding a ready :class:`Container`.

        Prefers a warm cached container (same slot -> same planned range,
        so rmap stays conflict-free); otherwise cold-starts one on the
        least-loaded machine, waiting for capacity if the cluster is full.
        """
        key = (workflow_name, spec.name, index)
        while True:
            container = self._take_idle(key)
            if container is not None:
                self.warm_starts += 1
                container.acquire(self.engine.now)  # claim before yielding
                self._notify(container)
                hub = _telemetry()
                if hub is not None:
                    hub.count("cluster", "platform", "pods.warm_starts")
                    self._observe_pods(hub)
                yield Timeout(self.cost.container_warmstart_ns)
                return container
            machine = self._least_loaded_machine()
            if machine is None:
                self._evict_one_idle()
                machine = self._least_loaded_machine()
            if machine is None:
                # cluster full and busy: block until a release signals
                waiter = Event("capacity-wait")
                self._capacity_waiters.append(waiter)
                yield waiter
                continue
            if self.fork_manager is not None:
                container = yield from self._fork_acquire(key, machine,
                                                          spec, index, plan)
                if container is not None:
                    return container
                if not machine.alive:
                    continue  # placement target died mid-fork; re-place
            break
        self.cold_starts += 1
        self._per_machine_count[machine.mac_addr] += 1
        yield Timeout(self.cost.container_coldstart_ns)
        container = Container(machine, spec, plan.slot(spec.name, index))
        self._pool[key].append(container)
        container.acquire(self.engine.now)
        self._notify(container)
        hub = _telemetry()
        if hub is not None:
            hub.count("cluster", "platform", "pods.cold_starts")
            self._observe_pods(hub)
        return container

    def _fork_acquire(self, key, machine: Machine, spec: FunctionSpec,
                      index: int, plan: VmPlan):
        """Sub-coroutine: try to remote-fork a same-slot child onto
        *machine*; returns the ready container, or ``None`` to fall back
        to a cold start (no usable source, or a machine died inside the
        fork window).  Fallbacks are exactly-once: each failed attempt
        bumps ``fork_fallbacks`` a single time and leaves no partial
        pool/count state behind.
        """
        from repro.errors import ForkFailed
        from repro.fork.remote import remote_fork
        manager = self.fork_manager
        source = manager.source_for(key, self._pool[key])
        if source is None:
            return None
        # reserve the placement slot before yielding, like the cold path
        self._per_machine_count[machine.mac_addr] += 1
        incarnation = machine.incarnation
        try:
            child = remote_fork(source, machine, spec,
                                plan.slot(spec.name, index))
        except ForkFailed:
            self._per_machine_count[machine.mac_addr] -= 1
            self._fork_fell_back()
            return None
        # the fork's exact cost (auth RPC + QP connect + PTE fetch +
        # working-set pull) was charged to the child's ledger; make it
        # the readiness latency
        yield Timeout(child.space.ledger.total())
        if not machine.alive or machine.incarnation != incarnation:
            # target machine died mid-fork; machine_failed already zeroed
            # its per-machine count, so don't decrement
            child.mark_dead()
            self._fork_fell_back()
            return None
        if not source.usable():
            # source machine died mid-pull: the pages never arrived
            child.destroy()
            self._per_machine_count[machine.mac_addr] -= 1
            self._fork_fell_back()
            return None
        self.fork_starts += 1
        manager.forks += 1
        self._pool[key].append(child)
        child.acquire(self.engine.now)
        self._notify(child)
        hub = _telemetry()
        if hub is not None:
            hub.count("cluster", "platform", "pods.fork_starts")
            self._observe_pods(hub)
        return child

    def _fork_fell_back(self) -> None:
        """Count one failed fork attempt; the caller cold-starts."""
        self.fork_fallbacks += 1
        hub = _telemetry()
        if hub is not None:
            hub.count("cluster", "platform", "pods.fork_fallbacks")

    def _signal_capacity(self) -> None:
        if self._capacity_waiters:
            self.engine.schedule(0, self._capacity_waiters.popleft())

    def _take_idle(self, key) -> Optional[Container]:
        now = self.engine.now
        for container in self._pool[key]:
            if container.state != STATE_IDLE:
                continue
            if container.cached_since is not None and \
                    now - container.cached_since > self.cache_ttl_ns:
                continue  # stale; will be evicted lazily
            return container
        return None

    def release(self, container: Container) -> None:
        if container.state == STATE_DEAD:
            # died (crash/OOM injection) while the invocation held it; its
            # slot was already reclaimed by machine_failed/kill_container
            self._signal_capacity()
            return
        container.release(self.engine.now)
        container.reset_heap()
        self._signal_capacity()
        self._notify(container)
        hub = _telemetry()
        if hub is not None:
            self._observe_pods(hub)

    # -- failure handling (repro.chaos) -------------------------------------------

    def machine_failed(self, machine: Machine) -> int:
        """Deschedule every pod on a dead machine.

        The containers' frames died with the machine's memory, so they are
        marked dead rather than torn down; capacity waiters are woken so
        queued work reschedules onto the survivors.  Returns the number of
        pods lost.
        """
        lost = 0
        for key in list(self._pool):
            for container in list(self._pool[key]):
                if container.machine is not machine:
                    continue
                self._pool[key].remove(container)
                container.mark_dead()
                lost += 1
            if not self._pool[key]:
                del self._pool[key]
        self._per_machine_count[machine.mac_addr] = 0
        if self.fork_manager is not None:
            self.fork_manager.machine_failed(machine)
        for _ in range(lost):
            self._signal_capacity()
        if lost:
            hub = _telemetry()
            if hub is not None:
                hub.count("cluster", "platform", "pods.lost", lost)
                self._observe_pods(hub)
        return lost

    def kill_container(self, container: Container,
                       reason: str = "oom-kill") -> bool:
        """OOM-kill one pod (machine survives); frees its frames."""
        for key in list(self._pool):
            if container in self._pool[key]:
                self._pool[key].remove(container)
                if not self._pool[key]:
                    del self._pool[key]
                self._per_machine_count[container.machine.mac_addr] -= 1
                container.kill(reason)
                self._signal_capacity()
                hub = _telemetry()
                if hub is not None:
                    hub.count("cluster", "platform", "pods.killed")
                    self._observe_pods(hub)
                return True
        return False

    # -- eviction -----------------------------------------------------------------

    def _evict_one_idle(self) -> bool:
        oldest_key, oldest = None, None
        for key, pool in self._pool.items():
            for c in pool:
                if c.state != STATE_IDLE:
                    continue
                if oldest is None or (c.cached_since or 0) < \
                        (oldest.cached_since or 0):
                    oldest_key, oldest = key, c
        if oldest is None:
            return False
        self._destroy(oldest_key, oldest)
        return True

    def evict_expired(self) -> int:
        """Drop idle containers whose cache TTL lapsed; returns count."""
        now = self.engine.now
        evicted = 0
        for key in list(self._pool):
            for c in list(self._pool[key]):
                if c.state == STATE_IDLE and c.cached_since is not None \
                        and now - c.cached_since > self.cache_ttl_ns:
                    self._destroy(key, c)
                    evicted += 1
        return evicted

    def _destroy(self, key, container: Container) -> None:
        self._pool[key].remove(container)
        self._per_machine_count[container.machine.mac_addr] -= 1
        container.destroy()
        if not self._pool[key]:
            del self._pool[key]
        self._signal_capacity()
        hub = _telemetry()
        if hub is not None:
            hub.count("cluster", "platform", "pods.evicted")
            self._observe_pods(hub)
