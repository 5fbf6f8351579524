"""Sharded multi-tenant coordinators under one simulation engine.

One :class:`ShardedCoordinator` partitions tenants across N
:class:`CoordinatorShard` instances via a consistent-hash ring
(:mod:`repro.fleet.placement`).  Each shard is a pool of pod slots with a
FIFO wait queue, a per-shard :class:`ShardAutoscaler` (KPA-style: scale
to observed concurrency with headroom, cold-start delay on the way up),
and utilization accounting as exact busy-time / pod-time integrals over
the simulated clock.

Admission happens at :meth:`ShardedCoordinator.submit` — before a
process is ever spawned — with typed rejections
(:mod:`repro.fleet.admission`): ``rate-limit`` when the tenant's token
bucket is empty, ``queue-full`` when the target shard's wait queue is at
capacity, ``shard-down`` when no live shard can serve the tenant.  Every
rejection is mirrored onto the telemetry hub as a
``platform``/``invocation.rejected`` event so the fleet monitor folds it
into availability.

Failover: :meth:`ShardedCoordinator.fail_shard` kills a shard at a
simulated instant — inflight invocations are interrupted with
:class:`~repro.errors.ShardUnavailable`, queued waiters fail, and the
ring's minimal-movement property relocates *only* that shard's tenants
onto survivors.  Because placement, interrupts and wakeups all run
through the deterministic event queue, a crash drill replays
bit-identically at a fixed seed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, Iterable, List, Optional

from repro.errors import ShardUnavailable
from repro.fleet.admission import (AdmissionController, REJECT_QUEUE_FULL,
                                   REJECT_SHARD_DOWN)
from repro.fleet.placement import HashRing
from repro.fork.policy import (SCALE_UP_COLD, SCALE_UP_FORK,
                               SCALE_UP_PREWARM, ScaleUpConfig)
from repro.obs.telemetry import current as _telemetry
from repro.sim.engine import Engine, Event, Process, Timeout

#: Layer under which shard-level platform events/counters are filed
#: (matches the single-coordinator platform layer so one monitor serves
#: both).
PLATFORM_LAYER = "platform"

#: Layer for shard-local utilization gauges and invocation spans — kept
#: apart from ``platform`` so saturation triage can tell shard capacity
#: pressure from coordinator-level aggregates.
FLEET_LAYER = "fleet.shard"

#: Shard autoscaler constants: one scaling decision every 100 ms, targeting
#: ``ceil(demand * 1.2)`` pods, scaling down only after three
#: consecutive decisions wanted fewer.
AUTOSCALE_INTERVAL_NS = 100_000_000
SHARD_HEADROOM = 1.2
IDLE_INTERVALS = 3


class CoordinatorShard:
    """One coordinator shard: pod slots, a FIFO wait queue, accounting.

    The shard holds no scheduling logic of its own — pods are capacity
    slots, acquisition is slot-or-enqueue, release hands the freed slot
    to the queue head (strict FIFO, deterministic through the engine's
    event queue).  Busy-time and pod-time integrals accumulate on every
    state change, so utilization is exact in simulated time.
    """

    def __init__(self, engine: Engine, shard_id: str, pods: int = 2,
                 queue_limit: int = 64,
                 scale_up: ScaleUpConfig = ScaleUpConfig()):
        if pods < 1:
            raise ValueError("a shard needs at least one pod")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        self.engine = engine
        self.shard_id = str(shard_id)
        self.pods = int(pods)
        self.queue_limit = int(queue_limit)
        #: the scale-up mechanism model (see :mod:`repro.fork`)
        self.scale_up = scale_up
        self.alive = True
        self.inflight = 0
        self.queue: List[Event] = []
        # lifetime counters
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.peak_inflight = 0
        self.peak_queue = 0
        self.peak_pods = int(pods)
        self.died_ns: Optional[int] = None
        # exact utilization integrals (ns * pods)
        self._busy_ns = 0
        self._pods_ns = 0
        self._last_ns = engine.now
        self._created_ns = engine.now
        # how each live pod was started, LIFO (scale-down removes the
        # newest pod first, so fork-backed surge pods leave first); the
        # initial allocation is treated as cold-booted
        self.pod_modes: List[str] = [SCALE_UP_COLD] * int(pods)
        self.starts: Dict[str, int] = {SCALE_UP_COLD: 0,
                                       SCALE_UP_PREWARM: 0,
                                       SCALE_UP_FORK: 0}
        # frames pinned by the live pods, kept as a running total so
        # _account stays O(1), and their integral (ns * frames)
        self._frames = scale_up.frames_for(SCALE_UP_COLD) * int(pods)
        self._frames_ns = 0
        self.peak_frames = self._frames
        # inflight invocation processes, interrupted on shard failure
        self._procs: List[Process] = []

    # -- accounting ------------------------------------------------------------

    def _account(self, now_ns: int) -> None:
        dt = now_ns - self._last_ns
        if dt > 0:
            self._busy_ns += min(self.inflight, self.pods) * dt
            self._pods_ns += self.pods * dt
            self._frames_ns += self._frames * dt
            self._last_ns = now_ns

    def resident_frames(self) -> int:
        """Frames currently pinned by this shard's pods: full footprint
        for cold/prewarmed pods, the pulled working set for fork-backed
        ones (they demand-page the rest from their source)."""
        return self._frames

    def mean_frames(self, now_ns: int) -> float:
        """Time-averaged resident frames since the shard was created."""
        self._account(now_ns)
        lifetime = now_ns - self._created_ns
        return self._frames_ns / lifetime if lifetime > 0 else \
            float(self.resident_frames())

    def utilization(self, now_ns: Optional[int] = None) -> float:
        """Busy pod-time over provisioned pod-time, exact in sim time."""
        if now_ns is not None:
            self._account(now_ns)
        return self._busy_ns / self._pods_ns if self._pods_ns else 0.0

    # -- capacity --------------------------------------------------------------

    def set_pods(self, n: int, now_ns: int,
                 mode: str = SCALE_UP_COLD) -> None:
        """Resize the pod pool (autoscaler hook); wakes waiters on grow.

        *mode* records how the added pods materialized (``cold``,
        ``prewarm`` or ``fork``) for the start-split counters and the
        resident-frame model; shrink always removes the newest pods
        first, so transient fork-backed capacity is reclaimed before
        long-lived cold-booted pods.
        """
        n = max(1, int(n))
        if n == self.pods:
            return
        self._account(now_ns)
        grew = n - self.pods
        frames_for = self.scale_up.frames_for
        if grew > 0:
            self.pod_modes.extend([mode] * grew)
            self.starts[mode] = self.starts.get(mode, 0) + grew
            self._frames += frames_for(mode) * grew
        else:
            self._frames -= sum(frames_for(m) for m in self.pod_modes[n:])
            del self.pod_modes[n:]
        self.pods = n
        if n > self.peak_pods:
            self.peak_pods = n
        if self._frames > self.peak_frames:
            self.peak_frames = self._frames
        hub = _telemetry()
        if hub is not None:
            hub.gauge(self.shard_id, FLEET_LAYER, "pods.provisioned", n)
            hub.gauge(self.shard_id, FLEET_LAYER, "frames.resident",
                      self._frames)
            if grew > 0 and mode == SCALE_UP_FORK:
                hub.count(self.shard_id, FLEET_LAYER,
                          "pods.fork_starts", grew)
        self._wake(now_ns)

    # -- slot protocol ---------------------------------------------------------

    def take(self, now_ns: int) -> None:
        """Claim a free slot immediately (caller checked availability)."""
        self._account(now_ns)
        self.inflight += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight

    def enqueue(self, now_ns: int) -> Event:
        """Join the FIFO wait queue; the returned event fires (holding a
        transferred slot) when this waiter reaches the front."""
        ev = Event(f"{self.shard_id}.slot")
        self.queue.append(ev)
        if len(self.queue) > self.peak_queue:
            self.peak_queue = len(self.queue)
        return ev

    def release(self, now_ns: int) -> None:
        """Free a slot and hand it to the queue head, if any."""
        self._account(now_ns)
        self.inflight -= 1
        self._wake(now_ns)

    def _wake(self, now_ns: int) -> None:
        while self.queue and self.inflight < self.pods:
            ev = self.queue.pop(0)
            if ev.triggered:  # already failed by a shard crash
                continue
            # the slot transfers to the waiter before it resumes, so a
            # later arrival can never jump the queue
            self.take(now_ns)
            self.engine.schedule(0, ev)

    def register(self, proc: Process) -> None:
        """Track an inflight invocation process for crash interruption."""
        self._procs.append(proc)
        proc.add_callback(self._forget)

    def _forget(self, done: Event) -> None:
        try:
            self._procs.remove(done)  # Process is an Event
        except ValueError:  # pragma: no cover - already swept by fail()
            pass

    # -- failure ---------------------------------------------------------------

    def fail(self, now_ns: int) -> int:
        """Kill the shard: fail queued waiters, interrupt inflight work.

        Returns how many invocations (queued + inflight) were aborted.
        Interrupts and event failures are delivered through the engine's
        deterministic queue, so a crash at a fixed simulated instant
        always aborts the same set in the same order.
        """
        if not self.alive:
            return 0
        self._account(now_ns)
        self.alive = False
        self.died_ns = now_ns
        # one aborted *invocation* per live process — queued waiters are
        # both an Event and a Process, so count processes, not deliveries
        aborted = sum(1 for proc in self._procs if not proc.triggered)
        for ev in self.queue:
            if not ev.triggered:
                ev.fail(ShardUnavailable(
                    f"shard {self.shard_id!r} died at {now_ns} ns "
                    f"(queued waiter aborted)"))
        self.queue.clear()
        for proc in list(self._procs):
            if not proc.triggered:
                proc.interrupt(ShardUnavailable(
                    f"shard {self.shard_id!r} died at {now_ns} ns "
                    f"(inflight invocation aborted)"))
        self._procs.clear()
        return aborted

    # -- read-back -------------------------------------------------------------

    def stats(self, now_ns: Optional[int] = None) -> Dict[str, Any]:
        at = self.engine.now if now_ns is None else now_ns
        return {
            "shard": self.shard_id,
            "alive": self.alive,
            "pods": self.pods,
            "peak_pods": self.peak_pods,
            "inflight": self.inflight,
            "queued": len(self.queue),
            "peak_inflight": self.peak_inflight,
            "peak_queue": self.peak_queue,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "utilization": round(self.utilization(now_ns), 6),
            "died_ns": self.died_ns,
            "starts": dict(self.starts),
            "frames": {
                "resident": self._frames,
                "peak": self.peak_frames,
                "mean": round(self.mean_frames(at), 2),
            },
        }


class ShardAutoscaler:
    """KPA-style concurrency autoscaler for one shard.

    Every :data:`AUTOSCALE_INTERVAL_NS` the scaler reads the shard's
    observed demand (inflight + queued), targets ``ceil(demand *
    SHARD_HEADROOM)`` pods clamped to ``[min_pods, max_pods]``, and:

    * scales **up** after ``cold_start_ns`` (pods take time to boot;
      applied via :meth:`Engine.call_at`, so the delay is exact and
      deterministic);
    * scales **down** immediately but only after :data:`IDLE_INTERVALS`
      consecutive decisions wanted fewer pods (hysteresis against
      thrash).
    """

    def __init__(self, engine: Engine, shard: CoordinatorShard,
                 min_pods: int = 1, max_pods: int = 16,
                 cold_start_ns: int = 50_000_000,
                 scale_up: ScaleUpConfig = ScaleUpConfig()):
        if min_pods < 1 or max_pods < min_pods:
            raise ValueError("need 1 <= min_pods <= max_pods")
        self.engine = engine
        self.shard = shard
        self.min_pods = int(min_pods)
        self.max_pods = int(max_pods)
        self.cold_start_ns = int(cold_start_ns)
        self.scale_up = scale_up
        self.scale_ups = 0
        self.scale_downs = 0
        self.decisions = 0
        self._want_down = 0
        self._pending_up = 0  # highest target already booting
        self._proc: Optional[Process] = None

    @property
    def _static_pool(self) -> bool:
        """Provisioned concurrency: the prewarm mechanism holds
        ``max_pods`` from the start and never scales."""
        return self.scale_up.kind == SCALE_UP_PREWARM

    def start(self) -> Process:
        if self._static_pool and self.shard.pods < self.max_pods:
            self.shard.set_pods(self.max_pods, self.engine.now,
                                mode=SCALE_UP_PREWARM)
        self._proc = self.engine.spawn(
            self._loop(), name=f"autoscaler[{self.shard.shard_id}]")
        return self._proc

    def desired_pods(self) -> int:
        demand = self.shard.inflight + len(self.shard.queue)
        want = math.ceil(demand * SHARD_HEADROOM)
        return max(self.min_pods, min(self.max_pods, want))

    def evaluate(self) -> None:
        """One scaling decision at the current simulated instant."""
        if not self.shard.alive:
            return
        self.decisions += 1
        if self._static_pool:
            return  # provisioned concurrency: nothing to decide
        now = self.engine.now
        desired = self.desired_pods()
        if desired > self.shard.pods:
            self._want_down = 0
            if desired > self._pending_up:
                self._pending_up = desired
                delay_ns = self.scale_up.scale_up_delay_ns(
                    self.cold_start_ns)
                self.engine.call_at(now + delay_ns, self._booted(desired))
        elif desired < self.shard.pods:
            self._want_down += 1
            if self._want_down >= IDLE_INTERVALS:
                self._want_down = 0
                self.shard.set_pods(desired, self.engine.now)
                self.scale_downs += 1
        else:
            self._want_down = 0

    def _booted(self, target: int):
        def apply() -> None:
            if self._pending_up <= self.shard.pods:
                self._pending_up = 0
            if not self.shard.alive or target <= self.shard.pods:
                return
            # a prewarm pool never gets here, so the kind is cold or fork
            self.shard.set_pods(min(target, self.max_pods),
                                self.engine.now, mode=self.scale_up.kind)
            self.scale_ups += 1
            if self._pending_up <= self.shard.pods:
                self._pending_up = 0
        return apply

    def _loop(self) -> Generator:
        while self.shard.alive:
            yield Timeout(AUTOSCALE_INTERVAL_NS)
            self.evaluate()

    def stats(self) -> Dict[str, Any]:
        return {"min_pods": self.min_pods, "max_pods": self.max_pods,
                "decisions": self.decisions, "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs}


class ShardedCoordinator:
    """N coordinator shards behind consistent-hash tenant placement.

    The coordinator is transport-agnostic: callers hand
    :meth:`submit` a pre-computed ``service_ns`` (from a
    :class:`~repro.fleet.runner.ServiceProfile` or a full platform run)
    and the shard layer models queueing, capacity, admission and failure
    on top of it.
    """

    def __init__(self, engine: Engine,
                 n_shards: int = 4,
                 pods_per_shard: int = 2,
                 queue_limit: int = 64,
                 admission: Optional[AdmissionController] = None,
                 autoscale: bool = True,
                 min_pods: int = 1, max_pods: int = 16,
                 cold_start_ns: int = 50_000_000,
                 scale_up: ScaleUpConfig = ScaleUpConfig()):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        shard_ids = [f"shard-{i}" for i in range(int(n_shards))]
        self.engine = engine
        self.ring = HashRing(shard_ids)
        self.queue_limit = int(queue_limit)
        self.scale_up = scale_up
        self.admission = admission if admission is not None \
            else AdmissionController()
        self.shards: Dict[str, CoordinatorShard] = {
            sid: CoordinatorShard(engine, sid, pods=pods_per_shard,
                                  queue_limit=queue_limit,
                                  scale_up=scale_up)
            for sid in shard_ids}
        self.autoscalers: Dict[str, ShardAutoscaler] = {}
        if autoscale:
            for sid, shard in self.shards.items():
                self.autoscalers[sid] = ShardAutoscaler(
                    engine, shard, min_pods=min_pods, max_pods=max_pods,
                    cold_start_ns=cold_start_ns, scale_up=scale_up)
        self._started = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        #: per-tenant lifetime counts: {tenant: [submitted, done, failed]}
        self.tenant_counts: Dict[str, List[int]] = {}

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ShardedCoordinator":
        """Spawn the per-shard autoscaler loops (idempotent)."""
        if not self._started:
            self._started = True
            for scaler in self.autoscalers.values():
                scaler.start()
        return self

    # -- placement -------------------------------------------------------------

    def shard_for(self, tenant: str) -> Optional[CoordinatorShard]:
        """The live shard serving *tenant*, or ``None`` when the ring is
        empty (total outage)."""
        if not len(self.ring):
            return None
        return self.shards[self.ring.place(tenant)]

    def placements(self, tenants: Iterable[str]) -> Dict[str, str]:
        return self.ring.assignments(list(tenants))

    # -- admission + dispatch --------------------------------------------------

    def submit(self, tenant: str, workload: str, transport: str,
               service_ns: int) -> Optional[Process]:
        """Admit and dispatch one invocation at the current instant.

        Returns the invocation :class:`Process`, or ``None`` with a
        typed rejection recorded (and an ``invocation.rejected`` event
        emitted) when admission control refuses the request.  Rejected
        requests cost zero simulated time and never spawn a process.
        """
        now = self.engine.now
        reason = self.admission.admit(tenant, now)
        if reason is not None:
            self._emit_rejected(now, tenant, workload, transport,
                                reason, shard=None)
            return None
        shard = self.shard_for(tenant)
        if shard is None or not shard.alive:
            sid = shard.shard_id if shard is not None else None
            self.admission.note_rejection(now, tenant, REJECT_SHARD_DOWN,
                                          shard=sid)
            self._emit_rejected(now, tenant, workload, transport,
                                REJECT_SHARD_DOWN, shard=sid)
            return None
        if shard.inflight >= shard.pods \
                and len(shard.queue) >= self.queue_limit:
            self.admission.note_rejection(now, tenant, REJECT_QUEUE_FULL,
                                          shard=shard.shard_id)
            self._emit_rejected(now, tenant, workload, transport,
                                REJECT_QUEUE_FULL, shard=shard.shard_id)
            return None
        self.submitted += 1
        shard.submitted += 1
        self._tenant_count(tenant)[0] += 1
        # deterministic per-invocation trace id ("f" marks fleet-minted
        # ids apart from single-run RunResult.trace_id request numbers)
        trace_id = f"{workload}#f{self.submitted}@{transport}"
        # claim the slot (or queue position) synchronously, before the
        # invocation process ever runs: capacity checks on the next
        # same-instant submit must see this request's occupancy
        if shard.inflight < shard.pods and not shard.queue:
            shard.take(now)
            slot_ev = None
        else:
            slot_ev = shard.enqueue(now)
        self._gauge_shard(shard)
        proc = self.engine.spawn(
            self._invoke(shard, tenant, workload, transport,
                         int(service_ns), now, slot_ev, trace_id),
            name=f"invoke[{tenant}@{shard.shard_id}]")
        shard.register(proc)
        return proc

    def _invoke(self, shard: CoordinatorShard, tenant: str,
                workload: str, transport: str, service_ns: int,
                submit_ns: int, slot_ev: Optional[Event],
                trace_id: str) -> Generator:
        # simulated instant service began (None while still queued — a
        # crash before the slot transfer leaves it None)
        service_start = submit_ns if slot_ev is None else None
        try:
            if slot_ev is not None:
                yield slot_ev
                service_start = self.engine.now
            try:
                yield Timeout(service_ns)
            finally:
                if shard.alive:
                    shard.release(self.engine.now)
                    self._gauge_shard(shard)
        except ShardUnavailable:
            shard.failed += 1
            self.failed += 1
            self._tenant_count(tenant)[2] += 1
            self._emit_done(shard, tenant, workload, transport,
                            latency_ns=None, ok=False,
                            trace_id=trace_id, submit_ns=submit_ns,
                            service_start_ns=service_start)
            return
        latency_ns = self.engine.now - submit_ns
        shard.completed += 1
        self.completed += 1
        self._tenant_count(tenant)[1] += 1
        self._emit_done(shard, tenant, workload, transport,
                        latency_ns=latency_ns, ok=True,
                        trace_id=trace_id, submit_ns=submit_ns,
                        service_start_ns=service_start)

    def _tenant_count(self, tenant: str) -> List[int]:
        counts = self.tenant_counts.get(tenant)
        if counts is None:
            counts = self.tenant_counts[tenant] = [0, 0, 0]
        return counts

    # -- failure injection -----------------------------------------------------

    def fail_shard(self, shard_id: str) -> int:
        """Kill *shard_id* now: abort its work, rebalance its tenants.

        Returns the number of aborted invocations.  Only the dead
        shard's tenants move (consistent-hash minimal movement); every
        other tenant keeps its placement.
        """
        shard = self.shards[shard_id]
        now = self.engine.now
        aborted = shard.fail(now)
        if shard_id in self.ring.shards():
            self.ring.remove(shard_id)
        hub = _telemetry()
        if hub is not None:
            hub.event(shard_id, PLATFORM_LAYER, "shard.failed",
                      shard=shard_id, aborted=aborted)
            hub.count(shard_id, PLATFORM_LAYER, "shards.failed")
        return aborted

    def live_shards(self) -> List[str]:
        return [sid for sid, s in self.shards.items() if s.alive]

    # -- telemetry -------------------------------------------------------------

    def _gauge_shard(self, shard: CoordinatorShard) -> None:
        """Publish the shard's occupancy/queue gauges (saturation feed)."""
        hub = _telemetry()
        if hub is None:
            return
        sid = shard.shard_id
        hub.gauge(sid, FLEET_LAYER, "pods.inflight", shard.inflight)
        hub.gauge(sid, FLEET_LAYER, "queue.depth", len(shard.queue))
        if (sid, FLEET_LAYER, "pods.provisioned") not in hub.gauges:
            hub.gauge(sid, FLEET_LAYER, "pods.provisioned", shard.pods)
            hub.gauge(sid, FLEET_LAYER, "queue.limit", shard.queue_limit)

    def _emit_done(self, shard: CoordinatorShard, tenant: str,
                   workload: str, transport: str,
                   latency_ns: Optional[int], ok: bool,
                   trace_id: str, submit_ns: int,
                   service_start_ns: Optional[int]) -> None:
        hub = _telemetry()
        if hub is None:
            return
        if ok:
            hub.count(shard.shard_id, PLATFORM_LAYER,
                      "invocations.completed")
            hub.event(shard.shard_id, PLATFORM_LAYER, "invocation.done",
                      tenant=tenant, workflow=workload,
                      transport=transport, latency_ns=latency_ns,
                      shard=shard.shard_id, trace_id=trace_id)
        else:
            hub.count(shard.shard_id, PLATFORM_LAYER,
                      "invocations.failed")
            hub.event(shard.shard_id, PLATFORM_LAYER,
                      "invocation.failed", tenant=tenant,
                      workflow=workload, transport=transport,
                      error="ShardUnavailable", shard=shard.shard_id,
                      trace_id=trace_id)
        now = self.engine.now
        root = hub.span(shard.shard_id, FLEET_LAYER, "invocation",
                        submit_ns, now, trace_id=trace_id,
                        tenant=tenant, workflow=workload,
                        transport=transport, ok=ok)
        if service_start_ns is not None and service_start_ns > submit_ns:
            hub.span(shard.shard_id, FLEET_LAYER, "queue.wait",
                     submit_ns, service_start_ns, parent_id=root,
                     trace_id=trace_id)
        if service_start_ns is not None:
            hub.span(shard.shard_id, FLEET_LAYER, "service",
                     service_start_ns, now, parent_id=root,
                     trace_id=trace_id)

    def _emit_rejected(self, now_ns: int, tenant: str, workload: str,
                       transport: str, reason: str,
                       shard: Optional[str]) -> None:
        hub = _telemetry()
        if hub is None:
            return
        machine = shard if shard is not None else "cluster"
        hub.count(machine, PLATFORM_LAYER, "invocations.rejected")
        hub.event(machine, PLATFORM_LAYER, "invocation.rejected",
                  tenant=tenant, workflow=workload, transport=transport,
                  reason=reason, shard=shard)

    # -- read-back -------------------------------------------------------------

    def stats(self, now_ns: Optional[int] = None) -> Dict[str, Any]:
        now_ns = self.engine.now if now_ns is None else now_ns
        shards = []
        for sid in sorted(self.shards):
            entry = self.shards[sid].stats(now_ns)
            scaler = self.autoscalers.get(sid)
            if scaler is not None:
                entry["autoscaler"] = scaler.stats()
            shards.append(entry)
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "admission": self.admission.to_dict(),
            "shards": shards,
        }
