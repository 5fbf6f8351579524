"""The workflow coordinator: invocation, routing, reclamation.

One coordinator process per workflow invocation.  For each function
instance it: waits for upstream outputs, acquires a container from the
scheduler, routes the producers' transfer tokens to it (the Figure 6
metadata exchange), runs the function, and forwards its token downstream.
After every consumer of a producer's state reports completion, the
coordinator triggers the transport's cleanup — for RMMAP, the
``deregister_mem`` RPC of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.chaos import ResilienceStats
from repro.chaos.policies import RECOVERABLE_FAULTS, ResiliencePolicy
from repro.errors import (AuthenticationFailed, ContainerKilled,
                          InvocationRejected, MachineCrashed,
                          RegistrationNotFound, RemoteAccessError,
                          ReproError, WorkflowError)
from repro.kernel.remote_pager import FETCH_RPC
from repro.net.rpc import RpcError
from repro.obs.telemetry import current as _telemetry
from repro.platform.container import STATE_DEAD, Container
from repro.platform.dag import Edge, FunctionSpec, Workflow
from repro.platform.planner import VmPlan
from repro.platform.scheduler import Scheduler
from repro.sim.engine import AllOf, AnyOf, Engine, Timeout
from repro.sim.ledger import Ledger
from repro.transfer.base import (StateHandle, StateTransport, StageMeter,
                                 TransferBreakdown, TransferToken)
from repro.units import CostModel


class FunctionContext:
    """What a function handler sees while executing.

    ``inputs`` maps each upstream function name to the list of values
    produced by its instances (one element per producer instance; a single
    value for width-1 producers is still a one-element list).
    ``charge_compute`` adds simulated compute time for work whose host-side
    cost is not representative (e.g. model training calibrated to the
    paper's epochs).
    """

    def __init__(self, container: Container, inputs: Dict[str, List[Any]],
                 instance_index: int, params: Dict[str, Any]):
        self.container = container
        self.inputs = inputs
        self.instance_index = instance_index
        self.params = params
        self._extra_compute_ns = 0

    @property
    def heap(self):
        return self.container.heap

    def single_input(self, name: str) -> Any:
        values = self.inputs[name]
        if len(values) != 1:
            raise WorkflowError(
                f"expected one value from {name!r}, got {len(values)}")
        return values[0]

    def charge_compute(self, ns: int) -> None:
        self._extra_compute_ns += max(0, int(ns))


@dataclass
class FunctionRecord:
    """Timing record for one function instance execution."""

    function: str
    index: int
    start_ns: int = 0
    end_ns: int = 0
    receive_breakdown: TransferBreakdown = field(
        default_factory=TransferBreakdown)
    send_breakdown: TransferBreakdown = field(
        default_factory=TransferBreakdown)
    compute_ns: int = 0
    platform_ns: int = 0
    cold_start: bool = False

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def transfer_ns(self) -> int:
        return (self.receive_breakdown.e2e_ns
                + self.send_breakdown.e2e_ns)


@dataclass
class InvocationRecord:
    """End-to-end record of one workflow invocation."""

    workflow: str
    request_id: int
    start_ns: int = 0
    end_ns: int = 0
    result: Any = None
    functions: List[FunctionRecord] = field(default_factory=list)

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns

    def total(self, attr: str) -> int:
        return sum(getattr(f, attr) for f in self.functions)

    @property
    def compute_ns(self) -> int:
        return self.total("compute_ns")

    @property
    def platform_ns(self) -> int:
        return self.total("platform_ns")

    @property
    def transfer_ns(self) -> int:
        return self.total("transfer_ns")

    def stage_totals(self) -> Dict[str, int]:
        """Aggregate T/N/R across every edge of the invocation."""
        out = {"transform": 0, "network": 0, "reconstruct": 0}
        for f in self.functions:
            for b in (f.receive_breakdown, f.send_breakdown):
                out["transform"] += b.transform_ns
                out["network"] += b.network_ns
                out["reconstruct"] += b.reconstruct_ns
        return out

    def critical_path_totals(self) -> Dict[str, int]:
        """Per-stage costs along the critical path, approximated as the
        per-function-type maximum of each component (parallel instances of
        one type overlap; consecutive types do not).  This matches how the
        paper's stacked end-to-end breakdowns read (Fig 3/5)."""
        by_type: Dict[str, Dict[str, int]] = {}
        for f in self.functions:
            slot = by_type.setdefault(
                f.function, {"compute": 0, "platform": 0, "transform": 0,
                             "network": 0, "reconstruct": 0})
            transform = (f.receive_breakdown.transform_ns
                         + f.send_breakdown.transform_ns)
            network = (f.receive_breakdown.network_ns
                       + f.send_breakdown.network_ns)
            reconstruct = (f.receive_breakdown.reconstruct_ns
                           + f.send_breakdown.reconstruct_ns)
            slot["compute"] = max(slot["compute"], f.compute_ns)
            slot["platform"] = max(slot["platform"], f.platform_ns)
            slot["transform"] = max(slot["transform"], transform)
            slot["network"] = max(slot["network"], network)
            slot["reconstruct"] = max(slot["reconstruct"], reconstruct)
        out = {"compute": 0, "platform": 0, "transform": 0, "network": 0,
               "reconstruct": 0}
        for slot in by_type.values():
            for key in out:
                out[key] += slot[key]
        return out


class _InstanceOutput:
    """A producer instance's result: tokens per downstream edge."""

    def __init__(self, function: str, index: int):
        self.function = function
        self.index = index
        self.tokens: Dict[str, List[TransferToken]] = {}
        self.value_for_sink: Any = None
        self.producer_container: Optional[Container] = None


class _InvocationState:
    """Mutable per-invocation bookkeeping shared by all its instances.

    ``reexec`` dedups producer re-executions (concurrent consumers of one
    lost state join a single re-run); ``replacements`` maps a producer
    instance to the output of its latest successful re-execution so every
    consumer's retry routes the fresh tokens.
    """

    def __init__(self, record: InvocationRecord, params: Dict[str, Any],
                 transport_name: str):
        self.record = record
        self.params = params
        self.instance_procs: Dict[str, List] = {}
        self.reexec: Dict[tuple, Any] = {}
        self.replacements: Dict[tuple, _InstanceOutput] = {}
        # causal-profiling identity: all spans of this invocation hang off
        # one rooted tree (repro.obs.profile); ids are minted up front so
        # children can parent under spans emitted only at completion.
        # The transport qualifier keeps traces distinct when several
        # platforms (one per transport) share one hub in a process.
        self.trace_id = (f"{record.workflow}#{record.request_id}"
                         f"@{transport_name}")
        self.root_id: Optional[int] = None
        self.inv_id: Optional[int] = None


class WorkflowCoordinator:
    """Executes invocations of one deployed workflow."""

    def __init__(self, engine: Engine, workflow: Workflow, plan: VmPlan,
                 scheduler: Scheduler, transport: StateTransport,
                 cost: CostModel,
                 resilience: Optional[ResiliencePolicy] = None,
                 tenant: str = "default", admission=None):
        self.engine = engine
        self.workflow = workflow
        # optional admission hook (duck-typed to
        # repro.fleet.admission.AdmissionController): consulted at invoke
        # time; a non-None reason raises InvocationRejected before any
        # process is spawned, so rejected work costs zero simulated time
        self.admission = admission
        self.rejected = 0
        # fleet-monitoring label only (multi-tenant isolation is out of
        # scope): stamped on spans and invocation events so per-tenant
        # SLO series can be separated on a shared hub
        self.tenant = tenant
        self.plan = plan
        self.scheduler = scheduler
        self.transport = transport
        self.cost = cost
        self.ledger = Ledger()  # coordinator-side charges (reclamation)
        # fail-stop by default; a policy turns on the recovery ladder
        self.resilience = resilience
        self.stats = ResilienceStats()
        self._suspended_until = 0  # coordinator-crash failover window
        self._next_request = 0
        self._inflight = 0
        # Section 6: RMMAP cannot bridge different language runtimes
        # (object layouts differ); mixed-runtime edges fall back to
        # messaging.  Lazily constructed to avoid the cost when unused.
        self._fallback_transport: Optional[StateTransport] = None

    def _edge_transport(self, producer: str, consumer: str
                        ) -> StateTransport:
        """The transport for one edge, honouring the cross-language
        fallback."""
        if self.workflow.spec(producer).runtime == \
                self.workflow.spec(consumer).runtime:
            return self.transport
        if not self.transport.name.startswith(("rmmap", "adaptive")):
            return self.transport  # serializers bridge languages fine
        if self._fallback_transport is None:
            from repro.transfer.messaging import MessagingTransport
            self._fallback_transport = MessagingTransport()
        return self._fallback_transport

    def _transport_for_token(self, token: TransferToken) -> StateTransport:
        if self._fallback_transport is not None \
                and token.transport == self._fallback_transport.name:
            return self._fallback_transport
        return self.transport

    # -- failure handling (repro.chaos) ----------------------------------------------

    def crash(self, failover_ns: int) -> None:
        """Kill the coordinator; a standby takes over after *failover_ns*.

        Invocation state (the durable token/progress log) survives the
        crash; control-plane actions — launching instances, retries,
        reclamation — stall until the standby is live.  Data-plane work
        already running in containers continues unaffected.
        """
        self._suspended_until = max(self._suspended_until,
                                    self.engine.now + int(failover_ns))
        self._absorbed("failovers", "coordinator.failovers",
                       f"coordinator crash, failover {failover_ns} ns")

    def _absorbed(self, stat: str, counter: str, message: str) -> None:
        """Account one fault the coordinator absorbed: bump
        ``stats.<stat>`` and the hub's ``cluster/chaos/<counter>``, and
        note *message* in the chaos event trace."""
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        hub = _telemetry()
        if hub is not None:
            hub.count("cluster", "chaos", counter)
        self.stats.note(self.engine.now, message)

    def _control_barrier(self):
        """Stall until any in-progress coordinator failover completes.

        Yields nothing on the happy path, so non-chaos runs are untouched.
        """
        while self.engine.now < self._suspended_until:
            yield Timeout(self._suspended_until - self.engine.now)

    def _check_host(self, container: Container) -> None:
        """Raise if *container* or its machine died while the coordinator
        was parked on a yield.  Receives and sends are synchronous against
        the container's address space, so running one against a dead host
        would fault pages into an address space nothing will ever free.
        No-op (and no yield) without a resilience policy.
        """
        if self.resilience is None:
            return
        machine = container.machine
        if not machine.alive:
            raise MachineCrashed(
                f"{machine.mac_addr} is down under {container.name}")
        if container.state == STATE_DEAD:
            reason = (container.failed_event.value
                      if container.failed_event.triggered else "killed")
            raise ContainerKilled(f"{container.name}: {reason}")

    def _charged_sleep(self, container: Container, ns: int):
        """Advance simulated time for *container*'s work, crash-aware.

        Without a resilience policy this is a plain ``Timeout`` (identical
        to the seed behaviour).  With one, the sleep races the container's
        and machine's failure events so an injected crash interrupts the
        work mid-flight instead of being noticed only afterwards.
        """
        if self.resilience is None:
            yield Timeout(ns)
            return
        self._check_host(container)
        machine = container.machine
        yield AnyOf([self.engine.timeout_event(ns),
                     container.failed_event, machine.failed_event])
        if not machine.alive:
            raise MachineCrashed(
                f"{machine.mac_addr} crashed under {container.name}")
        if container.state == STATE_DEAD:
            reason = (container.failed_event.value
                      if container.failed_event.triggered else "killed")
            raise ContainerKilled(f"{container.name}: {reason}")

    # -- public API -----------------------------------------------------------------

    def invoke(self, params: Optional[Dict[str, Any]] = None):
        """Spawn one invocation; returns a process yielding the record.

        With an admission controller attached, an over-quota request
        raises :class:`~repro.errors.InvocationRejected` here — before a
        process exists — and emits an ``invocation.rejected`` platform
        event so the fleet monitor folds the refusal into availability.
        """
        if self.admission is not None:
            reason = self.admission.admit(self.tenant, self.engine.now)
            if reason is not None:
                self.rejected += 1
                hub = _telemetry()
                if hub is not None:
                    hub.count("coordinator", "platform",
                              "invocations.rejected")
                    hub.event("coordinator", "platform",
                              "invocation.rejected", tenant=self.tenant,
                              workflow=self.workflow.name,
                              transport=self.transport.name,
                              reason=reason)
                raise InvocationRejected(self.tenant, reason)
        request_id = self._next_request
        self._next_request += 1
        record = InvocationRecord(workflow=self.workflow.name,
                                  request_id=request_id,
                                  start_ns=self.engine.now)
        return self.engine.spawn(
            self._run_invocation(record, params or {}),
            name=f"{self.workflow.name}#{request_id}")

    # -- invocation orchestration ----------------------------------------------------

    def _run_invocation(self, record: InvocationRecord,
                        params: Dict[str, Any]):
        wf = self.workflow
        inv = _InvocationState(record, params, self.transport.name)
        self._inflight += 1
        hub = _telemetry()
        if hub is not None:
            inv.root_id = hub.new_span_id()
            inv.inv_id = hub.new_span_id()
            hub.count("coordinator", "platform", "invocations.started")
            hub.gauge("coordinator", "platform", "invocations.inflight",
                      self._inflight)
            hub.gauge_max("coordinator", "platform",
                          "invocations.inflight.hw", self._inflight)
        try:
            yield from self._invocation_body(inv, record, params)
        except Exception as err:
            # availability accounting for the fleet monitor; the fault
            # itself still propagates to the caller unchanged
            self._inflight -= 1
            hub = _telemetry()
            if hub is not None:
                hub.count("coordinator", "platform", "invocations.failed")
                hub.gauge("coordinator", "platform",
                          "invocations.inflight", self._inflight)
                hub.event("coordinator", "platform", "invocation.failed",
                          tenant=self.tenant, workflow=wf.name,
                          transport=self.transport.name,
                          request_id=record.request_id,
                          latency_ns=self.engine.now - record.start_ns,
                          error=type(err).__name__,
                          trace_id=inv.trace_id)
            raise
        return record

    def _invocation_body(self, inv: "_InvocationState",
                         record: InvocationRecord,
                         params: Dict[str, Any]):
        wf = self.workflow
        yield from self._control_barrier()
        for fname in wf.topological_order():
            spec = wf.spec(fname)
            upstream_procs = [p for e in wf.upstream(fname)
                              for p in inv.instance_procs[e.producer]]
            inv.instance_procs[fname] = [
                self.engine.spawn(
                    self._run_instance(inv, spec, i, upstream_procs),
                    name=f"{fname}#{i}")
                for i in range(spec.width)]

        sink_values: Dict[str, List[Any]] = {}
        for sink in wf.sinks():
            outputs = yield AllOf(inv.instance_procs[sink])
            sink_values[sink] = [o.value_for_sink for o in outputs]
        # everything finished: reclaim registered memory / storage objects
        yield from self._control_barrier()
        yield from self._cleanup(inv)
        record.end_ns = self.engine.now
        self._inflight -= 1
        hub = _telemetry()
        if hub is not None:
            hub.count("coordinator", "platform", "invocations.completed")
            hub.gauge("coordinator", "platform", "invocations.inflight",
                      self._inflight)
            hub.event("coordinator", "platform", "invocation.done",
                      tenant=self.tenant, workflow=wf.name,
                      transport=self.transport.name,
                      request_id=record.request_id,
                      latency_ns=record.latency_ns,
                      trace_id=inv.trace_id)
            hub.span("coordinator", "workflow", wf.name,
                     record.start_ns, record.end_ns, span_id=inv.root_id,
                     trace_id=inv.trace_id,
                     request_id=record.request_id, tenant=self.tenant,
                     transport=self.transport.name)
            hub.span("coordinator", "platform",
                     f"{wf.name}#{record.request_id}",
                     record.start_ns, record.end_ns, span_id=inv.inv_id,
                     parent_id=inv.root_id, trace_id=inv.trace_id,
                     request_id=record.request_id, tenant=self.tenant,
                     functions=len(record.functions))
        if len(sink_values) == 1:
            values = next(iter(sink_values.values()))
            record.result = values[0] if len(values) == 1 else values
        else:
            record.result = sink_values
        return record

    def _run_instance(self, inv: _InvocationState, spec: FunctionSpec,
                      index: int, upstream_procs: List):
        record = inv.record
        # wait for every upstream instance to finish
        upstream_outputs = yield AllOf(upstream_procs)
        yield from self._control_barrier()
        frec = FunctionRecord(function=spec.name, index=index,
                              start_ns=self.engine.now)
        hub = _telemetry()
        inst_id = hub.new_span_id() if hub is not None else None

        # coordinator schedules + triggers the function (platform overhead)
        yield Timeout(self.cost.coordinator_invoke_ns)

        policy = self.resilience
        attempt = 0
        while True:
            container = None
            try:
                cold_before = self.scheduler.cold_starts
                container = yield from self.scheduler.acquire(
                    self.workflow.name, spec, index, self.plan)
                frec.cold_start = self.scheduler.cold_starts > cold_before
                frec.platform_ns = (self.engine.now - frec.start_ns)
                hub = _telemetry()
                if hub is not None and inst_id is not None \
                        and frec.platform_ns > 0:
                    hub.span(container.machine.mac_addr, "platform",
                             "schedule", frec.start_ns, self.engine.now,
                             parent_id=inst_id, trace_id=inv.trace_id,
                             cold=frec.cold_start)

                try:
                    output = yield from self._execute_in_container(
                        inv, frec, spec, index, container,
                        upstream_outputs, inst_id)
                finally:
                    self.scheduler.release(container)
                break
            except Exception as err:
                host_died = container is not None and (
                    not container.machine.alive
                    or container.state == STATE_DEAD)
                recoverable = (isinstance(err, RECOVERABLE_FAULTS)
                               or host_died)
                attempt += 1
                if (policy is None or not recoverable
                        or policy.retry.exhausted(attempt)):
                    raise
                self._absorbed(
                    "retries", "retries",
                    f"retry {spec.name}#{index} attempt {attempt + 1} "
                    f"after {type(err).__name__}")
                yield from self._control_barrier()
                yield Timeout(policy.retry.delay_ns(attempt, policy.rng))
        frec.end_ns = self.engine.now
        record.functions.append(frec)
        hub = _telemetry()
        if hub is not None:
            hub.count("coordinator", "platform", "instances.completed")
            hub.span(container.machine.mac_addr, "platform",
                     f"{spec.name}#{index}", frec.start_ns, frec.end_ns,
                     span_id=inst_id, parent_id=inv.inv_id,
                     trace_id=inv.trace_id,
                     request_id=record.request_id, tenant=self.tenant,
                     cold=frec.cold_start,
                     compute_ns=frec.compute_ns,
                     platform_ns=frec.platform_ns,
                     transfer_ns=frec.transfer_ns)
        return output

    def _drain_phase(self, inv: _InvocationState, container, layer: str,
                     name: str, parent_id: Optional[int],
                     extra_ns: int = 0):
        """Drain the container's ledger into simulated time, materializing
        the phase's deferred ops and (when profiling) a phase span around
        them.  The yielded sleep is exactly the seed's
        ``_charged_sleep(container, ledger.drain() + extra)`` — the hub
        work is pure observation.  Returns the slept nanoseconds."""
        hub = _telemetry()
        drained = container.ledger.drain()
        total = drained + extra_ns
        if hub is not None:
            start = self.engine.now
            pid = parent_id
            if total > 0 and parent_id is not None:
                pid = hub.span(container.machine.mac_addr, layer, name,
                               start, start + total, parent_id=parent_id,
                               trace_id=inv.trace_id)
            hub.commit_ops(container.ledger, start, drained,
                           parent_id=pid, trace_id=inv.trace_id)
        yield from self._charged_sleep(container, total)
        return total

    def _execute_in_container(self, inv: _InvocationState, frec, spec,
                              index, container, upstream_outputs,
                              inst_id: Optional[int] = None):
        meter = StageMeter(container.ledger)
        cpu = container.machine.cpu
        yield cpu.acquire()
        # the container can die while we queue for a core (OOM-kill of a
        # claimed-but-waiting pod, or a crash/restart of its machine)
        self._check_host(container)
        handles: List[StateHandle] = []
        output: Optional[_InstanceOutput] = None
        try:
            # 1. receive upstream states
            inputs: Dict[str, List[Any]] = {}
            for edge in self.workflow.upstream(spec.name):
                values = []
                for up in self._outputs_from(upstream_outputs,
                                             edge.producer):
                    handle, value = yield from self._receive_one(
                        inv, container, up, edge, index)
                    handles.append(handle)
                    values.append(value)
                inputs[edge.producer] = values
            frec.receive_breakdown = meter.delta()
            yield from self._drain_phase(inv, container, "transfer",
                                         "receive", inst_id)

            # 2. run the function body; building the output object graph on
            #    the local heap is function work, not transfer work
            ctx = FunctionContext(container, inputs, index, inv.params)
            output_value = spec.handler(ctx)
            downstream = self.workflow.downstream(spec.name)
            output_root = None
            if downstream:
                output_root = container.heap.box(output_value)
                container.heap.add_root(output_root)
            meter.delta()  # fold handler + boxing charges into compute
            frec.compute_ns = yield from self._drain_phase(
                inv, container, "function", spec.name, inst_id,
                extra_ns=ctx._extra_compute_ns)

            # 3. ship the output downstream
            output = _InstanceOutput(spec.name, index)
            output.producer_container = container
            if downstream:
                yield from self._send_outputs(container, output,
                                              output_root, downstream)
                frec.send_breakdown = meter.delta()
                yield from self._drain_phase(inv, container, "transfer",
                                             "send", inst_id)
            else:
                output.value_for_sink = output_value

            # 4. inputs no longer needed: release remote maps / buffers
            for handle in handles:
                handle.release()
            yield from self._drain_phase(inv, container, "transfer",
                                         "release", inst_id)
            return output
        except Exception:
            hub = _telemetry()
            if hub is not None:
                hub.discard_ops(container.ledger)
            if self.resilience is not None:
                self._scrub_failed_attempt(container, handles, output)
            raise
        finally:
            cpu.release()

    # -- fault recovery (repro.chaos) --------------------------------------------------

    def _receive_one(self, inv: _InvocationState, container: Container,
                     output: _InstanceOutput, edge: Edge,
                     consumer_index: int):
        """Receive one producer output, riding the recovery ladder.

        Without a resilience policy this routes/receives/loads exactly as
        the seed did and propagates any fault.  With one: transient faults
        retry with backoff; repeated one-sided failures trip the breaker
        and degrade to two-sided RPC paging; a producer whose registered
        state died with its machine is re-executed and the fresh token
        re-routed.
        """
        policy = self.resilience
        attempt = 0
        while True:
            # the retry path parks on unguarded yields (producer
            # re-execution, control barrier); never receive into a host
            # that died while we waited
            self._check_host(container)
            current = output
            if policy is not None:
                current = inv.replacements.get(
                    (output.function, output.index), output)
            token = self._route_token(current, edge, consumer_index)
            producer_mac = getattr(token.payload, "mac_addr", None)
            transport = self._transport_for_token(token)
            if (policy is not None and policy.transport_fallback
                    and producer_mac is not None
                    and token.transport.startswith("rmmap")
                    and policy.breaker.is_open(producer_mac,
                                               self.engine.now)):
                token = self._degraded_token(token)
                self._absorbed(
                    "fallbacks", "fallbacks",
                    f"degrade {edge.producer}->{edge.consumer}"
                    f"#{consumer_index} to rpc fetch ({producer_mac})")
            handle = None
            hub = _telemetry()
            frame = None
            if hub is not None:
                frame = hub.op_begin(container.machine.mac_addr,
                                     "transfer",
                                     f"{token.transport}.receive",
                                     container.ledger,
                                     producer=edge.producer)
            lin = hub.lineage if hub is not None else None
            prev_edge = None
            if lin is not None:
                # ambient DAG-edge context: every page pull / logical
                # transfer inside this receive attributes to this edge
                prev_edge = lin.set_edge(
                    f"{edge.producer}->{edge.consumer}", token.transport)
            try:
                handle = transport.receive(container, token)
                value = handle.load()
            except Exception as err:
                if lin is not None:
                    # restore before any yield: other coroutines may run
                    # their own receives while this retry sleeps
                    lin.restore_edge(prev_edge)
                if frame is not None:
                    # the failed attempt's ops die with it; the ledger is
                    # drained below without a commit
                    hub.discard_ops(container.ledger)
                if handle is not None:
                    try:
                        handle.release()
                    except ReproError:
                        pass
                if policy is None \
                        or not isinstance(err, RECOVERABLE_FAULTS):
                    raise
                if not container.machine.alive \
                        or container.state == STATE_DEAD:
                    raise  # our own host died; instance retry handles it
                attempt += 1
                if producer_mac is not None:
                    if policy.breaker.record_failure(producer_mac,
                                                     self.engine.now):
                        self._absorbed("breaker_trips", "breaker.trips",
                                       f"breaker open {producer_mac}")
                if policy.retry.exhausted(attempt):
                    raise
                self._absorbed(
                    "retries", "retries",
                    f"retry receive {edge.producer}->{edge.consumer}"
                    f"#{consumer_index} after {type(err).__name__}")
                # the failed verb/RPC burned its detection timeout
                container.ledger.charge(policy.retry.syscall_timeout_ns,
                                        "fault-timeout")
                yield from self._charged_sleep(container,
                                               container.ledger.drain())
                if policy.reexecute_lost_producers \
                        and self._producer_state_lost(current, err):
                    yield from self._reexecute_producer(inv, current)
                yield from self._charged_sleep(
                    container, policy.retry.delay_ns(attempt, policy.rng))
                yield from self._control_barrier()
                continue
            if lin is not None:
                lin.restore_edge(prev_edge)
            if frame is not None:
                hub.op_end(frame, container.ledger)
            if policy is not None and producer_mac is not None:
                policy.breaker.record_success(producer_mac)
            return handle, value

    def _degraded_token(self, token: TransferToken) -> TransferToken:
        """A copy of *token* forcing the two-sided RPC fetch path (the
        circuit-breaker's RMMAP degradation); the shared token is left
        untouched for consumers whose fast path still works."""
        return TransferToken(
            transport=token.transport, payload=token.payload,
            root_addr=token.root_addr, wire_bytes=token.wire_bytes,
            object_count=token.object_count,
            extra={**token.extra, "fetch_mode": FETCH_RPC})

    def _producer_state_lost(self, output: _InstanceOutput,
                             err: Exception) -> bool:
        """Did the fault destroy the producer's registered state (vs a
        transient path failure a plain retry can ride out)?

        A dead producer *container* is NOT lost state: the registration's
        shadow-copy pins keep the snapshot frames alive (Section 4.2).
        Only a machine crash — wiped frames, dropped registry — or an
        auth-layer miss (registration reclaimed/revoked) forces
        re-execution.
        """
        producer = output.producer_container
        if producer is not None and not producer.machine.alive:
            return True
        if isinstance(err, (RemoteAccessError, RegistrationNotFound,
                            AuthenticationFailed)):
            return True
        if isinstance(err, RpcError) and isinstance(
                err.__cause__,
                (RegistrationNotFound, AuthenticationFailed)):
            return True
        return False

    def _reexecute_producer(self, inv: _InvocationState,
                            output: _InstanceOutput):
        """Re-run a producer instance whose state died with its machine.

        Deduplicated per (function, index): concurrent consumers of the
        same lost state join one re-execution instead of each spawning
        their own.  The fresh output is published in ``inv.replacements``
        so every consumer's retry routes the new tokens.
        """
        key = (output.function, output.index)
        proc = inv.reexec.get(key)
        stale = (proc is not None and proc.triggered
                 and proc.failure is None
                 and self._output_lost(proc.value))
        if proc is None or proc.failure is not None or stale:
            spec = self.workflow.spec(output.function)
            upstream = [p for e in self.workflow.upstream(output.function)
                        for p in inv.instance_procs[e.producer]]
            self._absorbed("reexecutions", "reexecutions",
                           f"reexecute {output.function}#{output.index}")
            proc = self.engine.spawn(
                self._run_instance(inv, spec, output.index, upstream),
                name=f"{output.function}#{output.index}~retry")
            inv.reexec[key] = proc
        replacement = yield proc
        inv.replacements[key] = replacement
        return replacement

    @staticmethod
    def _output_lost(output: Optional[_InstanceOutput]) -> bool:
        producer = output.producer_container if output else None
        return producer is not None and not producer.machine.alive

    def _scrub_failed_attempt(self, container: Container,
                              handles: List[StateHandle],
                              output: Optional[_InstanceOutput]) -> None:
        """Best-effort teardown of a failed attempt's partial state so a
        retry can rmap the same planned range and the final frame audit
        sees no orphan registrations."""
        if container.machine.alive and container.state != STATE_DEAD:
            for handle in handles:
                try:
                    handle.release()
                except ReproError:
                    pass
        if output is None:
            return
        seen = set()
        for tokens in output.tokens.values():
            for token in tokens:
                key = id(token.payload)
                if key in seen:
                    continue
                seen.add(key)
                try:
                    self._transport_for_token(token).cleanup(
                        container, token, self.ledger)
                except ReproError:
                    pass  # machine crash already reclaimed it wholesale

    # -- routing helpers --------------------------------------------------------------

    @staticmethod
    def _outputs_from(upstream_outputs: List[_InstanceOutput],
                      producer: str) -> List[_InstanceOutput]:
        return sorted((o for o in upstream_outputs
                       if o.function == producer),
                      key=lambda o: o.index)

    def _route_token(self, output: _InstanceOutput, edge: Edge,
                     consumer_index: int) -> TransferToken:
        tokens = output.tokens[edge.consumer]
        if edge.scatter:
            if consumer_index >= len(tokens):
                raise WorkflowError(
                    f"scatter edge {edge.producer}->{edge.consumer}: "
                    f"no partition for instance {consumer_index}")
            return tokens[consumer_index]
        return tokens[0]

    @staticmethod
    def _send_one(container: Container, transport: StateTransport,
                  root: int) -> TransferToken:
        """``transport.send`` wrapped in a deferred transfer op."""
        hub = _telemetry()
        frame = None
        if hub is not None:
            frame = hub.op_begin(container.machine.mac_addr, "transfer",
                                 f"{transport.name}.send",
                                 container.ledger)
        try:
            return transport.send(container, root)
        finally:
            if frame is not None:
                hub.op_end(frame, container.ledger)

    def _send_outputs(self, container: Container, output: _InstanceOutput,
                      root: int, downstream: List[Edge]):
        """Create one token (or one per partition) for the boxed output."""
        heap = container.heap
        scatter_edges = [e for e in downstream if e.scatter]
        plain_edges = [e for e in downstream if not e.scatter]

        # one shared token per distinct transport (cross-language edges
        # may fall back to messaging while same-runtime ones use rmmap)
        shared_tokens: Dict[str, TransferToken] = {}
        for edge in plain_edges:
            transport = self._edge_transport(edge.producer, edge.consumer)
            token = shared_tokens.get(transport.name)
            if token is None:
                token = self._send_one(container, transport, root)
                shared_tokens[transport.name] = token
            output.tokens[edge.consumer] = [token]

        for edge in scatter_edges:
            transport = self._edge_transport(edge.producer, edge.consumer)
            width = self.workflow.spec(edge.consumer).width
            parts = heap.children(root)
            if len(parts) != width:
                raise WorkflowError(
                    f"scatter output of {edge.producer!r} has "
                    f"{len(parts)} partitions for width-{width} consumer")
            if transport.name.startswith("rmmap"):
                # one registration; per-consumer views with element roots
                base = shared_tokens.get(transport.name)
                if base is None:
                    base = self._send_one(container, transport, root)
                    shared_tokens[transport.name] = base
                output.tokens[edge.consumer] = [
                    TransferToken(transport=base.transport,
                                  payload=base.payload, root_addr=part,
                                  wire_bytes=base.wire_bytes,
                                  extra=base.extra)
                    for part in parts]
            else:
                output.tokens[edge.consumer] = [
                    self._send_one(container, transport, part)
                    for part in parts]
        yield Timeout(0)  # keep this a generator even on the fast path

    # -- reclamation -------------------------------------------------------------------

    def _cleanup(self, inv: _InvocationState):
        """Reclaim every producer's transfer resources (Section 4.2).

        Covers re-executed producers too: their replacement outputs carry
        fresh registrations that must be deregistered like the originals.
        Under a resilience policy, reclamation of state a machine crash
        already destroyed is skipped rather than fatal.
        """
        seen = set()
        procs = [p for procs in inv.instance_procs.values() for p in procs]
        procs.extend(inv.reexec.values())
        for proc in procs:
            if not proc.triggered or proc.failure is not None:
                continue
            output = proc.value
            if output is None:
                continue
            for tokens in output.tokens.values():
                for token in tokens:
                    key = id(token.payload)
                    if key in seen:
                        continue
                    seen.add(key)
                    try:
                        self._transport_for_token(token).cleanup(
                            output.producer_container, token, self.ledger)
                    except ReproError:
                        if self.resilience is None:
                            raise
                        self.stats.note(
                            self.engine.now,
                            f"cleanup skipped for {output.function}"
                            f"#{output.index} (already reclaimed)")
        hub = _telemetry()
        ns = self.ledger.drain()
        if hub is not None:
            start = self.engine.now
            pid = inv.inv_id
            if ns > 0 and pid is not None:
                pid = hub.span("coordinator", "transfer", "cleanup",
                               start, start + ns, parent_id=inv.inv_id,
                               trace_id=inv.trace_id)
            hub.commit_ops(self.ledger, start, ns, parent_id=pid,
                           trace_id=inv.trace_id)
        yield Timeout(ns)
