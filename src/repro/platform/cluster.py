"""The user-facing platform facade: deploy workflows, invoke them."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import PlatformError
from repro.kernel.machine import make_cluster
from repro.platform.coordinator import InvocationRecord, WorkflowCoordinator
from repro.platform.dag import Workflow
from repro.platform.planner import VmPlan, plan_workflow
from repro.platform.scheduler import Scheduler
from repro.sim.engine import AllOf, Engine, Timeout
from repro.sim.rng import SeededRng, make_rng
from repro.transfer.base import StateTransport
from repro.units import CostModel, DEFAULT_COST_MODEL, seconds


class ServerlessPlatform:
    """A Knative-like cluster: machines + scheduler + per-workflow
    coordinators, parameterized by the state-transfer transport.

    Matches the paper's testbed shape (Section 5.1): N machines on one
    RDMA fabric, functions pre-warmable, one transport per experiment.
    """

    def __init__(self, n_machines: int = 10,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 containers_per_machine: int = 24,
                 engine: Optional[Engine] = None,
                 rng: Optional[SeededRng] = None):
        self.engine = engine if engine is not None else Engine()
        self.cost = cost
        self.rng = rng if rng is not None else make_rng(0)
        self.fabric, self.machines = make_cluster(self.engine, n_machines,
                                                  cost=cost)
        self.scheduler = Scheduler(self.engine, self.machines, cost,
                                   containers_per_machine)
        self._coordinators: Dict[str, WorkflowCoordinator] = {}
        self._plans: Dict[str, VmPlan] = {}
        self._autoscalers: Dict[str, "Autoscaler"] = {}

    # -- deployment -------------------------------------------------------------

    def deploy(self, workflow: Workflow, transport: StateTransport,
               resilience=None, tenant: str = "default",
               admission=None) -> WorkflowCoordinator:
        """Upload a workflow: generates its static VM plan (Section 4.2)
        and binds it to a transport.  ``resilience`` (a
        :class:`~repro.chaos.policies.ResiliencePolicy`) opts the
        coordinator into the fault-recovery ladder; the default stays
        fail-stop.  ``tenant`` is a fleet-monitoring label stamped on the
        coordinator's spans and invocation events.  ``admission`` (an
        :class:`~repro.fleet.admission.AdmissionController`) makes
        over-quota invokes raise
        :class:`~repro.errors.InvocationRejected`."""
        if workflow.name in self._coordinators:
            raise PlatformError(f"workflow {workflow.name!r} already "
                                "deployed")
        plan = plan_workflow(workflow)
        coordinator = WorkflowCoordinator(self.engine, workflow, plan,
                                          self.scheduler, transport,
                                          self.cost,
                                          resilience=resilience,
                                          tenant=tenant,
                                          admission=admission)
        self._coordinators[workflow.name] = coordinator
        self._plans[workflow.name] = plan
        return coordinator

    def enable_autoscaler(self, workflow_name: str):
        """Attach a KPA-style, event-driven autoscaler to a deployed
        workflow (it observes scheduler activity; no polling process)."""
        from repro.platform.autoscaler import Autoscaler
        scaler = Autoscaler(self.engine, self.scheduler,
                            self.coordinator(workflow_name).workflow,
                            self._plans[workflow_name])
        self._autoscalers[workflow_name] = scaler
        return scaler.attach()

    def stop_autoscalers(self) -> None:
        for scaler in self._autoscalers.values():
            scaler.detach()

    def plan(self, workflow_name: str) -> VmPlan:
        return self._plans[workflow_name]

    def coordinator(self, workflow_name: str) -> WorkflowCoordinator:
        try:
            return self._coordinators[workflow_name]
        except KeyError:
            raise PlatformError(
                f"workflow {workflow_name!r} not deployed") from None

    # -- synchronous conveniences --------------------------------------------------

    def run_once(self, workflow_name: str,
                 params: Optional[Dict[str, Any]] = None
                 ) -> InvocationRecord:
        """Invoke once and run the simulation to completion."""
        proc = self.coordinator(workflow_name).invoke(params)
        self.engine.run()
        return proc.value

    def prewarm(self, workflow_name: str,
                params: Optional[Dict[str, Any]] = None) -> None:
        """Run one throwaway invocation so containers are warm (the paper
        pre-warms all functions to rule out cold-start interference)."""
        self.run_once(workflow_name, params)
        self.scheduler.reset_starts()

    def enable_fork(self):
        """Turn on remote-fork scale-up for the whole cluster (see
        :mod:`repro.fork`); returns the scheduler's fork manager."""
        return self.scheduler.enable_fork()

    # -- load generation (Fig 12) -----------------------------------------------------

    def run_open_loop(self, workflow_name: str,
                      rate_per_s: Optional[float] = None,
                      duration_s: float = 1.0,
                      params: Optional[Dict[str, Any]] = None,
                      arrivals=None) -> List[InvocationRecord]:
        """Open-loop client: issue invocations at *rate_per_s* for
        *duration_s* seconds; wait for all to finish; return records.

        ``arrivals`` (a :class:`~repro.fleet.traffic.ArrivalProcess`)
        replaces the fixed-rate client with any seeded arrival shape —
        Poisson, diurnal, bursty — drawn from its own named rng stream
        (``("open-loop", workflow_name)``), so switching shapes never
        perturbs other consumers of the platform rng.  Invocations the
        coordinator's admission controller rejects are skipped (the
        rejection is already recorded on the controller and the hub).
        """
        from repro.errors import InvocationRejected

        if (rate_per_s is None) == (arrivals is None):
            raise ValueError("pass exactly one of rate_per_s/arrivals")
        coordinator = self.coordinator(workflow_name)
        records: List[InvocationRecord] = []

        def submit(procs):
            try:
                procs.append(coordinator.invoke(params))
            except InvocationRejected:
                pass  # typed + counted by the admission controller

        def client():
            procs = []
            deadline = self.engine.now + seconds(duration_s)
            mean_gap = seconds(1.0 / rate_per_s)
            while self.engine.now < deadline:
                submit(procs)
                yield Timeout(mean_gap)
            results = yield AllOf(procs)
            records.extend(results)

        def shaped_client():
            procs = []
            stream = self.rng.stream("open-loop", workflow_name)
            start = self.engine.now
            for at_ns in arrivals.arrivals(
                    stream, start, start + seconds(duration_s)):
                delay = at_ns - self.engine.now
                if delay > 0:
                    yield Timeout(delay)
                submit(procs)
            results = yield AllOf(procs)
            records.extend(results)

        self.engine.run_process(
            client() if arrivals is None else shaped_client(),
            name="open-loop-client")
        return records

    def run_closed_loop(self, workflow_name: str, clients: int,
                        requests_per_client: int,
                        params: Optional[Dict[str, Any]] = None
                        ) -> List[InvocationRecord]:
        """Closed-loop clients: each issues its next request when the
        previous completes (used to saturate the cluster)."""
        coordinator = self.coordinator(workflow_name)
        records: List[InvocationRecord] = []

        def client(_cid):
            for _ in range(requests_per_client):
                record = yield coordinator.invoke(params)
                records.append(record)

        procs = [self.engine.spawn(client(c), name=f"client{c}")
                 for c in range(clients)]

        def waiter():
            yield AllOf(procs)

        self.engine.run_process(waiter(), name="closed-loop-waiter")
        return records
