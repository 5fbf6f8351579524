"""A Knative-KPA-style autoscaler: demand-driven container provisioning.

The scheduler already creates containers on demand (paying cold starts
inline).  The autoscaler removes those cold starts from the critical path:
it observes scheduler activity (every acquire/release) and pre-provisions
warm containers toward ``ceil(demand * HEADROOM)``, Knative's
concurrency-targeting behaviour.  It is opt-in
(:meth:`~repro.platform.cluster.ServerlessPlatform.enable_autoscaler`);
no experiment enables it, so Fig 12's pod counts come from the
scheduler's on-demand cold starts and warm reuse alone.

The design is event-driven rather than a polling process, so an idle
autoscaler never keeps the simulation's event queue alive; sustained-idle
scale-down happens on the next activity or an explicit :meth:`reap`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.platform.container import STATE_IDLE, Container
from repro.platform.dag import Workflow
from repro.platform.planner import VmPlan
from repro.platform.scheduler import Scheduler
from repro.sim.engine import Engine
from repro.units import seconds

#: provision toward ``ceil(demand * HEADROOM)`` containers per function
HEADROOM = 1.1
#: a function idle this long has its idle containers reaped
IDLE_TTL_NS = seconds(5)


class Autoscaler:
    """Watches one deployed workflow and pre-provisions containers
    (each a full boot, concurrent with user traffic)."""

    def __init__(self, engine: Engine, scheduler: Scheduler,
                 workflow: Workflow, plan: VmPlan):
        self.engine = engine
        self.scheduler = scheduler
        self.workflow = workflow
        self.plan = plan
        self._last_busy: Dict[str, int] = defaultdict(int)
        self.provisioned = 0
        self.scaled_down = 0
        self._attached = False

    # -- lifecycle ---------------------------------------------------------------

    def attach(self) -> "Autoscaler":
        """Subscribe to scheduler activity."""
        if not self._attached:
            self.scheduler.listeners.append(self._on_activity)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.scheduler.listeners.remove(self._on_activity)
            self._attached = False

    # -- demand sampling -----------------------------------------------------------

    def _pools(self, function: str) -> List[Tuple[tuple, Container]]:
        out = []
        for key, pool in self.scheduler._pool.items():
            if key[0] == self.workflow.name and key[1] == function:
                out.extend((key, c) for c in pool)
        return out

    def _on_activity(self, container: Container) -> None:
        if container.slot is None:  # pragma: no cover - defensive
            return
        name = container.spec.name
        if not any(s.name == name for s in self.workflow.functions):
            return
        self._evaluate(name)

    def _evaluate(self, function: str) -> None:
        now = self.engine.now
        alive = self._pools(function)
        demand = sum(1 for _k, c in alive if c.state != STATE_IDLE)
        spec = self.workflow.spec(function)
        if demand > 0:
            self._last_busy[function] = now
            desired = min(spec.width, math.ceil(demand * HEADROOM))
            for _ in range(desired - len(alive)):
                if not self._provision_one(function):
                    break
        elif now - self._last_busy[function] > IDLE_TTL_NS:
            self._reap_function(function, alive)

    def reap(self) -> int:
        """Explicit sustained-idle scale-down pass; returns drops."""
        before = self.scaled_down
        now = self.engine.now
        for spec in self.workflow.functions:
            if now - self._last_busy[spec.name] > IDLE_TTL_NS:
                self._reap_function(spec.name, self._pools(spec.name))
        return self.scaled_down - before

    def _reap_function(self, function: str, alive) -> None:
        for key, container in alive:
            if container.state == STATE_IDLE:
                self.scheduler._destroy(key, container)
                self.scaled_down += 1

    # -- provisioning ------------------------------------------------------------------

    def _provision_one(self, function: str) -> bool:
        """Create one warm container for the least-covered slot.

        The cold start happens *now* but concurrently with user traffic:
        by the time an invocation needs the slot, the container is warm.
        """
        spec = self.workflow.spec(function)
        covered: Dict[int, int] = defaultdict(int)
        for (_wf, _fn, idx), _c in self._pools(function):
            covered[idx] += 1
        index = min(range(spec.width), key=lambda i: covered[i])
        machine = self.scheduler._least_loaded_machine()
        if machine is None:
            return False
        key = (self.workflow.name, spec.name, index)
        self.scheduler._per_machine_count[machine.mac_addr] += 1
        container = Container(machine, spec,
                              self.plan.slot(spec.name, index))
        container.cached_since = self.engine.now
        self.scheduler._pool[key].append(container)
        self.scheduler._signal_capacity()
        self.provisioned += 1
        return True
