"""One physical machine: memory, NIC, RPC endpoint, kernel, CPU cores."""

from __future__ import annotations

from repro.mem.physical import PhysicalMemory
from repro.net.fabric import Fabric
from repro.net.rdma import RdmaNic
from repro.net.rpc import RpcEndpoint
from repro.sim.engine import Engine
from repro.sim.event import Event
from repro.sim.resources import Resource
from repro.units import GB, CostModel, DEFAULT_COST_MODEL

#: Every machine's physical memory and CPU cores (the paper's testbed
#: servers, Section 5.1).
MACHINE_MEMORY = 64 * GB
MACHINE_CORES = 24


class Machine:
    """A worker node on the fabric.

    Matches the paper's testbed shape (Section 5.1): multi-core servers with
    one RDMA NIC each.  Containers/pods run on machines via the platform
    layer; the kernel layer only needs memory, networking and cores.

    Failure model (:mod:`repro.chaos`): :meth:`crash` kills the node —
    memory and kernel state are lost, the fabric stops routing to it, and
    ``failed_event`` fires so in-flight work can observe the death.
    :meth:`restart` brings it back as a *new incarnation*: cached QPs
    pointing at the old incarnation fail with ``QpBroken``.
    """

    def __init__(self, mac_addr: str, engine: Engine, fabric: Fabric,
                 cost: CostModel = DEFAULT_COST_MODEL):
        from repro.kernel.kernel import Kernel  # avoid import cycle

        self.mac_addr = mac_addr
        self.engine = engine
        self.fabric = fabric
        self.cost = cost
        self.physical = PhysicalMemory(MACHINE_MEMORY)
        self.physical.owner = mac_addr
        self.nic = RdmaNic(mac_addr, fabric, cost)
        self.rpc = RpcEndpoint(mac_addr, fabric, cost)
        self.cpu = Resource(engine, MACHINE_CORES, name=f"{mac_addr}.cpu")
        self.kernel = Kernel(self)
        self.alive = True
        self.incarnation = 0
        self.failed_event = Event(f"{mac_addr}.failed")
        self.crashes = 0
        fabric.attach(self)

    # -- failure injection (repro.chaos) -----------------------------------

    def crash(self) -> None:
        """Power-fail the node: wipe memory, kernel registrations and QP
        state, partition it off the fabric, and fire ``failed_event``."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.fabric.partition(self.mac_addr)
        self.nic.reset()
        self.kernel.on_crash()
        self.physical.wipe()
        self.failed_event.succeed(self.mac_addr)

    def restart(self) -> None:
        """Boot a fresh incarnation of the node (empty memory, new QPs)."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        self.failed_event = Event(f"{self.mac_addr}.failed")
        self.fabric.heal(self.mac_addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.mac_addr}>"


def make_cluster(engine: Engine, n_machines: int,
                 cost: CostModel = DEFAULT_COST_MODEL):
    """Convenience: build *n_machines* attached to one fabric."""
    fabric = Fabric()
    machines = [Machine(f"mac{i}", engine, fabric, cost)
                for i in range(n_machines)]
    return fabric, machines
