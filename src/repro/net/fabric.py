"""The cluster fabric: a registry of machines reachable by address."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator

from repro.errors import Disconnected

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.machine import Machine


class Fabric:
    """Connects machines; the resolution point for RDMA and RPC targets.

    Mirrors an InfiniBand subnet: every NIC can reach every other NIC at a
    uniform base latency (the testbed in Section 5.1 is a single 100 Gbps
    IB fabric).  Partitions, per-link down windows and latency degradation
    can be injected for failure testing (:mod:`repro.chaos`).
    """

    def __init__(self):
        self._machines: Dict[str, "Machine"] = {}
        self._partitioned: set = set()
        self._degraded: Dict[str, float] = {}

    def attach(self, machine: "Machine") -> None:
        if machine.mac_addr in self._machines:
            raise Disconnected(f"duplicate machine {machine.mac_addr!r}")
        self._machines[machine.mac_addr] = machine

    def detach(self, mac_addr: str) -> None:
        self._machines.pop(mac_addr, None)

    def machine(self, mac_addr: str) -> "Machine":
        """Resolve *mac_addr*, honouring injected partitions."""
        if mac_addr in self._partitioned:
            raise Disconnected(f"machine {mac_addr!r} is partitioned")
        try:
            return self._machines[mac_addr]
        except KeyError:
            raise Disconnected(f"no machine {mac_addr!r} on fabric") from None

    def partition(self, mac_addr: str) -> None:
        """Inject a network partition (or NIC link-down) for failure
        testing; every verb/RPC targeting the machine raises
        :class:`Disconnected` until :meth:`heal`."""
        self._partitioned.add(mac_addr)

    def heal(self, mac_addr: str) -> None:
        self._partitioned.discard(mac_addr)

    # -- link degradation (packet loss / latency spikes) ----------------------

    def degrade(self, mac_addr: str, factor: float) -> None:
        """Multiply the latency of traffic touching *mac_addr* by *factor*
        (>= 1.0).  Models congestion or packet loss: retransmissions show
        up as a deterministic latency inflation, not lost messages."""
        if factor < 1.0:
            raise ValueError(f"degradation factor {factor} < 1.0")
        self._degraded[mac_addr] = float(factor)

    def restore(self, mac_addr: str) -> None:
        self._degraded.pop(mac_addr, None)

    def penalty(self, *mac_addrs: str) -> float:
        """Combined latency multiplier for a path touching *mac_addrs*
        (worst endpoint wins; 1.0 on a healthy path)."""
        return max([1.0] + [self._degraded.get(mac, 1.0)
                            for mac in mac_addrs])

    def machines(self) -> Iterator["Machine"]:
        return iter(self._machines.values())

    def __len__(self) -> int:
        return len(self._machines)
