"""FaSST-style RPC between machine kernels.

Used for the rmap authentication round-trip (which piggybacks the remote
page-table snapshot), coordinator messages, and the RPC-based remote-paging
baseline of the factor analysis (Section 5.5).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Callable, Dict

from repro.errors import NetworkError
from repro.obs.telemetry import current as _telemetry
from repro.sim.ledger import Ledger
from repro.units import CostModel, transfer_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric


class RpcError(NetworkError):
    """The remote handler raised, or no handler matched the method."""


def estimate_payload_bytes(payload: Any) -> int:
    """A cheap structural size estimate used only for wire-time accounting."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview, str)):
        return len(payload)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, dict):
        if {int} >= set(map(type, payload)) | set(map(type, payload.values())):
            # a page-table snapshot: 8 + 8 bytes an entry, by construction
            return 16 * len(payload) + 16
        return sum(estimate_payload_bytes(k) + estimate_payload_bytes(v)
                   for k, v in payload.items()) + 16
    if isinstance(payload, (list, tuple, set)):
        return sum(estimate_payload_bytes(v) for v in payload) + 16
    return sys.getsizeof(payload)


class RpcEndpoint:
    """Per-machine RPC dispatcher.

    Handlers are plain callables ``handler(payload) -> result``; calls are
    synchronous with the round-trip + wire time charged to the caller.
    """

    def __init__(self, mac_addr: str, fabric: "Fabric", cost: CostModel):
        self.mac_addr = mac_addr
        self.fabric = fabric
        self.cost = cost
        self._handlers: Dict[str, Callable[[Any], Any]] = {}
        self.calls_served = 0

    def register_handler(self, method: str,
                         handler: Callable[[Any], Any]) -> None:
        if method in self._handlers:
            raise RpcError(f"handler for {method!r} already registered")
        self._handlers[method] = handler

    def call(self, remote_mac: str, method: str, payload: Any,
             ledger: Ledger, category: str = "rpc") -> Any:
        """Invoke *method* on the remote endpoint, charging *ledger*."""
        remote_machine = self.fabric.machine(remote_mac)
        remote = remote_machine.rpc
        handler = remote._handlers.get(method)
        if handler is None:
            raise RpcError(f"{remote_mac!r} has no handler for {method!r}")
        try:
            result = handler(payload)
        except NetworkError:
            raise
        except Exception as err:  # noqa: BLE001 - surfaces as RPC failure
            raise RpcError(f"remote handler {method!r} failed: {err}") \
                from err
        payload_bytes = estimate_payload_bytes(payload)
        result_bytes = estimate_payload_bytes(result)
        wire = (transfer_time_ns(payload_bytes,
                                 self.cost.rdma_bandwidth_gbps)
                + transfer_time_ns(result_bytes,
                                   self.cost.rdma_bandwidth_gbps))
        penalty = self.fabric.penalty(self.mac_addr, remote_mac)
        cost_ns = int(penalty * (self.cost.rpc_roundtrip_ns + wire))
        ledger.charge(cost_ns, category)
        remote.calls_served += 1
        hub = _telemetry()
        if hub is not None:
            hub.count(self.mac_addr, "net.rpc", "calls")
            hub.count(self.mac_addr, "net.rpc", f"method.{method}")
            hub.count(self.mac_addr, "net.rpc", "bytes",
                      payload_bytes + result_bytes)
            hub.count(self.mac_addr, "net.rpc", "busy.ns", cost_ns)
            hub.op(self.mac_addr, "net.rpc", f"rpc.{method}", ledger,
                   cost_ns, remote=remote_mac,
                   bytes=payload_bytes + result_bytes)
        return result
