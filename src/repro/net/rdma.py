"""RDMA NIC model: one-sided READ verbs with doorbell batching.

Only what the paper's co-design uses is modeled:

* one-sided READ of remote *physical* pages (the kernel learned remote PFNs
  from the page-table fetch during the rmap authentication RPC);
* doorbell batching: many work-queue entries posted with one doorbell ring,
  paying the base fabric latency once (Section 4.4, citing Kalia et al.);
* connection setup cost split between kernel-space (KRCore, ~10 us) and
  user-space (~10 ms) control planes (Section 4.1);
* failure semantics for :mod:`repro.chaos`: a broken or stale QP raises
  :class:`~repro.errors.QpBroken`, a READ against memory that no longer
  exists (deregistered / reclaimed / wiped by a crash) raises
  :class:`~repro.errors.RemoteAccessError` — both after charging the
  simulated time the failed verb spent on the wire before its error
  completion arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import (Disconnected, MemoryError_, NetworkError, QpBroken,
                          RemoteAccessError)
from repro.obs.telemetry import current as _telemetry
from repro.sim.ledger import Ledger
from repro.units import PAGE_SIZE, CostModel, transfer_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric
    from repro.kernel.machine import Machine


@dataclass(frozen=True)
class ReadRequest:
    """One work-queue entry: read *length* bytes of remote frame *pfn*."""

    pfn: int
    offset: int = 0
    length: int = PAGE_SIZE


class QueuePair:
    """A connected RC queue pair to one remote machine.

    ``MAX_BATCH_ENTRIES`` models the NIC's send-queue depth: a doorbell
    batch larger than the SQ is posted as several back-to-back rings,
    each paying the base latency once.
    """

    MAX_BATCH_ENTRIES = 1024

    def __init__(self, nic: "RdmaNic", remote_mac: str,
                 remote_incarnation: int = 0):
        self.nic = nic
        self.remote_mac = remote_mac
        self.remote_incarnation = remote_incarnation
        self.connected = True
        self.broken = False
        self.reads_posted = 0
        self.bytes_read = 0
        self.doorbells_rung = 0
        self.failed_verbs = 0

    # -- cost helpers ---------------------------------------------------------

    def _per_op_cpu_ns(self) -> int:
        """Fixed per-verb cost, derived so one 4 KB read costs exactly
        ``rdma_page_read_ns`` end-to-end."""
        cost = self.nic.cost
        wire_4k = transfer_time_ns(PAGE_SIZE, cost.rdma_bandwidth_gbps)
        return max(0, cost.rdma_page_read_ns
                   - cost.rdma_base_latency_ns - wire_4k)

    def _penalty(self) -> float:
        return self.nic.fabric.penalty(self.nic.mac_addr, self.remote_mac)

    def read_cost_ns(self, nbytes: int) -> int:
        """Latency of a single one-sided READ of *nbytes*."""
        cost = self.nic.cost
        return int(self._penalty()
                   * (cost.rdma_base_latency_ns + self._per_op_cpu_ns()
                      + transfer_time_ns(nbytes, cost.rdma_bandwidth_gbps)))

    def batch_cost_ns(self, requests: List[ReadRequest]) -> int:
        """Latency of a doorbell-batched READ: one base latency + posting
        cost per doorbell ring (SQ-depth bounded), per-entry WQE cost,
        and the summed wire time."""
        cost = self.nic.cost
        total_bytes = sum(r.length for r in requests)
        rings = max(1, -(-len(requests) // self.MAX_BATCH_ENTRIES))
        return int(self._penalty() * (
            rings * (cost.rdma_base_latency_ns + self._per_op_cpu_ns())
            + len(requests) * cost.rdma_doorbell_entry_ns
            + transfer_time_ns(total_bytes, cost.rdma_bandwidth_gbps)))

    # -- verbs -------------------------------------------------------------

    def read(self, req: ReadRequest, ledger: Ledger,
             category: str = "rdma-read") -> bytes:
        """One-sided READ: fetch remote physical bytes, charge *ledger*."""
        return bytes(self.read_pages((req.pfn,), ledger, category,
                                     req.offset, req.length)[0])

    def read_pages(self, pfns: Sequence[int], ledger: Ledger,
                   category: str = "rdma-read", offset: int = 0,
                   length: int = PAGE_SIZE,
                   gap_ns: int = 0) -> List[bytearray]:
        """READs of *length* bytes at *offset* of each of *pfns*, each its
        own one-sided READ at the full single-READ latency, the QP checked
        and priced once (a hub lays their op frames *gap_ns* apart: what
        the caller charges between two READs one page at a time).  A whole
        page comes back by reference — the remote frame's own buffer,
        which the caller must not write — when no PTE can write that frame
        in place any more: one given a second reference (a registration's
        pin, a CoW share) is mapped CoW wherever it is mapped.  A
        single-reference frame may be a reused pfn's private page, and is
        copied."""
        physical = self._check_usable(ledger).physical
        out, error = [], None
        try:
            for pfn in pfns:
                frame = physical.frame(pfn)
                out.append(frame.data if frame.refcount > 1
                           and length == PAGE_SIZE else
                           bytearray(physical.read_frame(pfn, offset, length)))
        except MemoryError_ as err:
            error = err
        cost_ns, n = self.read_cost_ns(length), len(out)
        ledger.charge(n * cost_ns, category)
        self.reads_posted += n
        self.bytes_read += n * length
        hub = _telemetry()
        if hub is not None:
            for _ in out:  # each READ's own counters and in-flight gauge
                self._observe_reads(hub, 1, length, cost_ns)
            hub.op(self.nic.mac_addr, "net.rdma", "read", ledger, cost_ns,
                   count=n, gap_ns=gap_ns, remote=self.remote_mac,
                   bytes=length)
        if error is not None:
            self._fail_verb(ledger)
            raise RemoteAccessError(
                f"READ of pfn {pfn} on {self.remote_mac!r}: remote "
                f"memory invalid ({error})") from error
        return out

    def read_batch(self, requests: List[ReadRequest], ledger: Ledger,
                   category: str = "rdma-read") -> List[bytes]:
        """Doorbell-batched READ of many remote pages in one round-trip."""
        if not requests:
            return []
        remote = self._check_usable(ledger)
        out = []
        for r in requests:
            try:
                out.append(remote.physical.read_frame(r.pfn, r.offset,
                                                      r.length))
            except MemoryError_ as err:
                self._fail_verb(ledger)
                raise RemoteAccessError(
                    f"batched READ of pfn {r.pfn} on {self.remote_mac!r}: "
                    f"remote memory invalid ({err})") from err
        cost_ns = self.batch_cost_ns(requests)
        ledger.charge(cost_ns, category)
        rings = max(1, -(-len(requests) // self.MAX_BATCH_ENTRIES))
        nbytes = sum(r.length for r in requests)
        self.reads_posted += len(requests)
        self.doorbells_rung += rings
        self.bytes_read += nbytes
        hub = _telemetry()
        if hub is not None:
            self._observe_reads(hub, len(requests), nbytes, cost_ns)
            mac = self.nic.mac_addr
            hub.count(mac, "net.rdma", "doorbells", rings)
            hub.observe(mac, "net.rdma", "doorbell.batch_entries",
                        len(requests))
            hub.op(mac, "net.rdma", "read.batch", ledger, cost_ns,
                   remote=self.remote_mac, entries=len(requests),
                   bytes=nbytes)
        return out

    def _observe_reads(self, hub, n: int, nbytes: int, cost_ns: int) -> None:
        """Publish per-QP and per-NIC counters for *n* READs."""
        mac = self.nic.mac_addr
        hub.count(mac, "net.rdma", "reads", n)
        hub.count(mac, "net.rdma", "bytes", nbytes)
        hub.count(mac, "net.rdma", "busy.ns", cost_ns)
        hub.count(mac, "net.rdma", f"qp.{self.remote_mac}.reads", n)
        hub.count(mac, "net.rdma", f"qp.{self.remote_mac}.bytes", nbytes)

    # -- failure handling --------------------------------------------------

    def break_qp(self) -> None:
        """Move the QP to the error state (chaos injection / remote crash
        discovery); verbs raise :class:`QpBroken` until re-connected."""
        self.broken = True

    def disconnect(self) -> None:
        self.connected = False

    def _fail_verb(self, ledger: Ledger) -> None:
        """A failed verb burns one base round-trip before its error
        completion (NAK / timeout detection at the requester)."""
        ledger.charge(int(self._penalty()
                          * self.nic.cost.rdma_base_latency_ns), "rdma-fault")
        self.failed_verbs += 1
        hub = _telemetry()
        if hub is not None:
            hub.count(self.nic.mac_addr, "net.rdma", "verbs.failed")

    def peer(self) -> Optional["Machine"]:
        """The remote machine if a verb would reach it now: a
        :meth:`_check_usable` that charges and breaks nothing."""
        try:
            remote = self.nic.fabric.machine(self.remote_mac)
        except Disconnected:
            return None
        return remote if self.connected and not self.broken and \
            remote.incarnation == self.remote_incarnation else None

    def _check_usable(self, ledger: Ledger) -> "Machine":
        """Resolve the remote machine, surfacing failures as typed errors
        with the detection latency charged."""
        if not self.connected:
            raise Disconnected(f"QP to {self.remote_mac!r} is torn down")
        if self.broken:
            self._fail_verb(ledger)
            raise QpBroken(f"QP to {self.remote_mac!r} is in error state")
        try:
            remote = self.nic.fabric.machine(self.remote_mac)
        except Disconnected:
            # transient partition / link-down window: charge the timeout
            # but leave the QP intact — it works again once the link heals
            # (an explicit chaos QpBreak models the error-state case)
            self._fail_verb(ledger)
            raise
        if remote.incarnation != self.remote_incarnation:
            # the remote rebooted: this QP's context died with it
            self._fail_verb(ledger)
            self.broken = True
            raise QpBroken(
                f"QP to {self.remote_mac!r} is stale (remote restarted)")
        return remote


class RdmaNic:
    """One RDMA NIC; caches QPs per remote (KRCore-style pooled QPs)."""

    def __init__(self, mac_addr: str, fabric: "Fabric", cost: CostModel):
        self.mac_addr = mac_addr
        self.fabric = fabric
        self.cost = cost
        self._qps: Dict[str, QueuePair] = {}

    def connect(self, remote_mac: str, ledger: Ledger,
                kernel_space: bool = True,
                category: str = "rdma-connect") -> QueuePair:
        """Get a QP to *remote_mac*, creating (and charging for) one if
        needed.  Kernel-space control plane is ~1000x cheaper (Section 4.1).
        """
        if remote_mac == self.mac_addr:
            raise NetworkError("loopback QP is unnecessary; use local memory")
        remote = self.fabric.machine(remote_mac)  # raises if unreachable
        qp = self._qps.get(remote_mac)
        if qp is not None and qp.connected and not qp.broken \
                and qp.remote_incarnation == remote.incarnation:
            return qp
        setup = (self.cost.kernel_connect_ns if kernel_space
                 else self.cost.user_connect_ns)
        ledger.charge(setup, category)
        qp = QueuePair(self, remote_mac,
                       remote_incarnation=remote.incarnation)
        self._qps[remote_mac] = qp
        hub = _telemetry()
        if hub is not None:
            hub.count(self.mac_addr, "net.rdma", "qp.connects")
            hub.count(self.mac_addr, "net.rdma", "busy.ns", setup)
            hub.op(self.mac_addr, "net.rdma", "qp.connect", ledger, setup,
                   remote=remote_mac)
        return qp

    # -- failure handling --------------------------------------------------

    def break_qps_to(self, remote_mac: str) -> int:
        """Chaos injection: break every cached QP to *remote_mac*."""
        qp = self._qps.get(remote_mac)
        if qp is None or qp.broken:
            return 0
        qp.break_qp()
        return 1

    def reset(self) -> None:
        """Drop all QP state (the NIC lost power with its machine)."""
        for qp in self._qps.values():
            qp.break_qp()
        self._qps.clear()
