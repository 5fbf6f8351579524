"""The remote-pager device: VMAs whose faults read pages over the fabric.

This is the paper's "special (logical) device" (Figure 8, step 3-4): rmap
creates a VMA hooked to this device; touching a page inside it triggers a
fault that fetches the remote physical page with a one-sided RDMA READ, or —
for the factor-analysis baseline (Section 5.5) — with a two-sided RPC.

Page-table metadata arrives either *eagerly* (the full snapshot piggybacked
on the auth RPC — the paper's design, whose cost Section 6 calls out for
fat address spaces) or *on demand* at 2 MB-region granularity (the paper's
cited future-work direction), via a :class:`PteSource`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from repro.errors import (MemoryError_, QpBroken, RemoteAccessError,
                          SegmentationFault)
from repro.mem.layout import AddressRange, page_number
from repro.mem.pagetable import PTE, PTE_COW, PTE_PRESENT
from repro.mem.vma import VMA
from repro.net.rdma import QueuePair, ReadRequest
from repro.obs.telemetry import current as _telemetry
from repro.units import PAGE_SIZE, transfer_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.address_space import AddressSpace

FETCH_RDMA = "rdma"
FETCH_RPC = "rpc"

#: on-demand PTE fetch granularity: 2 MB regions (512 pages)
REGION_PAGES = 512


class PteSource:
    """Lazily materializes PTE snapshots at region granularity.

    ``fetch(first_vpn, last_vpn)`` returns the producer-side vpn -> pfn
    entries for that span, charging the caller's ledger for the RPC.
    The producer-side fetch already accepts arbitrary spans, so a caller
    walking adjacent regions in one fault burst can *coalesce* them into
    a single RPC (``fetch_span``) instead of one round trip per 2 MB —
    ``fetches`` counts RPCs issued, ``regions_fetched`` regions covered.

    ``span_regions`` caps how many adjacent regions one speculative
    fetch may cover (default 8 regions = 16 MB of PTE metadata).
    """

    def __init__(self, fetch: Callable[[int, int], Dict[int, int]],
                 span_regions: int = 8):
        if span_regions < 1:
            raise ValueError("span_regions must be >= 1")
        self._fetch = fetch
        self.span_regions = span_regions
        self.regions_fetched = 0
        self.fetches = 0

    def fetch_span(self, first_region: int, n_regions: int) -> Dict[int, int]:
        """One RPC covering *n_regions* adjacent regions."""
        first = first_region * REGION_PAGES
        self.fetches += 1
        self.regions_fetched += n_regions
        return self._fetch(first, first + n_regions * REGION_PAGES - 1)


class RemoteVMA(VMA):
    """A consumer-side mapping of a producer's registered memory.

    Pages are mapped CoW: the consumer reads shared snapshot frames fetched
    on demand; a consumer *write* breaks CoW into a private local frame, so
    producers never observe consumer modifications (coherency model of
    Section 4.1).

    ``qp=None`` marks a *same-machine* mapping: faults map the producer's
    snapshot frames directly (shared memory), with no network involved.
    """

    def __init__(self, rng: AddressRange, snapshot: Dict[int, int],
                 qp: Optional[QueuePair], name: str = "rmap",
                 fetch_mode: str = FETCH_RDMA,
                 pte_source: Optional[PteSource] = None,
                 rpc_fallback: bool = False):
        super().__init__(rng, name=name, writable=True)
        self.snapshot = snapshot
        self.qp = qp
        self.fetch_mode = fetch_mode
        self.pte_source = pte_source
        # resilience policy knob (repro.chaos): when the QP breaks
        # mid-transfer, degrade one-sided READs to the two-sided RPC
        # messaging path instead of failing the fault
        self.rpc_fallback = rpc_fallback
        self._fetched_regions: set = set()
        #: last region a lazy fetch ended on — the sequential-burst
        #: detector behind PTE-fetch coalescing
        self._last_region: Optional[int] = None
        self.remote_faults = 0
        self.pages_fetched = 0
        self.zero_fill_faults = 0
        self.fallback_faults = 0

    def _ensure_pte(self, space: "AddressSpace", vpn: int) -> Optional[int]:
        """Producer pfn for *vpn*, fetching its PTE region if lazy."""
        pfn = self.snapshot.get(vpn)
        if pfn is not None or self.pte_source is None:
            return pfn
        region = vpn // REGION_PAGES
        if region in self._fetched_regions:
            return None  # fetched, genuinely absent at the producer
        self._fetch_pte_span(space, region)
        return self.snapshot.get(vpn)

    def _fetch_pte_span(self, space: "AddressSpace", region: int) -> None:
        """Fetch *region*'s PTEs, coalescing adjacent regions when the
        caller is walking sequentially (a fault burst or a prefetch
        sweep): the second miss in a row speculatively pulls up to
        ``span_regions`` regions in one RPC instead of one per 2 MB.
        A random-access miss still costs exactly one region."""
        span = 1
        if self._last_region is not None and region == self._last_region + 1:
            span = self.pte_source.span_regions
        last_mappable = page_number(self.range.end - 1) // REGION_PAGES
        span = min(span, last_mappable - region + 1)
        for k in range(1, span):  # never re-fetch a materialized region
            if region + k in self._fetched_regions:
                span = k
                break
        self._fetched_regions.update(range(region, region + span))
        self.snapshot.update(self.pte_source.fetch_span(region, span))
        self._last_region = region + span - 1
        hub = _telemetry()
        if hub is not None and hub.lineage is not None:
            hub.lineage.pte_fetched(self.name, space.name, 1, span)

    # --- fault path -----------------------------------------------------------

    def handle_fault(self, space: "AddressSpace", vpn: int,
                     write: bool) -> PTE:
        """Demand-fault one page, whatever it takes."""
        space.ledger.charge(space.cost.page_fault_ns, "remote-fault")
        hub = _telemetry()
        lin = hub.lineage if hub is not None else None
        remote_pfn = self._ensure_pte(space, vpn)
        if remote_pfn is None:
            # never materialized at the producer: demand-zero locally
            self.zero_fill_faults += 1
            frame = space.physical.allocate()
            if lin is not None:
                lin.page_pulled(self.name, space.name, vpn, "zero_fill", 0)
        elif self.qp is None:
            # same machine: share the producer's frame directly (CoW)
            self.remote_faults += 1
            frame = space.physical.get(remote_pfn)
            if lin is not None:
                lin.page_pulled(self.name, space.name, vpn, "shared", 0)
        else:
            self.remote_faults += 1
            self.pages_fetched += 1
            pages = None  # stays so for the RPC baseline and a broken QP
            if self.fetch_mode == FETCH_RDMA:
                try:
                    pages = self.qp.read_pages((remote_pfn,), space.ledger)
                except QpBroken:
                    if not self.rpc_fallback:
                        raise
                    # the QP died, the producer is up: through its CPU
                    self.fallback_faults += 1
            (frame,) = space.physical.allocate_run(
                pages if pages is not None
                else (bytearray(self._fetch_page_rpc(space, remote_pfn)),))
            if lin is not None:
                lin.page_pulled(self.name, space.name, vpn, "demand",
                                PAGE_SIZE, rpc=pages is None)
        return space.page_table.map(vpn, frame.pfn, PTE_PRESENT | PTE_COW)

    def fault_run(self, space: "AddressSpace", vpn: int, count: int,
                  write: bool) -> List[PTE]:
        """Demand-fault the leading pages of a stretch in one step: READs
        the QP checks and prices once (each still its own READ), or on
        the same machine the producer's frames shared; lineage records
        each page's pull as :meth:`handle_fault` would.  Left to
        :meth:`handle_fault`: a write (each page breaks CoW before the
        next faults), a page the snapshot does not name (zero-fill, or an
        unfetched lazy PTE region), the RPC path, an unusable QP, a
        producer frame gone, and no free frame."""
        if write:
            return [self.handle_fault(space, vpn, write)]
        if self.qp is None:
            source = space.physical
        else:
            remote = self.qp.peer() if self.fetch_mode == FETCH_RDMA else None
            source = remote.physical if remote is not None else None
            count = min(count, space.physical.capacity_frames
                        - space.physical.used_frames)
        pfns = source.resident_prefix(map(
            self.snapshot.get, range(vpn, vpn + count))) if source else []
        if not pfns:
            return [self.handle_fault(space, vpn, write)]
        # one fault before the READs and the rest after: a hub lays each
        # READ's op frame where a page's walk and fault put it one at a time
        fault_ns, hub = space.cost.page_fault_ns, _telemetry()
        lin = hub.lineage if hub is not None else None
        space.ledger.charge(fault_ns, "remote-fault")
        self.remote_faults += len(pfns)
        if self.qp is None:
            for page, pfn in enumerate(pfns, vpn):
                source.get(pfn)
                if lin is not None:
                    lin.page_pulled(self.name, space.name, page, "shared", 0)
        else:
            self.pages_fetched += len(pfns)
            pfns = [frame.pfn for frame in space.physical.allocate_run(
                self.qp.read_pages(
                    pfns, space.ledger,
                    gap_ns=space.cost.page_table_walk_ns + fault_ns))]
            if lin is not None:
                for page in range(vpn, vpn + len(pfns)):
                    lin.page_pulled(self.name, space.name, page, "demand",
                                    PAGE_SIZE, rpc=False)
        space.ledger.charge((len(pfns) - 1) * fault_ns, "remote-fault")
        return space.page_table.map_run(vpn, pfns, PTE_PRESENT | PTE_COW)

    def _fetch_page_rpc(self, space: "AddressSpace",
                        remote_pfn: int) -> bytes:
        # RPC baseline: two-sided message through the remote CPU, with the
        # extra copies a messaging path implies (Section 3.1 / Section 5.5).
        fabric = self.qp.nic.fabric
        remote = fabric.machine(self.qp.remote_mac)
        try:
            data = remote.physical.read_frame(remote_pfn)
        except MemoryError_ as err:
            raise RemoteAccessError(
                f"RPC page read of pfn {remote_pfn} on "
                f"{self.qp.remote_mac!r}: remote memory invalid ({err})"
            ) from err
        cost = space.cost
        wire = transfer_time_ns(PAGE_SIZE, cost.rdma_bandwidth_gbps)
        copies = 2 * transfer_time_ns(PAGE_SIZE, cost.serialize_copy_gbps)
        penalty = fabric.penalty(self.qp.nic.mac_addr, self.qp.remote_mac)
        space.ledger.charge(
            int(penalty * (cost.rpc_roundtrip_ns + wire + copies)),
            "rpc-page-read")
        return data

    # --- prefetch (Section 4.4) -------------------------------------------------

    def prefetch(self, space: "AddressSpace", vaddrs: Iterable[int],
                 doorbell: bool = True) -> int:
        """Fetch the pages covering *vaddrs* ahead of demand.

        With ``doorbell=True`` (the design) all pages travel in one
        doorbell-batched request; ``doorbell=False`` issues one READ per
        page — the ablation showing why batching matters (Section 4.4).
        Returns the number of pages installed.  Pages already present are
        skipped; addresses outside the mapping raise
        :class:`SegmentationFault` (the producer sent a bogus page list).
        """
        hub = _telemetry()
        lin = hub.lineage if hub is not None else None
        wanted: List[int] = []
        seen = set()
        for vaddr in vaddrs:
            vpn = page_number(vaddr)
            if vpn in seen:
                continue
            seen.add(vpn)
            if vaddr not in self.range:
                raise SegmentationFault(vaddr, "prefetch outside rmap range")
            if space.page_table.lookup(vpn) is None \
                    and self._ensure_pte(space, vpn) is not None:
                wanted.append(vpn)
        if not wanted:
            return 0
        if self.qp is None:
            # same machine: map the shared frames, no network
            for vpn in wanted:
                frame = space.physical.get(self.snapshot[vpn])
                space.page_table.map(vpn, frame.pfn, PTE_PRESENT | PTE_COW)
                if lin is not None:
                    lin.page_pulled(self.name, space.name, vpn, "shared", 0)
            return len(wanted)
        pages = None  # stays so for the RPC baseline and a broken QP
        if self.fetch_mode == FETCH_RDMA:
            try:
                if doorbell:
                    pages = self.qp.read_batch(
                        [ReadRequest(self.snapshot[vpn]) for vpn in wanted],
                        space.ledger, category="rdma-prefetch")
                else:
                    pages = self.qp.read_pages(
                        [self.snapshot[vpn] for vpn in wanted],
                        space.ledger, category="rdma-prefetch")
            except QpBroken:
                if not self.rpc_fallback:
                    raise
                self.fallback_faults += len(wanted)
        rpc = pages is None
        if rpc:
            pages = [self._fetch_page_rpc(space, self.snapshot[vpn])
                     for vpn in wanted]
        for vpn, data in zip(wanted, pages):
            (frame,) = space.physical.allocate_run((bytearray(data),))
            space.page_table.map(vpn, frame.pfn, PTE_PRESENT | PTE_COW)
        self.pages_fetched += len(wanted)
        if lin is not None:
            for vpn in wanted:
                lin.page_pulled(self.name, space.name, vpn, "prefetch",
                                PAGE_SIZE, rpc=rpc)
        return len(wanted)
