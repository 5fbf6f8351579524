"""Per-container address spaces: VMAs + page table + byte-level access."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.errors import AddressConflict, SegmentationFault
from repro.mem.layout import AddressRange, SegmentLayout, page_number
from repro.mem.pagetable import (PTE, PTE_COW, PTE_PRESENT, PTE_WRITE,
                                 PageTable)
from repro.mem.physical import PhysicalMemory
from repro.mem.vma import VMA
from repro.obs.telemetry import current as _telemetry
from repro.sim.ledger import Ledger
from repro.units import (PAGE_SHIFT, PAGE_SIZE, CostModel,
                         DEFAULT_COST_MODEL)


#: a write goes straight through only when WRITE is set and COW is not
_WRITE_BITS = PTE_WRITE | PTE_COW


class AddressSpace:
    """The virtual memory of one container (process).

    Byte-level :meth:`read`/:meth:`write` walk the page table, dispatching
    misses and CoW breaks to the owning VMA; every hardware-visible effect
    charges the space's :class:`~repro.sim.ledger.Ledger`.
    """

    def __init__(self, physical: PhysicalMemory, name: str = "as",
                 cost: CostModel = DEFAULT_COST_MODEL,
                 ledger: Optional[Ledger] = None):
        self.physical = physical
        self.name = name
        self.cost = cost
        self.ledger = ledger if ledger is not None else Ledger()
        self.page_table = PageTable()
        self._vmas: List[VMA] = []
        self.segments: Optional[SegmentLayout] = None
        self.fault_count = 0
        self.cow_break_count = 0
        # Resident pages of the interpreter + imported libraries, modeled as
        # pure accounting (no frames): whole-address-space registration must
        # CoW-mark them and ship their PTEs (Section 6 "Map the heap vs.
        # Map the whole address space").
        self.extra_resident_pages = 0

    # --- VMA management -------------------------------------------------------

    def map_vma(self, vma: VMA) -> VMA:
        """Install *vma*; raises :class:`AddressConflict` on overlap."""
        for existing in self._vmas:
            if existing.range.overlaps(vma.range):
                raise AddressConflict(
                    f"{vma!r} overlaps {existing!r} in {self.name}")
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.range.start)
        return vma

    def unmap_vma(self, vma: VMA, free_frames: bool = True) -> None:
        """Remove *vma*, dropping frame references for its present pages.

        Walks only the *resident* entries of the range (ascending vpn —
        the same frame-free order as a dense page walk, so pfn reuse
        stays deterministic) instead of probing every page of a mostly
        sparse VMA.
        """
        self._vmas.remove(vma)
        table = self.page_table
        pfns = [table.unmap(vpn).pfn for vpn, _pte in list(table.entries_in(
            page_number(vma.range.start), page_number(vma.range.end - 1)))]
        if free_frames:
            self.physical.put_run(pfns)
        hub = _telemetry()
        if hub is not None and hub.lineage is not None:
            hub.lineage.vma_unmapped(self.name, vma.name)

    def find_vma(self, vaddr: int) -> Optional[VMA]:
        for vma in self._vmas:
            if vaddr in vma.range:
                return vma
        return None

    def vmas(self) -> List[VMA]:
        return list(self._vmas)

    def set_segments(self, layout: SegmentLayout) -> None:
        """Pin the segment layout (the ``set_segment`` syscall's effect)."""
        self.segments = layout

    # --- translation ---------------------------------------------------------

    def translate(self, vaddr: int, write: bool = False) -> PTE:
        """Resolve *vaddr* to a PTE, faulting in the page if needed."""
        pte = self.page_table.lookup(vaddr >> PAGE_SHIFT)
        if pte is None:
            return self.resolve_run(vaddr, 1, write)[0]
        self.ledger.charge(self.cost.page_table_walk_ns, "mmu")
        if write and pte.flags & _WRITE_BITS != PTE_WRITE:
            pte = self._break_cow(vaddr, pte)
        return pte

    def resolve_run(self, vaddr: int, count: int, write: bool = False,
                    out: Optional[List[PTE]] = None) -> List[PTE]:
        """*count* calls of :meth:`translate` on adjacent pages from
        *vaddr*'s on, each PTE appended to *out* (a new list by default)
        as it resolves, so a caller catching page *k*'s error finds the
        pages before it there.  The span is looked up in one pass; each
        stretch of missing pages goes to its VMA's ``fault_run`` whole,
        and a hub records the faults it served as one count."""
        charge, walk_ns = self.ledger.charge, self.cost.page_table_walk_ns
        ptes = [] if out is None else out
        vpn = first = vaddr >> PAGE_SHIFT
        end = first + count
        found = list(map(self.page_table.lookup, range(first, end)))
        if None not in found and not (write and any(
                pte.flags & _WRITE_BITS != PTE_WRITE for pte in found)):
            charge(count * walk_ns, "mmu")
            ptes += found
            return ptes
        hub, vma = _telemetry(), None
        while vpn < end:
            charge(walk_ns, "mmu")
            run = (found[vpn - first],)
            if run[0] is None:
                if vma is None or vaddr not in vma.range:
                    vma = self.find_vma(vaddr)
                if vma is None:
                    raise SegmentationFault(vaddr)
                n, stop = 1, min(end, page_number(vma.range.end - 1) + 1)
                while vpn + n < stop and found[vpn + n - first] is None:
                    n += 1
                self.fault_count += 1
                run = vma.fault_run(self, vpn, n, write)
                # nothing reads the ledger between one stretch's faults
                charge((len(run) - 1) * walk_ns, "mmu")
                self.fault_count += len(run) - 1
                if hub is not None:
                    hub.count(self.name, "mem", "faults", len(run))
                    hub.gauge_max(self.name, "mem", "resident.pages.hw",
                                  len(self.page_table))
            for pte in run:
                if write and pte.flags & _WRITE_BITS != PTE_WRITE:
                    pte = self._break_cow(vaddr, pte)
                ptes.append(pte)
                vpn += 1
                vaddr = vpn << PAGE_SHIFT
        return ptes

    def _break_cow(self, vaddr: int, pte: PTE) -> PTE:
        """A write to a page *pte* maps read-only: a private copy of the
        frame if it is CoW, else a :class:`SegmentationFault`."""
        if not pte.cow:
            raise SegmentationFault(vaddr, "write to read-only page")
        vpn = vaddr >> PAGE_SHIFT
        self.cow_break_count += 1
        old_pfn = pte.pfn
        frame = self.physical.duplicate(old_pfn)
        self.physical.put(old_pfn)
        self.ledger.charge(self.cost.page_fault_ns, "cow-break")
        hub = _telemetry()
        if hub is not None:
            hub.count(self.name, "mem", "cow.breaks")
            if hub.lineage is not None:
                hub.lineage.cow_broken(self.name, vpn)
        return self.page_table.remap(vpn, frame.pfn, PTE_PRESENT | PTE_WRITE)

    # --- byte access -----------------------------------------------------------

    def read(self, vaddr: int, length: int) -> bytes:
        """Read *length* bytes, crossing page boundaries as needed."""
        with PageCursor(self) as cursor:
            return cursor.read(vaddr, length)

    def write(self, vaddr: int, data: bytes) -> None:
        """Write *data*, breaking CoW and crossing pages as needed."""
        self.write_batch(((vaddr, data),))

    def write_batch(self, items: Iterable[Tuple[int, bytes]]) -> None:
        """Do each ``(vaddr, data)`` write of *items*, in order.

        A chunk landing on the page the previous chunk translated reuses
        that frame — nothing in one call can unmap or re-protect a page it
        has just made writable — and the walks so skipped are charged in
        one sum before the next real walk and when the call ends.
        """
        hub = _telemetry()
        lineage = hub.lineage if hub is not None else None
        frame = self.physical.frame
        skipped = 0
        last_vpn = -1
        frame_data = None
        try:
            for vaddr, data in items:
                remaining = len(data)
                if lineage is not None:
                    lineage.touched(self.name, vaddr, remaining)
                off = vaddr & (PAGE_SIZE - 1)
                if 0 < remaining <= PAGE_SIZE - off \
                        and vaddr >> PAGE_SHIFT == last_vpn:
                    skipped += 1
                    frame_data[off:off + remaining] = data
                    continue
                if remaining <= 0:
                    continue
                # one run (a cached first page is simply present, writable)
                self.ledger.charge(
                    skipped * self.cost.page_table_walk_ns, "mmu")
                skipped = 0
                last_vpn = (vaddr + remaining - 1) >> PAGE_SHIFT
                if last_vpn == vaddr >> PAGE_SHIFT:
                    frame_data = frame(self.translate(vaddr, True).pfn).data
                    frame_data[off:off + remaining] = data
                    continue
                ptes: List[PTE] = []
                try:
                    self.resolve_run(vaddr, last_vpn - (vaddr >> PAGE_SHIFT)
                                     + 1, True, ptes)
                finally:  # the pages before a failing one are written
                    data, pos = memoryview(data), 0  # gone with the item
                    for pte in ptes:
                        frame_data = frame(pte.pfn).data
                        chunk = min(remaining - pos, PAGE_SIZE - off)
                        frame_data[off:off + chunk] = data[pos:pos + chunk]
                        pos += chunk
                        off = 0
        finally:
            self.ledger.charge(skipped * self.cost.page_table_walk_ns, "mmu")

    def read_u64(self, vaddr: int) -> int:
        return int.from_bytes(self.read(vaddr, 8), "little")

    def write_u64(self, vaddr: int, value: int) -> None:
        self.write(vaddr, (value & ((1 << 64) - 1)).to_bytes(8, "little"))

    # --- CoW marking (register_mem's producer-side step) ----------------------

    def mark_range_cow(self, rng: AddressRange) -> int:
        """Mark all present pages in *rng* CoW; returns pages marked.

        Flag-flip only: the shadow-copy references that keep pages alive
        after the producer exits (Section 4.1) are taken by the kernel's
        registration via ``PhysicalMemory.get``, so independent registrations
        can be deregistered independently.
        """
        marked = 0
        first = page_number(rng.start)
        last = page_number(rng.end - 1)
        for _vpn, pte in self.page_table.entries_in(first, last):
            if not pte.cow:
                pte.mark_cow()
                marked += 1
        self.ledger.charge(marked * self.cost.cow_mark_per_page_ns, "cow-mark")
        if marked:
            hub = _telemetry()
            if hub is not None:
                hub.count(self.name, "mem", "cow.marked", marked)
        return marked

    # --- introspection -----------------------------------------------------------

    def resident_pages(self) -> int:
        return len(self.page_table)


class PageCursor:
    """The read-side dual of :meth:`AddressSpace.write_batch`'s last-page
    cache, scoped to one read-only walk of a heap (``with`` block).

    A read that stays on the page the previous read translated reuses
    that frame — nothing may write, remap or unmap while the cursor is
    open, which is why it lives for one call — and the page-table walks
    so skipped are charged in aggregate, never dropped: before the next
    real walk (a remote fault records spans at ``ledger.pending``
    offsets) and when the block ends.  A read a walker takes straight
    from present frames is :meth:`elided`: still charged and reported,
    in order.
    """

    __slots__ = ("_space", "_lineage", "_vpn", "_data", "_skipped")

    def __init__(self, space: AddressSpace):
        hub = _telemetry()
        self._space = space
        self._lineage = hub.lineage if hub is not None else None
        self._vpn = -1
        self._data = None
        self._skipped = 0

    def read(self, vaddr: int, length: int) -> bytes:
        """Read *length* bytes, crossing page boundaries as needed."""
        if self._lineage is not None:
            self._lineage.touched(self._space.name, vaddr, length)
        space = self._space
        off = vaddr & (PAGE_SIZE - 1)
        if 0 < length <= PAGE_SIZE - off:
            if vaddr >> PAGE_SHIFT == self._vpn:
                self._skipped += 1
            else:
                self.flush()
                pte = space.translate(vaddr)
                self._data = space.physical.frame(pte.pfn).data
                self._vpn = vaddr >> PAGE_SHIFT
            return bytes(self._data[off:off + length])
        if length <= 0:
            return b""
        # several pages, one run (a cached first page is simply present)
        self.flush()
        frame = space.physical.frame
        pages = [frame(pte.pfn).data for pte in space.resolve_run(
            vaddr, ((off + length - 1) >> PAGE_SHIFT) + 1)]
        self._data = last = pages[-1]
        self._vpn = (vaddr + length - 1) >> PAGE_SHIFT
        pages[0] = memoryview(pages[0])[off:]
        pages[-1] = memoryview(last)[:(off + length - 1) % PAGE_SIZE + 1]
        return b"".join(pages)

    def elided(self, vaddrs, lengths) -> None:
        """Account the reads of ``lengths[i]`` bytes at ``vaddrs[i]`` (int
        arrays, in read order) that a caller took from frames it found
        present instead of through :meth:`read`: each is still reported
        to lineage and still charges one walk per page it spans, deferred
        like a cached page's."""
        if self._lineage is not None:
            touched, name = self._lineage.touched, self._space.name
            for vaddr, length in zip(vaddrs.tolist(), lengths.tolist()):
                touched(name, vaddr, length)
        pages = ((vaddrs + lengths - 1) >> PAGE_SHIFT) - (vaddrs >> PAGE_SHIFT)
        self._skipped += int((pages + 1)[lengths > 0].sum())

    def flush(self) -> None:
        """Charge the walks skipped since the last real one."""
        space = self._space
        space.ledger.charge(self._skipped * space.cost.page_table_walk_ns,
                            "mmu")
        self._skipped = 0

    def __enter__(self) -> "PageCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()
