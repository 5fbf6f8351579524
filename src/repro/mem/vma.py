"""Virtual memory areas with pluggable fault handlers."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import SegmentationFault
from repro.mem.layout import AddressRange
from repro.mem.pagetable import PTE, PTE_PRESENT, PTE_WRITE
from repro.units import PAGE_SHIFT, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.address_space import AddressSpace


class VMA:
    """A mapped virtual range plus the policy for populating its pages.

    Subclasses override :meth:`handle_fault` — the paper's "special (logical)
    device" hooking the fault handler is exactly such a subclass
    (:class:`repro.kernel.remote_pager.RemoteVMA`) — and may override
    :meth:`fault_run` to serve a stretch of missing pages in one step.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class overriding only the per-page handler must not inherit a
        # run handler that would fault pages without calling it
        if "handle_fault" in vars(cls) and "fault_run" not in vars(cls):
            cls.fault_run = VMA.fault_run

    def __init__(self, rng: AddressRange, name: str = "vma",
                 writable: bool = True):
        self.range = rng
        self.name = name
        self.writable = writable

    def handle_fault(self, space: "AddressSpace", vpn: int,
                     write: bool) -> PTE:
        raise NotImplementedError

    def fault_run(self, space: "AddressSpace", vpn: int, count: int,
                  write: bool) -> List[PTE]:
        """Fault in a leading part — at least a page — of the *count*
        adjacent missing pages from *vpn* on in one step, returning its
        PTEs: the effects of as many :meth:`handle_fault` calls, charges
        summed by category, hub installed or not.  Only the first page
        may fail; on a write, the rest must map writable."""
        return [self.handle_fault(space, vpn, write)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"[{self.range.start:#x},{self.range.end:#x})>")


class AnonymousVMA(VMA):
    """Demand-zero anonymous memory (heap, stack, bss)."""

    def handle_fault(self, space: "AddressSpace", vpn: int,
                     write: bool) -> PTE:
        return AnonymousVMA.fault_run(self, space, vpn, 1, write)[0]

    def fault_run(self, space: "AddressSpace", vpn: int, count: int,
                  write: bool) -> List[PTE]:
        """Zeroed pages, as many as there are frames for."""
        if write and not self.writable:
            raise SegmentationFault(vpn << PAGE_SHIFT,
                                    "write to read-only vma")
        count = max(1, min(count, space.physical.capacity_frames
                               - space.physical.used_frames))  # 0: OOM
        frames = space.physical.allocate_run(
            [bytearray(PAGE_SIZE) for _ in range(count)])
        space.ledger.charge(count * space.cost.page_fault_ns, "fault")
        return space.page_table.map_run(
            vpn, [frame.pfn for frame in frames],
            PTE_PRESENT | (PTE_WRITE if self.writable else 0))


class FileVMA(VMA):
    """A read-only mapping of immutable content (text segment, CDS archive).

    Pages are populated from *content* on first touch; used to model shared
    type-metadata segments (Section 4.3's class-data sharing).
    """

    def __init__(self, rng: AddressRange, content: bytes, name: str = "file"):
        super().__init__(rng, name=name, writable=False)
        self.content = content

    def handle_fault(self, space: "AddressSpace", vpn: int,
                     write: bool) -> PTE:
        if write:
            raise SegmentationFault(vpn << PAGE_SHIFT,
                                    "write to file-backed vma")
        offset = (vpn << PAGE_SHIFT) - self.range.start
        chunk = self.content[offset:offset + PAGE_SIZE]
        (frame,) = space.physical.allocate_run(
            (bytearray(chunk).ljust(PAGE_SIZE, b"\0"),))
        space.ledger.charge(space.cost.page_fault_ns, "fault")
        return space.page_table.map(vpn, frame.pfn, PTE_PRESENT)
