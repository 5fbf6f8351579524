"""Virtual memory areas with pluggable fault handlers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

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
    :meth:`handle_fault_run` to serve adjacent pages a run at a time.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class overriding only the per-page handler must not inherit a
        # run handler that would fault pages without calling it
        if "handle_fault" in vars(cls) and "handle_fault_run" not in vars(cls):
            cls.handle_fault_run = VMA.handle_fault_run

    def __init__(self, rng: AddressRange, name: str = "vma",
                 writable: bool = True):
        self.range = rng
        self.name = name
        self.writable = writable

    def handle_fault(self, space: "AddressSpace", vpn: int,
                     write: bool) -> PTE:
        raise NotImplementedError

    def handle_fault_run(self, space: "AddressSpace", vpn: int, count: int,
                         write: bool) -> Iterator[PTE]:
        """The PTEs of *count* adjacent missing pages from *vpn* on, each
        faulted only as its PTE is taken (the address space charges its
        walk first, and breaks CoW on a write before the next): the
        effects of *count* calls of :meth:`handle_fault`, in order."""
        return (self.handle_fault(space, v, write)
                for v in range(vpn, vpn + count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"[{self.range.start:#x},{self.range.end:#x})>")


class AnonymousVMA(VMA):
    """Demand-zero anonymous memory (heap, stack, bss)."""

    def handle_fault(self, space: "AddressSpace", vpn: int,
                     write: bool) -> PTE:
        if write and not self.writable:
            raise SegmentationFault(vpn << PAGE_SHIFT,
                                    "write to read-only vma")
        frame = space.physical.allocate()
        flags = PTE_PRESENT | (PTE_WRITE if self.writable else 0)
        space.ledger.charge(space.cost.page_fault_ns, "fault")
        return space.page_table.map(vpn, frame.pfn, flags)


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
        frame = space.physical.allocate_from(chunk.ljust(PAGE_SIZE, b"\0"))
        space.ledger.charge(space.cost.page_fault_ns, "fault")
        return space.page_table.map(vpn, frame.pfn, PTE_PRESENT)
