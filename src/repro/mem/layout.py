"""Address-space layout constants and range arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryError_
from repro.units import PAGE_SHIFT, PAGE_SIZE

# x86-64 user virtual address space: 2**48 bytes (Section 4.2, footnote 5).
USER_SPACE_TOP = 1 << 48


def page_number(vaddr: int) -> int:
    """Virtual page number containing *vaddr*."""
    return vaddr >> PAGE_SHIFT


def page_round_down(vaddr: int) -> int:
    return vaddr & ~(PAGE_SIZE - 1)


def page_round_up(vaddr: int) -> int:
    return (vaddr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


@dataclass(frozen=True)
class AddressRange:
    """A half-open virtual address range ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end <= USER_SPACE_TOP):
            raise MemoryError_(
                f"invalid range [{self.start:#x}, {self.end:#x})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def __contains__(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def contains_range(self, other: "AddressRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start < other.end and other.start < self.end

    def split(self, parts: int) -> list:
        """Split into *parts* page-aligned sub-ranges of equal size."""
        if parts < 1:
            raise MemoryError_("parts must be >= 1")
        chunk = page_round_down(self.size // parts)
        if chunk < PAGE_SIZE:
            raise MemoryError_(f"range too small to split into {parts}")
        out = []
        start = self.start
        for i in range(parts):
            end = self.end if i == parts - 1 else start + chunk
            out.append(AddressRange(start, end))
            start = end
        return out

    def __repr__(self) -> str:
        return f"AddressRange({self.start:#x}, {self.end:#x})"


@dataclass(frozen=True)
class SegmentLayout:
    """Where a container's segments sit inside its planned range.

    Mirrors the paper's link-script + ``set_segment`` mechanism: text/data
    are placed by static linking; heap and stack are pinned by the kernel.
    """

    text: AddressRange
    data: AddressRange
    heap: AddressRange
    stack: AddressRange

    @classmethod
    def within(cls, rng: AddressRange,
               text_frac: float = 0.02,
               data_frac: float = 0.08,
               stack_frac: float = 0.02) -> "SegmentLayout":
        """Carve a conventional layout out of a planned range.

        Heap receives everything not claimed by text/data/stack; it is by far
        the largest segment, matching managed-runtime behaviour.
        """
        size = rng.size
        text_sz = max(PAGE_SIZE, page_round_down(int(size * text_frac)))
        data_sz = max(PAGE_SIZE, page_round_down(int(size * data_frac)))
        stack_sz = max(PAGE_SIZE, page_round_down(int(size * stack_frac)))
        heap_sz = size - text_sz - data_sz - stack_sz
        if heap_sz < PAGE_SIZE:
            raise MemoryError_("planned range too small for a heap")
        text = AddressRange(rng.start, rng.start + text_sz)
        data = AddressRange(text.end, text.end + data_sz)
        heap = AddressRange(data.end, data.end + heap_sz)
        stack = AddressRange(heap.end, rng.end)
        return cls(text=text, data=data, heap=heap, stack=stack)

    def all_segments(self):
        return [("text", self.text), ("data", self.data),
                ("heap", self.heap), ("stack", self.stack)]
