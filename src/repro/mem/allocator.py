"""A first-fit free-list allocator over a heap segment.

The managed runtime allocates object storage through this allocator; the
addresses it hands out are *virtual* addresses inside the owning container's
planned heap range, which is what makes pointer-identical remote mapping
possible.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.errors import MemoryError_, OutOfMemory
from repro.mem.layout import AddressRange

_ALIGN = 16


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class HeapAllocator:
    """First-fit allocation with coalescing free list."""

    def __init__(self, rng: AddressRange):
        self.range = rng
        # free list of (start, size), sorted by start
        self._free: List[Tuple[int, int]] = [(rng.start, rng.size)]
        self._allocated: dict = {}
        self.bytes_in_use = 0
        self.high_water = rng.start

    def alloc(self, size: int) -> int:
        """Allocate *size* bytes; returns the virtual address."""
        if size <= 0:
            raise MemoryError_(f"bad allocation size {size}")
        size = _align_up(size)
        for i, (start, free_size) in enumerate(self._free):
            if free_size >= size:
                if free_size == size:
                    self._free.pop(i)
                else:
                    self._free[i] = (start + size, free_size - size)
                self._allocated[start] = size
                self.bytes_in_use += size
                end = start + size
                if end > self.high_water:
                    self.high_water = end
                return start
        free = self.free_bytes()
        raise OutOfMemory(f"heap exhausted: need {size} bytes, {free} free"
                          + (" (fragmented)" if free >= size else ""))

    def alloc_run(self, sizes: Sequence[int]) -> List[int]:
        """``[self.alloc(size) for size in sizes]``, carved in one step
        when the first free block holds the whole run: first-fit would
        serve every request from that block, back to back."""
        aligned = [(size + _ALIGN - 1) & -_ALIGN for size in sizes]
        total = sum(aligned)
        start, free_size = self._free[0] if self._free else (0, 0)
        if free_size < total or min(aligned, default=0) <= 0:
            return [self.alloc(size) for size in sizes]
        if free_size == total:
            self._free.pop(0)
        else:
            self._free[0] = (start + total, free_size - total)
        addrs = list(accumulate(aligned[:-1], initial=start))
        self._allocated.update(zip(addrs, aligned))
        self.bytes_in_use += total
        self.high_water = max(self.high_water, start + total)
        return addrs

    def free(self, vaddr: int) -> int:
        """Free a prior allocation; returns its size."""
        try:
            size = self._allocated.pop(vaddr)
        except KeyError:
            raise MemoryError_(f"free of unallocated address {vaddr:#x}") \
                from None
        self.bytes_in_use -= size
        self._insert_free(vaddr, size)
        return size

    def free_all(self) -> int:
        """Free every allocation in one step (the state that freeing each
        one leaves: one coalesced block); returns the bytes freed."""
        freed, self.bytes_in_use = self.bytes_in_use, 0
        self._allocated.clear()
        self._free = [(self.range.start, self.range.size)]
        return freed

    def _insert_free(self, start: int, size: int) -> None:
        # binary-search insertion point, then coalesce with neighbours
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (start, size))
        # coalesce with next
        if lo + 1 < len(self._free):
            nstart, nsize = self._free[lo + 1]
            if start + size == nstart:
                self._free[lo] = (start, size + nsize)
                self._free.pop(lo + 1)
                size += nsize
        # coalesce with previous
        if lo > 0:
            pstart, psize = self._free[lo - 1]
            if pstart + psize == start:
                self._free[lo - 1] = (pstart, psize + size)
                self._free.pop(lo)

    def allocation_size(self, vaddr: int) -> int:
        try:
            return self._allocated[vaddr]
        except KeyError:
            raise MemoryError_(f"{vaddr:#x} is not an allocation") from None

    def is_allocated(self, vaddr: int) -> bool:
        return vaddr in self._allocated

    def free_bytes(self) -> int:
        return sum(size for _start, size in self._free)

    def allocations(self) -> int:
        return len(self._allocated)

    def allocations_dict(self) -> List[int]:
        """Start addresses of all live allocations (GC sweep input)."""
        return list(self._allocated)
