"""Simulated physical/virtual memory.

Physical memory is real ``bytearray``-backed frames with ``page_t``-style
reference counts.  Virtual memory is page tables plus VMAs with pluggable
fault handlers (anonymous zero-fill, or the kernel's remote pager).  The
layout mirrors the paper's setting: each function container owns a planned,
disjoint slice of a 48-bit address space.
"""

from repro.mem.layout import (PAGE_SHIFT, PAGE_SIZE, USER_SPACE_TOP,
                              AddressRange, SegmentLayout, page_number,
                              page_round_down, page_round_up)
from repro.mem.physical import Frame, PhysicalMemory
from repro.mem.pagetable import PTE_COW, PTE_PRESENT, PTE_WRITE, PageTable, PTE
from repro.mem.vma import VMA, AnonymousVMA
from repro.mem.address_space import AddressSpace
from repro.mem.allocator import HeapAllocator
