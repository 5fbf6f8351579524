"""Edge cases across the memory substrate."""

import pytest

from repro.errors import MemoryError_, OutOfMemory, SegmentationFault
from repro.mem import (PAGE_SIZE, AddressRange, AddressSpace, AnonymousVMA,
                       HeapAllocator, PhysicalMemory, SegmentLayout)
from repro.mem.pagetable import PTE, PTE_PRESENT, PageTable

BASE = 0x1000_0000


# --- page table ----------------------------------------------------------------

def test_pagetable_double_map_rejected():
    pt = PageTable()
    pt.map(5, 100)
    with pytest.raises(MemoryError_):
        pt.map(5, 101)


def test_pagetable_remap_requires_existing():
    pt = PageTable()
    with pytest.raises(MemoryError_):
        pt.remap(5, 100, PTE_PRESENT)


def test_pagetable_unmap_missing_rejected():
    pt = PageTable()
    with pytest.raises(MemoryError_):
        pt.unmap(9)


def test_pagetable_entries_in_dense_and_sparse():
    pt = PageTable()
    for vpn in (1, 5, 100, 10_000):
        pt.map(vpn, vpn * 10)
    # sparse iteration path (range much larger than table)
    found = dict(pt.entries_in(0, 1_000_000))
    assert set(found) == {1, 5, 100, 10_000}
    # dense iteration path (range smaller than table size)
    found = dict(pt.entries_in(4, 6))
    assert set(found) == {5}


def test_pte_flag_transitions():
    pte = PTE(7)
    assert pte.present and pte.writable and not pte.cow
    pte.mark_cow()
    assert pte.cow and not pte.writable and pte.present


def test_pagetable_snapshot_subset():
    pt = PageTable()
    for vpn in range(10):
        pt.map(vpn, vpn + 50)
    snap = pt.snapshot(3, 5)
    assert snap == {3: 53, 4: 54, 5: 55}


# --- address space ----------------------------------------------------------------

def test_zero_length_read_write():
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + PAGE_SIZE)))
    assert space.read(BASE, 0) == b""
    space.write(BASE, b"")  # no-op, no fault
    assert space.resident_pages() == 0


def test_read_beyond_vma_end_segfaults():
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + PAGE_SIZE)))
    with pytest.raises(SegmentationFault):
        space.read(BASE + PAGE_SIZE - 2, 4)  # crosses into unmapped


def test_adjacent_vmas_are_continuous():
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + PAGE_SIZE)))
    space.map_vma(AnonymousVMA(AddressRange(BASE + PAGE_SIZE,
                                            BASE + 2 * PAGE_SIZE)))
    payload = b"spanning-vmas!"
    space.write(BASE + PAGE_SIZE - 7, payload)
    assert space.read(BASE + PAGE_SIZE - 7, len(payload)) == payload


def test_find_vma_boundaries():
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    vma = AnonymousVMA(AddressRange(BASE, BASE + PAGE_SIZE))
    space.map_vma(vma)
    assert space.find_vma(BASE) is vma
    assert space.find_vma(BASE + PAGE_SIZE - 1) is vma
    assert space.find_vma(BASE + PAGE_SIZE) is None
    assert space.find_vma(BASE - 1) is None


def test_physical_capacity_pressure_surfaces_as_oom():
    pm = PhysicalMemory(capacity_bytes=2 * PAGE_SIZE)
    space = AddressSpace(pm)
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + 16 * PAGE_SIZE)))
    space.write(BASE, b"1")
    space.write(BASE + PAGE_SIZE, b"2")
    with pytest.raises(OutOfMemory):
        space.write(BASE + 2 * PAGE_SIZE, b"3")


def test_allocator_says_fragmented_only_when_enough_is_free():
    holes = HeapAllocator(AddressRange(BASE, BASE + 256))
    blocks = [holes.alloc(32) for _ in range(8)]
    for addr in blocks[::2]:
        holes.free(addr)  # 128 bytes free, in four 32-byte holes
    with pytest.raises(OutOfMemory, match=r"^heap exhausted: need 128 bytes, "
                       r"128 free \(fragmented\)$"):
        holes.alloc(128)
    full = HeapAllocator(AddressRange(BASE, BASE + 256))
    full.alloc(160)  # 96 bytes free, in one block
    with pytest.raises(OutOfMemory, match=r"^heap exhausted: need 128 bytes, "
                       r"96 free$"):
        full.alloc(128)


def test_segment_layout_rejects_tiny_range():
    with pytest.raises(MemoryError_):
        SegmentLayout.within(AddressRange(BASE, BASE + 2 * PAGE_SIZE))


def test_cow_break_on_partially_shared_write():
    """A write spanning CoW and private pages breaks only the CoW one."""
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + 4 * PAGE_SIZE)))
    space.write(BASE, b"x" * (2 * PAGE_SIZE))
    space.mark_range_cow(AddressRange(BASE, BASE + PAGE_SIZE))  # page 0
    # pin page 0's frame like a registration would
    pte0 = space.page_table.lookup(BASE >> 12)
    space.physical.get(pte0.pfn)
    space.write(BASE + PAGE_SIZE - 4, b"bridge!!")  # spans pages 0+1
    assert space.read(BASE + PAGE_SIZE - 4, 8) == b"bridge!!"
    assert space.cow_break_count == 1


# --- heap OOM -------------------------------------------------------------------------

def test_heap_box_oom_on_huge_value():
    from repro.mem.layout import AddressRange as AR
    from repro.runtime.heap import ManagedHeap

    pm = PhysicalMemory()
    space = AddressSpace(pm)
    rng = AR(BASE, BASE + 8 * PAGE_SIZE)
    space.map_vma(AnonymousVMA(rng))
    heap = ManagedHeap(space, rng=rng)
    with pytest.raises(OutOfMemory):
        heap.box(list(range(10_000)))
