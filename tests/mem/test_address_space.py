"""Unit tests for address spaces, VMAs, CoW and the allocator."""

import pytest

from repro.errors import (AddressConflict, MemoryError_, OutOfMemory,
                          SegmentationFault)
from repro.mem import (PAGE_SIZE, AddressRange, AddressSpace, AnonymousVMA,
                       HeapAllocator, PhysicalMemory, SegmentLayout)
from repro.mem.vma import FileVMA

BASE = 0x1000_0000


def make_space(size=64 * PAGE_SIZE):
    pm = PhysicalMemory()
    space = AddressSpace(pm, name="test")
    vma = AnonymousVMA(AddressRange(BASE, BASE + size), name="heap")
    space.map_vma(vma)
    return space, vma


def test_demand_zero_read():
    space, _ = make_space()
    assert space.read(BASE, 16) == b"\x00" * 16


def test_write_then_read_roundtrip():
    space, _ = make_space()
    space.write(BASE + 5, b"hello world")
    assert space.read(BASE + 5, 11) == b"hello world"


def test_cross_page_write_read():
    space, _ = make_space()
    addr = BASE + PAGE_SIZE - 3
    payload = b"spans-two-pages"
    space.write(addr, payload)
    assert space.read(addr, len(payload)) == payload
    assert space.resident_pages() == 2


def test_u64_roundtrip():
    space, _ = make_space()
    space.write_u64(BASE + 8, 0xDEADBEEF_CAFEBABE)
    assert space.read_u64(BASE + 8) == 0xDEADBEEF_CAFEBABE


def test_unmapped_access_segfaults():
    space, _ = make_space()
    with pytest.raises(SegmentationFault):
        space.read(0x42, 1)


def test_vma_overlap_rejected():
    space, _ = make_space()
    with pytest.raises(AddressConflict):
        space.map_vma(AnonymousVMA(AddressRange(BASE + PAGE_SIZE,
                                                BASE + 2 * PAGE_SIZE)))


def test_unmap_vma_frees_frames():
    space, vma = make_space()
    space.write(BASE, b"x" * PAGE_SIZE * 3)
    assert space.physical.used_frames == 3
    space.unmap_vma(vma)
    assert space.physical.used_frames == 0
    with pytest.raises(SegmentationFault):
        space.read(BASE, 1)


def test_fault_count_increments_once_per_page():
    space, _ = make_space()
    space.read(BASE, 10)
    space.read(BASE + 1, 10)  # same page, already resident
    assert space.fault_count == 1


def test_file_vma_reads_content_and_rejects_writes():
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    content = bytes(range(256)) * 32  # two pages
    rng = AddressRange(BASE, BASE + 2 * PAGE_SIZE)
    space.map_vma(FileVMA(rng, content, name="cds"))
    assert space.read(BASE + 100, 8) == content[100:108]
    with pytest.raises(SegmentationFault):
        space.write(BASE, b"nope")


def test_cow_mark_then_write_breaks_cow():
    space, _ = make_space()
    space.write(BASE, b"original")
    rng = AddressRange(BASE, BASE + PAGE_SIZE)
    marked = space.mark_range_cow(rng)
    assert marked == 1
    pte_before = space.page_table.lookup(BASE >> 12)
    assert pte_before.cow and not pte_before.writable
    # a registration-style shadow pin keeps the old frame alive post-break
    space.physical.get(pte_before.pfn)
    # write breaks CoW into a private frame
    space.write(BASE, b"modified")
    pte_after = space.page_table.lookup(BASE >> 12)
    assert pte_after.pfn != pte_before.pfn
    assert not pte_after.cow
    assert space.read(BASE, 8) == b"modified"
    # the original (shadow-pinned) frame still holds the old bytes
    assert space.physical.read_frame(pte_before.pfn, 0, 8) == b"original"
    assert space.cow_break_count == 1


def test_cow_mark_idempotent():
    space, _ = make_space()
    space.write(BASE, b"x")
    rng = AddressRange(BASE, BASE + PAGE_SIZE)
    assert space.mark_range_cow(rng) == 1
    assert space.mark_range_cow(rng) == 0  # already marked


def test_cow_read_does_not_copy():
    space, _ = make_space()
    space.write(BASE, b"data")
    space.mark_range_cow(AddressRange(BASE, BASE + PAGE_SIZE))
    before = space.physical.used_frames
    space.read(BASE, 4)
    assert space.physical.used_frames == before


def test_segment_layout_partition():
    rng = AddressRange(BASE, BASE + (1 << 24))
    layout = SegmentLayout.within(rng)
    segs = layout.all_segments()
    assert segs[0][1].start == rng.start
    assert segs[-1][1].end == rng.end
    for (_n1, a), (_n2, b) in zip(segs, segs[1:]):
        assert a.end == b.start  # contiguous, no gaps


def test_address_range_validation_and_ops():
    with pytest.raises(MemoryError_):
        AddressRange(10, 10)
    r = AddressRange(0x1000, 0x3000)
    assert r.size == 0x2000
    assert 0x1000 in r and 0x3000 not in r
    assert r.overlaps(AddressRange(0x2000, 0x4000))
    assert not r.overlaps(AddressRange(0x3000, 0x4000))
    halves = r.split(2)
    assert halves[0].end == halves[1].start


# --- allocator ---------------------------------------------------------------

def test_allocator_basic_alloc_free():
    alloc = HeapAllocator(AddressRange(BASE, BASE + 16 * PAGE_SIZE))
    a = alloc.alloc(100)
    b = alloc.alloc(200)
    assert a != b
    assert alloc.allocations() == 2
    alloc.free(a)
    alloc.free(b)
    assert alloc.bytes_in_use == 0
    assert alloc.free_bytes() == 16 * PAGE_SIZE


def test_allocator_alignment():
    alloc = HeapAllocator(AddressRange(BASE, BASE + 16 * PAGE_SIZE))
    for size in (1, 7, 15, 17, 100):
        addr = alloc.alloc(size)
        assert addr % 16 == 0


def test_allocator_reuses_freed_space():
    alloc = HeapAllocator(AddressRange(BASE, BASE + 4 * PAGE_SIZE))
    a = alloc.alloc(PAGE_SIZE)
    alloc.free(a)
    b = alloc.alloc(PAGE_SIZE)
    assert b == a


def test_allocator_coalesces_free_blocks():
    alloc = HeapAllocator(AddressRange(BASE, BASE + 4 * PAGE_SIZE))
    addrs = [alloc.alloc(PAGE_SIZE) for _ in range(4)]
    for addr in addrs:
        alloc.free(addr)
    # after coalescing, a full-range allocation must succeed
    big = alloc.alloc(4 * PAGE_SIZE)
    assert big == BASE


def test_allocator_exhaustion():
    alloc = HeapAllocator(AddressRange(BASE, BASE + 2 * PAGE_SIZE))
    alloc.alloc(2 * PAGE_SIZE)
    with pytest.raises(OutOfMemory):
        alloc.alloc(16)


def test_allocator_double_free_rejected():
    alloc = HeapAllocator(AddressRange(BASE, BASE + PAGE_SIZE))
    a = alloc.alloc(64)
    alloc.free(a)
    with pytest.raises(MemoryError_):
        alloc.free(a)


def test_allocator_size_queries():
    alloc = HeapAllocator(AddressRange(BASE, BASE + PAGE_SIZE))
    a = alloc.alloc(60)
    assert alloc.allocation_size(a) == 64  # aligned
    assert alloc.is_allocated(a)
    assert not alloc.is_allocated(a + 64)
