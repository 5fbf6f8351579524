"""Property-based tests for the memory substrate and analysis helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemory, SegmentationFault
from repro.analysis.metrics import cdf_points, percentile
from repro.mem import (PAGE_SIZE, AddressRange, AddressSpace, AnonymousVMA,
                       HeapAllocator, PhysicalMemory)
from repro.obs.telemetry import Telemetry, capture
from repro.runtime.heap import ManagedHeap

from ..parent_reference import (RecordingLineage, allocator_state,
                                space_state, write_per_page)

BASE = 0x1000_0000
SPACE = 64 * PAGE_SIZE


# --- allocator invariants ------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["alloc", "free"]),
                          st.integers(min_value=1, max_value=2048)),
                max_size=60))
@settings(max_examples=60, deadline=None)
def test_allocator_never_overlaps_and_conserves(ops):
    alloc = HeapAllocator(AddressRange(BASE, BASE + SPACE))
    live = {}  # addr -> size
    for op, size in ops:
        if op == "alloc":
            try:
                addr = alloc.alloc(size)
            except OutOfMemory:
                continue
            # no overlap with any live allocation
            for other, osize in live.items():
                assert addr + alloc.allocation_size(addr) <= other \
                    or other + osize <= addr
            live[addr] = alloc.allocation_size(addr)
        elif live:
            addr = sorted(live)[len(live) // 2]
            alloc.free(addr)
            del live[addr]
    # conservation: used + free == total
    assert alloc.bytes_in_use + alloc.free_bytes() == SPACE
    assert alloc.bytes_in_use == sum(live.values())


@given(st.lists(st.integers(min_value=1, max_value=PAGE_SIZE),
                min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_allocator_full_free_restores_whole_range(sizes):
    alloc = HeapAllocator(AddressRange(BASE, BASE + SPACE))
    addrs = []
    for size in sizes:
        try:
            addrs.append(alloc.alloc(size))
        except OutOfMemory:
            break
    for addr in addrs:
        alloc.free(addr)
    # after freeing everything, one max-size allocation must succeed
    assert alloc.alloc(SPACE) == BASE


def fragmented_allocator(sizes, freed):
    """An allocator with *sizes* allocated, then every index in *freed*
    released — so the free list has holes in front of its tail block."""
    alloc = HeapAllocator(AddressRange(BASE, BASE + SPACE))
    addrs = [alloc.alloc(size) for size in sizes]
    for i in sorted(freed):
        if i < len(addrs):
            alloc.free(addrs[i])
    return alloc


small_sizes = st.lists(st.integers(min_value=1, max_value=600), max_size=40)


@given(small_sizes, st.sets(st.integers(min_value=0, max_value=39)),
       small_sizes)
@settings(max_examples=120, deadline=None)
def test_alloc_run_equals_a_loop_of_alloc(sizes, freed, run):
    """``alloc_run`` returns what first-fit ``alloc`` would, one by one,
    whether the run is carved from the first free block or has to fill
    holes — and out-of-memory strikes at the same request."""
    looped = fragmented_allocator(sizes, freed)
    batched = fragmented_allocator(sizes, freed)
    expected = []
    try:
        for size in run:
            expected.append(looped.alloc(size))
    except OutOfMemory:
        expected = OutOfMemory
    try:
        got = batched.alloc_run(run)
    except OutOfMemory:
        got = OutOfMemory
    assert got == expected
    assert allocator_state(batched) == allocator_state(looped)


def test_alloc_run_carves_a_fresh_heap_in_one_step():
    alloc = HeapAllocator(AddressRange(BASE, BASE + SPACE))
    assert alloc.alloc_run([24, 24, 16, 100]) == \
        [BASE, BASE + 32, BASE + 64, BASE + 80]
    assert alloc._free == [(BASE + 192, SPACE - 192)]
    assert alloc.alloc_run([SPACE - 192]) == [BASE + 192]
    assert alloc._free == [] and alloc.high_water == BASE + SPACE
    assert alloc.alloc_run([]) == []


@given(small_sizes, st.sets(st.integers(min_value=0, max_value=39)))
@settings(max_examples=60, deadline=None)
def test_free_all_equals_freeing_each(sizes, freed):
    one_by_one = fragmented_allocator(sizes, freed)
    at_once = fragmented_allocator(sizes, freed)
    total = sum(one_by_one.free(addr)
                for addr in one_by_one.allocations_dict())
    assert at_once.free_all() == total
    assert allocator_state(at_once) == allocator_state(one_by_one)


def heap_with_garbage(values):
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    rng = AddressRange(BASE, BASE + 256 * PAGE_SIZE)
    space.map_vma(AnonymousVMA(rng))
    heap = ManagedHeap(space, rng=rng)
    for value in values:
        heap.box(value)
    return heap


@given(st.lists(st.one_of(
    st.integers(min_value=-9, max_value=9), st.text(max_size=40),
    st.lists(st.integers(min_value=0, max_value=99), max_size=90)),
    max_size=12))
@settings(max_examples=40, deadline=None)
def test_unrooted_gc_equals_freeing_every_object(values):
    swept = heap_with_garbage(values)
    freed_by_hand = heap_with_garbage(values)
    total = sum(freed_by_hand.allocator.free(addr)
                for addr in freed_by_hand.allocator.allocations_dict())
    assert swept.gc() == total
    assert allocator_state(swept.allocator) == \
        allocator_state(freed_by_hand.allocator)
    assert swept.ledger.breakdown() == freed_by_hand.ledger.breakdown()


# --- address-space read/write ---------------------------------------------------------

def prepared_space(resident, cow_pages):
    """A space with *resident* pages written, some of them CoW-marked
    (and pinned, as ``register_mem`` pins them, so a break copies)."""
    pm = PhysicalMemory()
    space = AddressSpace(pm, name="space")
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + SPACE)))
    for page in sorted(resident):
        space.write(BASE + page * PAGE_SIZE, bytes([page + 1]) * PAGE_SIZE)
    for page in sorted(cow_pages & resident):
        start = BASE + page * PAGE_SIZE
        space.mark_range_cow(AddressRange(start, start + PAGE_SIZE))
        pm.get(space.page_table.lookup(start // PAGE_SIZE).pfn)
    return space


pages = st.sets(st.integers(min_value=0, max_value=SPACE // PAGE_SIZE - 1))
write_items = st.lists(
    st.tuples(st.integers(min_value=0, max_value=SPACE - 3 * PAGE_SIZE),
              st.one_of(st.binary(max_size=48),
                        st.binary(max_size=3 * PAGE_SIZE))),
    max_size=30)


@given(pages, pages, write_items, st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_write_batch_equals_a_loop_of_writes(resident, cow_pages, items,
                                             ascending, lineage_on):
    """Same frame bytes, vpn->pfn map, fault and CoW-break counts, ledger
    categories and lineage calls as one charged walk per page chunk —
    for page-crossing, empty, CoW-hitting and non-ascending items."""
    items = [(BASE + offset, data) for offset, data in items]
    if ascending:
        items.sort()
    outcomes = []
    for write_all in (
            lambda space: [write_per_page(space, a, d) for a, d in items],
            lambda space: space.write_batch(iter(items)),
            lambda space: [space.write(a, d) for a, d in items]):
        space = prepared_space(resident, cow_pages)
        hub = Telemetry()
        if lineage_on:
            hub.lineage = RecordingLineage()
        with capture(hub):
            write_all(space)
        outcomes.append((space_state(space),
                         hub.lineage.calls if lineage_on else None,
                         sorted(space.physical.live_pfns())))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def test_write_batch_charges_the_walks_it_skips():
    """Three objects on one page are three walks, one of them translated
    and two charged at the end of the call."""
    space = prepared_space(set(), set())
    space.write_batch([(BASE, b"a" * 24), (BASE + 32, b"b" * 24),
                       (BASE + 64, b"c" * 24)])
    assert space.ledger.total("mmu") == 3 * space.cost.page_table_walk_ns
    assert space.fault_count == 1
    assert space.read(BASE + 32, 24) == b"b" * 24


def test_write_batch_charges_skipped_walks_when_a_write_faults():
    space = prepared_space(set(), set())
    items = [(BASE, b"a"), (BASE + 8, b"b"), (BASE + SPACE, b"outside")]
    with pytest.raises(SegmentationFault):
        space.write_batch(items)
    assert space.ledger.total("mmu") == 3 * space.cost.page_table_walk_ns


@given(st.integers(min_value=0, max_value=SPACE - 64),
       st.binary(min_size=1, max_size=3 * PAGE_SIZE))
@settings(max_examples=60, deadline=None)
def test_space_write_read_roundtrip(offset, data):
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + SPACE + 4
                                            * PAGE_SIZE)))
    space.write(BASE + offset, data)
    assert space.read(BASE + offset, len(data)) == data


@given(st.integers(min_value=0, max_value=SPACE - PAGE_SIZE),
       st.binary(min_size=1, max_size=64),
       st.binary(min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_space_disjoint_writes_do_not_interfere(offset, a, b):
    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map_vma(AnonymousVMA(AddressRange(BASE, BASE + 2 * SPACE)))
    addr_a = BASE + offset
    addr_b = addr_a + len(a)  # adjacent, non-overlapping
    space.write(addr_a, a)
    space.write(addr_b, b)
    assert space.read(addr_a, len(a)) == a
    assert space.read(addr_b, len(b)) == b


# --- address ranges ---------------------------------------------------------------------

ranges = st.builds(
    lambda start, size: AddressRange(start * PAGE_SIZE,
                                     (start + size) * PAGE_SIZE),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=100))


@given(ranges, ranges)
@settings(max_examples=100, deadline=None)
def test_overlap_is_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(ranges, st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_split_partitions_exactly(rng, parts):
    try:
        pieces = rng.split(parts)
    except Exception:
        return  # too small to split that many ways
    assert pieces[0].start == rng.start
    assert pieces[-1].end == rng.end
    for x, y in zip(pieces, pieces[1:]):
        assert x.end == y.start
        assert not x.overlaps(y)
    assert sum(p.size for p in pieces) == rng.size


# --- metrics ------------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_percentile_bounds_and_monotonicity(xs):
    assert percentile(xs, 0) == min(xs)
    assert percentile(xs, 100) == max(xs)
    p50, p90, p99 = (percentile(xs, p) for p in (50, 90, 99))
    assert min(xs) <= p50 <= p90 <= p99 <= max(xs)


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_cdf_is_monotone_and_complete(xs):
    pts = cdf_points(xs)
    assert len(pts) == len(xs)
    fracs = [f for _v, f in pts]
    vals = [v for v, _f in pts]
    assert fracs == sorted(fracs)
    assert vals == sorted(vals)
    assert abs(fracs[-1] - 1.0) < 1e-12
