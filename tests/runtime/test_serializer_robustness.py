"""Robustness of the deserializer against malformed streams.

A consumer deserializes bytes produced elsewhere; whatever arrives, the
failure mode must be a clean :class:`SerializationError`, never memory
corruption or an unrelated crash.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.microbench import make_pair
from repro.errors import OutOfMemory, ReproError, SerializationError
from repro.mem import (PAGE_SIZE, AddressRange, AddressSpace, AnonymousVMA,
                       PhysicalMemory)
from repro.runtime.heap import ManagedHeap
from repro.runtime.serializer import SerializedState, Serializer
from repro.runtime.values import DataFrameValue
from repro.units import MB

from ..parent_reference import allocator_state, scan_per_record


def fresh_consumer():
    _e, _p, consumer = make_pair(heap_bytes=16 * MB,
                                 resident_lib_bytes=0)
    return consumer.heap


def try_deserialize(data: bytes):
    heap = fresh_consumer()
    state = SerializedState(data, 0)
    return Serializer().deserialize(heap, state)


def test_truncated_stream_rejected():
    _e, producer, _c = make_pair()
    state = Serializer().serialize(producer.heap,
                                   producer.heap.box([1, 2, 3]))
    for cut in (7, len(state.data) // 2, len(state.data) - 1):
        with pytest.raises((ReproError, Exception)):
            try_deserialize(state.data[:cut])


def record(kind, tag, length, payload=b""):
    return struct.pack("<BIQ", kind, tag, length) + payload


def valid_stream(value):
    _e, producer, _c = make_pair()
    return Serializer().serialize(producer.heap,
                                  producer.heap.box(value)).data


def dangling_index_stream():
    data = bytearray(valid_stream([1, 2]))
    # count u64 | rec_hdr(1+4+8) | list payload: count, then 2 indices
    data[8 + 13 + 8:8 + 13 + 16] = struct.pack("<Q", 0xFFFF)
    return bytes(data)


BAD_STREAMS = {
    "unknown-tag": struct.pack("<Q", 1) + record(0, 99, 8, b"x" * 8),
    "child-index-past-count": dangling_index_stream(),
    "truncated-after-eight-objects": valid_stream(list(range(7)))[:-5],
    "packed-zero-elements":
        struct.pack("<Q", 2) + record(0, 6, 8, struct.pack("<Q", 0))
        + record(1, 2, 0),
    "packed-of-lists":
        struct.pack("<Q", 3) + record(0, 6, 24, struct.pack("<QQQ", 2, 1, 2))
        + record(1, 6, 2, b"\0" * 16),
    "container-shorter-than-fixed-part":
        struct.pack("<Q", 1) + record(0, 10, 8, b"\0" * 8),
    "container-with-half-a-pointer":
        struct.pack("<Q", 1) + record(0, 6, 12, b"\0" * 12),
    "no-objects": struct.pack("<Q", 0),
    "fewer-records-than-claimed":
        struct.pack("<Q", 2) + record(0, 2, 8, b"\0" * 8),
}


@pytest.mark.parametrize("name", sorted(BAD_STREAMS))
def test_bad_stream_is_rejected_before_any_allocation(name):
    """Scan-before-allocate: every malformed stream is a typed
    ``SerializationError`` and the consumer heap is left as it was —
    nothing allocated, nothing written, nothing charged."""
    heap = fresh_consumer()
    keep = heap.box(["survivor", 1.5])
    before = (heap.bytes_in_use(), heap.allocator.allocations(),
              heap.objects_boxed, heap.space.resident_pages(),
              heap.ledger.breakdown())
    with pytest.raises(SerializationError):
        Serializer().deserialize(heap, SerializedState(BAD_STREAMS[name], 0))
    assert (heap.bytes_in_use(), heap.allocator.allocations(),
            heap.objects_boxed, heap.space.resident_pages(),
            heap.ledger.breakdown()) == before
    assert heap.load(keep) == ["survivor", 1.5]


def test_wrong_object_count_rejected():
    _e, producer, _c = make_pair()
    state = Serializer().serialize(producer.heap, producer.heap.box([1]))
    tampered = struct.pack("<Q", 999) + state.data[8:]
    with pytest.raises(SerializationError):
        try_deserialize(tampered)


def test_bogus_record_kind_rejected():
    data = struct.pack("<Q", 1) + struct.pack("<BIQ", 0xEE, 2, 8) + b"x" * 8
    with pytest.raises(SerializationError):
        try_deserialize(data)


def test_dangling_index_in_container():
    """A container referencing a non-existent object index must fail,
    not emit a wild pointer."""
    _e, producer, _c = make_pair()
    state = Serializer().serialize(producer.heap,
                                   producer.heap.box([1, 2]))
    # rewrite the list payload's first child index to 0xFFFF
    data = bytearray(state.data)
    # stream: count u64 | rec_hdr(1+4+8) | list payload (count + 2 idx)
    idx_offset = 8 + 13 + 8
    data[idx_offset:idx_offset + 8] = struct.pack("<Q", 0xFFFF)
    with pytest.raises((SerializationError, IndexError, TypeError,
                        ReproError)):
        try_deserialize(bytes(data))


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=120, deadline=None)
def test_random_garbage_never_corrupts_heap(data):
    """Fuzz: arbitrary bytes either deserialize (vacuously) or raise a
    library error; the heap afterwards is still internally consistent."""
    heap = fresh_consumer()
    state = SerializedState(data, 0)
    try:
        Serializer().deserialize(heap, state)
    except ReproError:
        pass
    except (struct.error, IndexError, ValueError, KeyError, TypeError,
            UnicodeDecodeError, OverflowError):
        pass  # low-level decode failures surface before any write
    # allocator invariants hold regardless
    assert heap.allocator.bytes_in_use >= 0
    assert heap.allocator.bytes_in_use + heap.allocator.free_bytes() == \
        heap.range.size


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=0, max_size=150))
@settings(max_examples=40, deadline=None)
def test_bitflip_in_valid_stream_fails_or_roundtrips(values):
    """Flipping one byte of a valid stream either still deserializes
    (the flip hit a payload byte) or raises cleanly."""
    _e, producer, _c = make_pair(heap_bytes=16 * MB,
                                 resident_lib_bytes=0)
    state = Serializer().serialize(producer.heap,
                                   producer.heap.box(values))
    data = bytearray(state.data)
    if not data:
        return
    pos = len(data) // 3
    data[pos] ^= 0xFF
    try:
        try_deserialize(bytes(data))
    except ReproError:
        pass
    except (struct.error, IndexError, ValueError, KeyError, TypeError,
            UnicodeDecodeError, OverflowError):
        pass


@pytest.mark.parametrize("heap_bytes, frames", [
    (1 * MB, None),      # the run does not fit: alloc_run's first-fit fails
    (8 * MB, 64),        # it fits, but the write runs out of frames
], ids=["heap-full", "frames-exhausted"])
def test_a_failed_deserialize_frees_what_it_allocated(heap_bytes, frames):
    """All or nothing, like ``box``: an ``OutOfMemory`` part-way through
    leaves the allocator as it was (its high-water mark aside)."""
    physical = (PhysicalMemory() if frames is None
                else PhysicalMemory(capacity_bytes=frames * PAGE_SIZE))
    space = AddressSpace(physical, name="small")
    rng = AddressRange(0x1000_0000, 0x1000_0000 + heap_bytes)
    space.map_vma(AnonymousVMA(rng))
    heap = ManagedHeap(space, rng=rng)
    kept = heap.box(["kept", 1, 2.5])
    holes = [heap.allocator.alloc(size) for size in (64, 16, 4000, 32, 16)]
    for addr in holes[::2]:
        heap.allocator.free(addr)
    before = allocator_state(heap.allocator)
    before.pop("high_water")
    state = SerializedState(valid_stream([f"{i:020d}" for i in range(20_000)]),
                            20_001)
    with pytest.raises(OutOfMemory):
        Serializer().deserialize(heap, state)
    after = allocator_state(heap.allocator)
    after.pop("high_water")
    assert after == before
    assert heap.load(kept) == ["kept", 1, 2.5]
    small = SerializedState(valid_stream({"k": [1, 2]}), 4)
    assert heap.load(Serializer().deserialize(heap, small)) == {"k": [1, 2]}


PARITY_STREAMS = {
    "dict": {"k": "v", "n": [1, 2.5, None], "b": b"xyz"},
    "dataframe": DataFrameValue({"sym": ["a", "bb"], "px": [1.5, 2.0],
                                 "qty": [10, 20]}),
    "packed-list": list(range(64)),
}


def mutations(data: bytes):
    """Every truncation of *data* and every single-byte flip of it."""
    for cut in range(len(data)):
        yield data[:cut]
    for pos in range(len(data)):
        for flip in (0x01, 0xFF):
            mutated = bytearray(data)
            mutated[pos] ^= flip
            yield bytes(mutated)


def outcome(fn):
    try:
        fn()
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)
    return None


@pytest.mark.parametrize("name", sorted(PARITY_STREAMS))
def test_malformed_streams_raise_what_the_record_by_record_scan_raised(name):
    """The same exception type and message as the parent's scan for every
    truncation and byte flip of a valid stream — the heap left as it was —
    and a stream that scan accepted is rebuilt."""
    heap = fresh_consumer()
    heap.box(["survivor", 1.5])
    for data in mutations(valid_stream(PARITY_STREAMS[name])):
        expected = outcome(lambda: scan_per_record(data))
        before = (heap.bytes_in_use(), heap.allocator.allocations(),
                  heap.objects_boxed, heap.space.resident_pages(),
                  heap.ledger.breakdown())
        seen = outcome(lambda: Serializer().deserialize(
            heap, SerializedState(data, 0)))
        assert seen == expected, data
        if expected is not None:
            assert (heap.bytes_in_use(), heap.allocator.allocations(),
                    heap.objects_boxed, heap.space.resident_pages(),
                    heap.ledger.breakdown()) == before
        else:  # accepted: free what it allocated for the next case
            for addr in heap.allocator.allocations_dict()[before[1]:]:
                heap.allocator.free(addr)
