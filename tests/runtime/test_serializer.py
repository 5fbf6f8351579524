"""Unit tests for the pickle-equivalent serializer."""

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.runtime.serializer import SerializedState, Serializer
from repro.runtime.values import DataFrameValue, ImageValue, NdArrayValue
from repro.units import DEFAULT_COST_MODEL

from ..parent_reference import (allocator_state, deserialize_per_object,
                                space_state)
from .conftest import CONS_BASE, build_heap
from .test_heap import make_model


def transfer(producer, consumer, value):
    ser = Serializer()
    root = producer.box(value)
    state = ser.serialize(producer, root)
    new_root = ser.deserialize(consumer, state)
    return consumer.load(new_root), state


SMALL_VALUES = [
    None, 42, -1.5, "text", b"bytes", True,
    [1, 2, 3], {"k": "v"}, (1, (2, (3,))),
    {"nested": {"deeply": {"a": [1, 2, {"b": None}]}}},
]


@pytest.mark.parametrize("value", SMALL_VALUES)
def test_roundtrip_across_heaps(two_heaps, value):
    _e, _m0, _m1, producer, consumer = two_heaps
    result, _state = transfer(producer, consumer, value)
    assert result == value


def test_large_packed_list_roundtrip(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    values = list(range(10_000))
    result, state = transfer(producer, consumer, values)
    assert result == values
    assert state.object_count == 10_001  # list + every element


def test_float_packed_list_roundtrip(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    values = [i / 7 for i in range(5_000)]
    result, _ = transfer(producer, consumer, values)
    assert result == values


def test_shared_refs_survive_serialization(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    inner = [1, 2]
    result, state = transfer(producer, consumer, [inner, inner, inner])
    assert result[0] is result[1] is result[2]
    # shared list serialized once: outer + inner + 2 ints
    assert state.object_count == 4


def test_cycle_survives_serialization(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    lst = [7]
    lst.append(lst)
    ser = Serializer()
    root = producer.box(lst)
    state = ser.serialize(producer, root)
    out = consumer.load(ser.deserialize(consumer, state))
    assert out[0] == 7 and out[1] is out


def test_ndarray_roundtrip(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    arr = NdArrayValue(np.arange(1000, dtype=np.float32).reshape(10, 100))
    result, _ = transfer(producer, consumer, arr)
    assert result == arr


def test_dataframe_roundtrip(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    df = DataFrameValue({"sym": ["a", "b"], "px": [1.0, 2.0],
                         "qty": [10, 20]})
    result, _ = transfer(producer, consumer, df)
    assert result == df


def test_image_and_model_roundtrip(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    img = ImageValue(16, 16, bytes(256))
    model = make_model(n_trees=4)
    result, _ = transfer(producer, consumer, {"img": img, "model": model})
    assert result["img"] == img
    assert result["model"] == model


def test_object_count_matches_reachable(two_heaps):
    _e, _m0, _m1, producer, _ = two_heaps
    value = {"a": [1, 2, 3], "b": "x"}
    root = producer.box(value)
    state = Serializer().serialize(producer, root)
    assert state.object_count == producer.count_reachable(root)


def test_serialize_cost_scales_with_object_count(two_heaps):
    """(De)serialization cost is per-sub-object — the paper's core claim."""
    _e, _m0, _m1, producer, _ = two_heaps
    ser = Serializer()

    def cost_of(n):
        producer.ledger.drain()
        root = producer.box(list(range(n)))
        producer.ledger.drain()  # discard boxing cost
        ser.serialize(producer, root)
        return producer.ledger.drain()

    c1, c10 = cost_of(1_000), cost_of(10_000)
    assert c10 > 5 * c1


def test_deserialize_charges_per_object_and_copy(two_heaps):
    _e, _m0, _m1, producer, consumer = two_heaps
    root = producer.box(list(range(2_000)))
    state = Serializer().serialize(producer, root)
    consumer.ledger.drain()
    Serializer().deserialize(consumer, state)
    cost = consumer.ledger.drain()
    assert cost >= 2_001 * DEFAULT_COST_MODEL.deserialize_per_object_ns


def test_corrupt_stream_detected(two_heaps):
    _e, _m0, _m1, _producer, consumer = two_heaps
    bad = SerializedState(b"\x05\x00\x00\x00\x00\x00\x00\x00"
                          b"\xff" + b"\x00" * 20, 5)
    with pytest.raises(SerializationError):
        Serializer().deserialize(consumer, bad)


def test_empty_stream_rejected(two_heaps):
    _e, _m0, _m1, _producer, consumer = two_heaps
    with pytest.raises(SerializationError):
        Serializer().deserialize(
            consumer, SerializedState(b"\x00" * 8, 0))


def test_dataframe_sub_object_blowup(two_heaps):
    """A dataframe's serialized object count is dominated by boxed cells
    (Section 2.4: 3.2 MB dataframe -> 401,839 sub-objects)."""
    _e, _m0, _m1, producer, _ = two_heaps
    ncells = 5_000
    df = DataFrameValue({
        "c0": list(range(ncells)),
        "c1": [float(i) for i in range(ncells)],
    })
    root = producer.box(df)
    state = Serializer().serialize(producer, root)
    assert state.object_count > 2 * ncells  # every cell is an object


def every_roundtrip_value():
    """The values this file round-trips, in one list."""
    shared = [1, 2]
    cycle = [7]
    cycle.append(cycle)
    return SMALL_VALUES + [
        list(range(10_000)),
        [i / 7 for i in range(5_000)],
        [shared, shared, shared],
        cycle,
        NdArrayValue(np.arange(1000, dtype=np.float32).reshape(10, 100)),
        DataFrameValue({"sym": ["a", "b"], "px": [1.0, 2.0],
                        "qty": [10, 20]}),
        {"img": ImageValue(16, 16, bytes(256)),
         "model": make_model(n_trees=4)},
        ["sixteen-byte-str", "sixteen-byte-st2", "x" * 32, 5, "y" * 48],
    ]


@pytest.mark.parametrize("dirty", [False, True], ids=["fresh", "fragmented"])
def test_deserialize_equals_the_per_object_algorithm(two_heaps, dirty):
    """Run-at-a-time reconstruction against the per-object reference on
    an identically prepared second consumer: same root address, heap
    bytes, page table, faults, allocator state and ledger totals — on a
    fresh heap (the run is carved in one step) and on a reused one with
    holes in its free list (first-fit fills them one by one)."""
    _e, _m0, m1, producer, consumer = two_heaps
    reference = build_heap(m1, CONS_BASE, "consumer")  # its own space
    ser = Serializer()
    for heap in (consumer, reference):
        if dirty:
            keep = [heap.box(value) for value in ("a" * 100, list(range(80)),
                                                  {"k": [1.5] * 70}, "tail")]
            for addr in keep[1::2]:
                heap.add_root(addr)
            heap.gc()
    for value in every_roundtrip_value():
        state = ser.serialize(producer, producer.box(value))
        root = ser.deserialize(consumer, state)
        assert root == deserialize_per_object(reference, state)
        assert allocator_state(consumer.allocator) == \
            allocator_state(reference.allocator)
        assert paged_state(consumer) == paged_state(reference)
        assert consumer.objects_boxed == reference.objects_boxed
    assert consumer.load(root) == value


def paged_state(heap):
    """Space state keyed by page; the two consumers share one machine's
    frames, so which pfn backs a page is not comparable."""
    state = space_state(heap.space)
    state["pfn"] = sorted(state["pfn"])
    return state
