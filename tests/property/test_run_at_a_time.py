"""Differential tests: run-at-a-time ``box`` / ``load`` / ``traverse`` /
``serialize`` / ``gc`` and the array-pass ``deserialize`` against the
per-object code they replaced.

``tests/parent_reference.py`` keeps the old implementations.  Every test
here prepares two identical simulated machines, runs the reference on one
and the shipped code on the other, and requires *everything observable*
to be equal: results, addresses, frame bytes (alignment gaps included),
vpn -> pfn, fault and CoW-break counts, the ledger by category and its
pending charge, allocator state and the sequence of lineage calls.

Tier-1 runs each property on a small budget; CI runs this file again with
``--hypothesis-profile=differential-ci`` (see ``conftest.py``).
"""

import gc as host_gc
import inspect
import struct
from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import (config as bench_config, figures_micro,
                         figures_workflow, microbench)
from repro.bench.microbench import make_pair
from repro.errors import OutOfMemory, SerializationError
from repro.mem import (PAGE_SIZE, AddressRange, AddressSpace, AnonymousVMA,
                       HeapAllocator, PhysicalMemory)
from repro.mem.address_space import PageCursor
from repro.obs.telemetry import Telemetry, capture
from repro.runtime.heap import _WINDOW, ManagedHeap
from repro.runtime.objects import (DTYPE_CODES, HEADER_SIZE, LAYOUT,
                                   TypeTag)
from repro.runtime.serializer import SerializedState, Serializer
from repro.runtime.traverse import ObjectTraverser
from repro.runtime.values import (DataFrameValue, ImageValue, MLModelValue,
                                  NdArrayValue, TreeValue)
from repro.units import MB

from ..parent_reference import (PerObjectHeap, RecordingLineage,
                                allocator_state, deserialize_per_object,
                                read_per_page, serialize_per_object,
                                space_state, traverse_per_object,
                                write_per_page)

_CI_PROFILE = settings.get_profile("differential-ci")


def budget(tier1: int) -> settings:
    """*tier1* examples, or the CI profile's budget when it is loaded (a
    profile's budget does not reach a test that sets its own)."""
    ci = settings.default is _CI_PROFILE
    return settings(max_examples=_CI_PROFILE.max_examples if ci else tier1,
                    deadline=None)


# --- the two machines -------------------------------------------------------------

def endpoints(reference: bool):
    """A producer and a consumer; with *reference*, on per-object heaps."""
    _engine, producer, consumer = make_pair(heap_bytes=8 * MB,
                                            resident_lib_bytes=0)
    if reference:
        for endpoint in (producer, consumer):
            heap = endpoint.heap
            endpoint.heap = PerObjectHeap(heap.space, rng=heap.range,
                                          name=heap.name)
    return producer, consumer


SETTINGS = ("fresh", "fragmented", "cow")


def prepare(producer, setting: str, sizes, freed) -> None:
    """Bring the producer's heap into *setting* before the box under test."""
    heap = producer.heap
    if setting == "fragmented":
        # holes in front of the tail block: alloc_run has to fill them
        addrs = [heap.allocator.alloc(size) for size in sizes]
        for i in sorted(freed):
            if i < len(addrs):
                heap.allocator.free(addrs[i])
    elif setting == "cow":
        # pages pinned by a registration, then freed: the box under test
        # reuses them and has to break CoW page by page
        heap.box([str_run(700, 0), "x" * 9000])
        producer.kernel.register_mem(heap.space, "pinned", 1)
        heap.gc()


def observed(fn):
    """``(outcome of fn, lineage calls made meanwhile)``."""
    hub = Telemetry()
    hub.lineage = RecordingLineage()
    with capture(hub):
        try:
            outcome = ("returned", fn())
        except SerializationError as err:
            outcome = ("raised", str(err))
    return outcome, hub.lineage.calls


def everything(endpoint):
    """All state a heap operation on *endpoint* may change."""
    return (space_state(endpoint.space),
            allocator_state(endpoint.heap.allocator),
            endpoint.heap.objects_boxed,
            sorted(endpoint.space.physical.live_pfns()))


def assert_box_equal(value, setting="fresh", sizes=(), freed=()):
    seen = []
    for reference in (True, False):
        producer, _consumer = endpoints(reference)
        prepare(producer, setting, sizes, freed)
        outcome = observed(lambda: producer.heap.box(value))
        seen.append((outcome, everything(producer)))
    assert seen[1] == seen[0]


def canon(value, seen=None):
    """A finite, comparable picture of a loaded value: sharing and cycles
    show as back-references, ``True`` differs from ``1``."""
    seen = {} if seen is None else seen
    if isinstance(value, (list, tuple, dict, TreeValue)):
        if id(value) in seen:
            return ("seen", seen[id(value)])
        seen[id(value)] = len(seen)
    if isinstance(value, dict):
        return ("dict", [(canon(k, seen), canon(v, seen))
                         for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canon(v, seen) for v in value])
    if isinstance(value, NdArrayValue):
        array = value.array
        return ("ndarray", array.dtype.name, array.shape, array.tobytes())
    if isinstance(value, DataFrameValue):
        return ("frame", canon(value.columns, seen))
    if isinstance(value, ImageValue):
        return ("image", value.width, value.height, value.mode, value.pixels)
    if isinstance(value, MLModelValue):
        return ("model", value.n_features, value.n_classes,
                [canon(tree, seen) for tree in value.trees])
    if isinstance(value, TreeValue):
        return ("tree", [canon(NdArrayValue(a)) for a in (
            value.feature, value.threshold, value.left, value.right,
            value.value)])
    return (type(value).__name__, repr(value))


def _traverse(heap, root, reference, max_objects=None):
    result = (traverse_per_object(heap, root, max_objects) if reference
              else ObjectTraverser(heap, max_objects).traverse(root))
    return result and (result.page_addrs, result.object_count,
                       result.objects)


def _traverse_without_numpy_iterator(heap, root, reference):
    heap.numpy_iterator = False
    return _traverse(heap, root, reference)


def _serialize(heap, root, reference):
    state = (serialize_per_object(heap, root, "p-") if reference
             else Serializer("p-").serialize(heap, root))
    return state.data, state.object_count


def _gc(heap, root, reference):
    heap.add_root(root)
    return heap.gc()


READERS = {
    "load": lambda heap, root, reference: canon(heap.load(root)),
    "children": lambda heap, root, reference: heap.children(root),
    "count_reachable": lambda heap, root, reference:
        heap.count_reachable(root),
    "traverse": _traverse,
    "traverse-capped": lambda heap, root, reference:
        _traverse(heap, root, reference, max_objects=3),
    # inside a block of 200 leaves: the cap is crossed by its 100th
    "traverse-capped-in-block": lambda heap, root, reference:
        _traverse(heap, root, reference, max_objects=100),
    "traverse-no-numpy": _traverse_without_numpy_iterator,
    "serialize": _serialize,
    "gc": _gc,
}


def assert_reader_equal(value, reader: str, remote: bool):
    seen = []
    for reference in (True, False):
        producer, consumer = endpoints(reference)
        root = producer.heap.box(value)
        producer.heap.box(["garbage", 1.5, [2]])
        side = producer
        if remote:
            meta = producer.kernel.register_mem(producer.space, "diff", 1)
            consumer.kernel.rmap(consumer.space, meta.mac_addr, "diff", 1)
            side = consumer
        outcome = observed(
            lambda: READERS[reader](side.heap, root, reference))
        seen.append((outcome, everything(side)))
    assert seen[1] == seen[0]


# --- generated object graphs ------------------------------------------------------

def int_run(n, start):
    return [start + i for i in range(n)]


def float_run(n, start):
    return [start + i * 0.5 for i in range(n)]


def str_run(n, start):
    return [f"s{start + i}" for i in range(n)]


def mixed_run(n, start):
    kinds = cycle([start, f"m{start}", None, True, b"by", start * 0.25])
    return list(islice(kinds, n))


def make_array(dtype, shape, wrapped):
    array = (np.arange(int(np.prod(shape))) % 7).astype(dtype).reshape(shape)
    return NdArrayValue(array) if wrapped else array


def make_image(width, height, mode):
    bpp = {"L": 1, "RGB": 3, "RGBA": 4}[mode]
    pixels = bytes(i % 251 for i in range(width * height * bpp))
    return ImageValue(width, height, pixels, mode=mode)


def make_frame(rows, start):
    return DataFrameValue({"i": int_run(rows, start),
                           "s": str_run(rows, start),
                           "f": float_run(rows, start),
                           "m": mixed_run(rows, start)})


def make_model(n_trees, shared):
    def tree(k):
        return TreeValue([0, -1, -1], [0.5 + k, 0.0, 0.0], [1, 0, 0],
                         [2, 0, 0], [0.0, 1.0 + k, 2.0])
    first = tree(0)
    trees = [first if shared else tree(k) for k in range(n_trees)]
    return MLModelValue(trees, n_features=4, n_classes=3)


ints = st.integers(min_value=-(2 ** 62), max_value=2 ** 62)
floats = st.floats(allow_nan=False)
run_lengths = st.sampled_from([63, 64, 65, 130])
small = st.integers(min_value=-50, max_value=50)

leaves = st.one_of(
    st.none(), st.booleans(), ints, floats, st.text(max_size=10),
    st.binary(max_size=10),
    # numpy scalars and a bytearray: boxed through the isinstance scan;
    # strings of one, two and three pages
    st.sampled_from([np.int64(-7), np.int32(9), np.float32(0.5),
                     np.float64(-2.25), bytearray(b"ab"),
                     "p" * 4000, "q" * 5000, "r" * 9000]),
    st.builds(make_array, st.sampled_from(sorted(DTYPE_CODES)),
              st.sampled_from([[], [0], [3], [2, 3], [600], [40, 40]]),
              st.booleans()),
    st.builds(make_image, st.integers(0, 6), st.integers(1, 5),
              st.sampled_from(["L", "RGB", "RGBA"])),
)

runs = st.one_of(
    st.builds(int_run, run_lengths, small),                  # packed
    st.builds(float_run, run_lengths, small),
    st.builds(int_run, run_lengths, small).map(tuple),
    st.builds(str_run, run_lengths, small),                  # dense
    st.builds(mixed_run, run_lengths, small),
    st.builds(lambda n, k: dict(zip(str_run(n, k), int_run(n, k))),
              st.sampled_from([31, 32, 40]), small),
    st.builds(make_frame, st.sampled_from([0, 3, 64, 70]), small),
    st.builds(make_model, st.integers(0, 3), st.booleans()),
)

nested = st.recursive(
    st.one_of(leaves, runs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=5), ints), inner,
                        max_size=4)),
    max_leaves=10)


def entangle(root, edits):
    """Make *root*'s lists and dicts point at each other: shared
    sub-objects and cycles through list/dict (and through tuples in
    between)."""
    containers, stack, met = [], [root], set()
    while stack:
        value = stack.pop()
        if not isinstance(value, (list, tuple, dict)) or id(value) in met:
            continue
        met.add(id(value))
        if not isinstance(value, tuple):
            containers.append(value)
        stack.extend(value.values() if isinstance(value, dict) else value)
    for i, j in edits if containers else ():
        holder = containers[i % len(containers)]
        target = containers[j % len(containers)]
        if isinstance(holder, list):
            holder.append(target)
        else:
            holder[f"ref{j}"] = target
    return root


graphs = st.builds(entangle, nested,
                   st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                            max_size=4))
hole_sizes = st.lists(st.integers(min_value=1, max_value=600), max_size=30)
hole_freed = st.sets(st.integers(min_value=0, max_value=29))

EDGES = {
    "empty-list": [], "empty-tuple": (), "empty-dict": {},
    "empty-frame": DataFrameValue({}), "empty-model": make_model(0, False),
    "empty-str-and-bytes": ["", b"", None],
    "self-cycle": entangle([[1], {"a": 2}], [(0, 0), (1, 0), (2, 2)]),
    "shared-run": (lambda run: [run, run, tuple(run)])(int_run(64, 0)),
    "packed-63": int_run(63, 5), "packed-64": float_run(64, 5),
    "packed-65": int_run(65, -5), "bools-are-not-packed": [True] * 70,
    "one-page": "a" * (PAGE_SIZE - HEADER_SIZE),
    "two-pages": b"b" * (PAGE_SIZE + 1), "three-pages": "c" * 9000,
    "window-2": str_run(_WINDOW - 2, 0), "window-1": str_run(_WINDOW - 1, 0),
    "window": str_run(_WINDOW, 0), "window+1": str_run(_WINDOW + 1, 0),
    "windows-of-dict": dict(zip(str_run(2 * _WINDOW, 0),
                                float_run(2 * _WINDOW, 0))),
    "page-sized-cells": ["d" * PAGE_SIZE, 1, "e" * PAGE_SIZE, [2]],
    # leaf blocks: one the traversal cap cuts, and one a container child
    # sends back to the per-object loop
    "leaves-200": str_run(200, 0),
    "mixed-with-a-container": (lambda run: run[:35] + [[1, 2]] + run[35:])(
        mixed_run(70, 0)),
}


# --- box ----------------------------------------------------------------------------

@budget(40)
@given(graphs, st.sampled_from(SETTINGS), hole_sizes, hole_freed)
def test_box_equals_the_per_object_box(graph, setting, sizes, freed):
    """Same root and object addresses, frame bytes (gaps included),
    vpn -> pfn, faults, CoW breaks, ledger, lineage calls, objects_boxed
    and allocator state — on a fresh, a fragmented and a CoW-pinned heap."""
    assert_box_equal(graph, setting, sizes, freed)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_box_equals_the_per_object_box_at_the_edges(edge, setting):
    assert_box_equal(EDGES[edge], setting, sizes=[40, 24, 4000, 16, 24, 700],
                     freed={0, 2, 3, 5})


# --- load, children, traverse, serialize, gc -----------------------------------------

@budget(60)
@given(graphs, st.sampled_from(sorted(READERS)), st.booleans())
def test_readers_equal_the_per_object_readers(graph, reader, remote):
    """Same values, page lists, streams, counts, ledger, faults and
    lineage calls, locally and through an rmap'd ``RemoteVMA``."""
    assert_reader_equal(graph, reader, remote)


@pytest.mark.parametrize("remote", [False, True])
@pytest.mark.parametrize("reader", ["load", "traverse", "serialize"])
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_readers_equal_the_per_object_readers_at_the_edges(edge, reader,
                                                           remote):
    assert_reader_equal(EDGES[edge], reader, remote)


# --- deserialize ---------------------------------------------------------------------

def assert_deserialize_equal(value, setting, sizes=(), freed=(),
                             lineage=True):
    """The stream of *value* rebuilt on a consumer heap in *setting*, by
    the per-object reference and by ``Serializer.deserialize``, under a
    hub: the same root, allocator state, pages (gap bytes and PTE flags
    included), faults, CoW breaks, ledger by category, ``objects_boxed``,
    hub counter and gauge totals and lineage report."""
    producer, _consumer = endpoints(reference=False)
    state = Serializer("p-").serialize(producer.heap,
                                       producer.heap.box(value))
    seen = []
    for reference in (True, False):
        _producer, consumer = endpoints(reference=False)
        hub = Telemetry()
        if lineage:
            hub.enable_lineage()
        with capture(hub):
            prepare(consumer, setting, sizes, freed)
            root = (deserialize_per_object(consumer.heap, state, "p-")
                    if reference else
                    Serializer("p-").deserialize(consumer.heap, state))
        seen.append((root, everything(consumer), hub.counters, hub.gauges,
                     lineage and hub.lineage.report()))
    assert seen[1] == seen[0]


@budget(40)
@given(graphs, st.sampled_from(SETTINGS), hole_sizes, hole_freed,
       st.booleans())
def test_deserialize_equals_the_per_object_deserialize(graph, setting, sizes,
                                                       freed, lineage):
    assert_deserialize_equal(graph, setting, sizes, freed, lineage)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_deserialize_equals_the_per_object_deserialize_at_the_edges(edge,
                                                                    setting):
    assert_deserialize_equal(EDGES[edge], setting,
                             sizes=[40, 24, 4000, 16, 24, 700],
                             freed={0, 2, 3, 5})


# --- rule (a): aggregate, never skip — lineage included ------------------------------

def test_an_elided_read_is_still_reported():
    """``traverse`` reads each header once but ``children`` would read it
    again: lineage sums read lengths per page, so the second read is
    reported (and its walk charged) although it is not made."""
    producer, _consumer = endpoints(reference=False)
    heap = producer.heap
    root = heap.box([7, "seven"])
    seven, text = heap.children(root)
    walks = heap.ledger.total("mmu")
    _outcome, calls = observed(lambda: ObjectTraverser(heap).traverse(root))
    header = HEADER_SIZE
    assert calls == [
        ("touched", "producer", root, header),
        ("touched", "producer", root, header),
        ("touched", "producer", root + header, 8 + 2 * 8),
        ("touched", "producer", text, header),
        ("touched", "producer", text, header),
        ("touched", "producer", seven, header),
        ("touched", "producer", seven, header),
    ]
    assert heap.ledger.total("mmu") - walks == \
        len(calls) * heap.cost.page_table_walk_ns


# --- rule (b): a deferred charge is flushed before anything reads the ledger ---------

class SpyVMA(AnonymousVMA):
    """Demand-fills from *content* and keeps the ledger's pending charge
    as every fault sees it — what a remote fault's ``qp.read`` records its
    span offsets from.  ``fail_at`` makes the n-th fault raise."""

    def __init__(self, rng, content=b"", fail_at=None):
        super().__init__(rng, name="spy")
        self.content = content
        self.fail_at = fail_at
        self.pending = []

    def handle_fault(self, space, vpn, write):
        self.pending.append(space.ledger.pending)
        if len(self.pending) == self.fail_at:
            raise RuntimeError("fabric down")
        pte = super().handle_fault(space, vpn, write)
        offset = (vpn * PAGE_SIZE) - self.range.start
        chunk = self.content[offset:offset + PAGE_SIZE]
        space.physical.frame(pte.pfn).data[:len(chunk)] = chunk
        return pte


def heap_image(value):
    """``(range, bytes, root)`` of a heap holding *value*."""
    producer, _consumer = endpoints(reference=False)
    heap = producer.heap
    root = heap.box(value)
    start = heap.range.start
    return heap.range, heap.space.read(
        start, heap.allocator.high_water - start), root


def spied_heap(rng, image, reference: bool, fail_at=None):
    space = AddressSpace(PhysicalMemory(), name="spied")
    spy = space.map_vma(SpyVMA(rng, image, fail_at))
    heap = (PerObjectHeap if reference else ManagedHeap)(space, rng=rng)
    return heap, spy


MANY_SMALL_OBJECTS = [str_run(300, 0), dict(zip(str_run(200, 0),
                                                int_run(200, 0))),
                      "x" * 9000, int_run(700, 0), make_frame(70, 3)]


@pytest.mark.parametrize("reader", ["load", "traverse", "serialize",
                                    "count_reachable"])
def test_faults_see_the_ledger_the_per_object_reads_showed_them(reader):
    rng, image, root = heap_image(MANY_SMALL_OBJECTS)
    seen = []
    for reference in (True, False):
        heap, spy = spied_heap(rng, image, reference)
        READERS[reader](heap, root, reference)
        seen.append((spy.pending, heap.ledger.breakdown()))
    assert len(seen[0][0]) > 10  # many faults, each after skipped walks
    assert seen[1] == seen[0]


def test_write_batch_faults_see_the_ledger_a_loop_of_writes_showed_them():
    rng = AddressRange(0x1000_0000, 0x1000_0000 + 64 * PAGE_SIZE)
    items = [(rng.start + 40 * i, bytes([i % 251]) * 24) for i in range(400)]
    items.append((rng.start + 20 * PAGE_SIZE - 8, b"z" * (PAGE_SIZE + 16)))
    seen = []
    for write_all in (
            lambda space: [write_per_page(space, a, d) for a, d in items],
            lambda space: space.write_batch(iter(items))):
        space = AddressSpace(PhysicalMemory(), name="spied")
        spy = space.map_vma(SpyVMA(rng))
        write_all(space)
        seen.append((spy.pending, space_state(space)))
    assert len(seen[0][0]) == 7  # 16 KB of small items, then two more pages
    assert seen[1] == seen[0]


# --- rule (c): the cursor lives for one call -----------------------------------------

@pytest.mark.parametrize("reader", ["load", "traverse", "serialize", "gc"])
def test_readers_write_remap_and_unmap_nothing(reader, monkeypatch):
    """What makes one cursor per call sound: between its first read and
    its last, no page it has translated can change under it."""
    producer, consumer = endpoints(reference=False)
    root = producer.heap.box(MANY_SMALL_OBJECTS)
    meta = producer.kernel.register_mem(producer.space, "ro", 1)
    consumer.kernel.rmap(consumer.space, meta.mac_addr, "ro", 1)

    def forbidden(*args, **kwargs):
        raise AssertionError("a read-only walk changed a mapping")

    for endpoint in (producer, consumer):
        space = endpoint.space
        for owner, name in ((space, "write_batch"), (space, "unmap_vma"),
                            (space, "_break_cow"),
                            (space.page_table, "remap"),
                            (space.page_table, "unmap")):
            monkeypatch.setattr(owner, name, forbidden)
        READERS[reader](endpoint.heap, root, False)


@pytest.mark.parametrize("reader", ["load", "traverse", "serialize",
                                    "count_reachable"])
def test_a_failing_read_still_charges_the_walks_it_skipped(reader):
    rng, image, root = heap_image(MANY_SMALL_OBJECTS)
    seen = []
    for reference in (True, False):
        heap, spy = spied_heap(rng, image, reference, fail_at=5)
        with pytest.raises(RuntimeError, match="fabric down"):
            READERS[reader](heap, root, reference)
        seen.append((spy.pending, heap.ledger.breakdown(),
                     heap.ledger.pending))
    assert seen[1] == seen[0]


# --- leaf blocks: a container's leaf children read in one step -----------------------

def straddling_header(producer):
    """70 strings on a heap whose range starts 8 bytes into a page: the
    list takes 592 bytes and the first string fills the page up to its
    last 8 bytes, so the second string's header spans two pages."""
    heap = producer.heap
    producer.heap = heap = type(heap)(
        heap.space, rng=AddressRange(heap.range.start + 8, heap.range.end),
        name=heap.name)
    root = heap.box(["x" * (PAGE_SIZE - 8 - 8 - 592 - HEADER_SIZE)]
                    + str_run(69, 0))
    assert heap.children(root)[1] % PAGE_SIZE == PAGE_SIZE - 8
    return root


_RECORD = struct.Struct("<BIQ")  # the stream's record header


def shared_leaf(producer):
    """A list of 70 pointers to 69 strings over three pages, the sixth
    listed twice, rebuilt from a hand-built stream (``box`` never shares
    a leaf)."""
    kids = list(range(1, 70)) + [6]
    payload = struct.pack(f"<{len(kids) + 1}Q", len(kids), *kids)
    records = [_RECORD.pack(0, TypeTag.LIST, len(payload)) + payload]
    records += [_RECORD.pack(0, TypeTag.STR, len(word)) + word.encode()
                for word in (w * 40 for w in str_run(69, 0))]
    state = SerializedState(struct.pack("<Q", 70) + b"".join(records), 70)
    root = Serializer().deserialize(producer.heap, state)
    kids = producer.heap.children(root)
    assert kids[-1] == kids[5]
    return root


LEAF_BLOCKS = {
    "straddling-header": straddling_header,
    "shared-leaf": shared_leaf,
    "leaves-200": lambda producer: producer.heap.box(EDGES["leaves-200"]),
    "mixed-with-a-container": lambda producer: producer.heap.box(
        EDGES["mixed-with-a-container"]),
    # serialize dequeues the block after the string, whose pages fault
    "queued-behind-a-fault": lambda producer: producer.heap.box(
        [str_run(100, 0), "y" * 9000]),
}


def fault_headers(space, kids, faulted: str) -> None:
    """Fault in none, every other or all of the pages holding a header of
    *kids*."""
    pages = sorted({addr & -PAGE_SIZE for addr in kids}
                   | {(addr + HEADER_SIZE - 1) & -PAGE_SIZE for addr in kids})
    for page in pages[::{"half": 2, "all": 1}[faulted]] if faulted else ():
        space.read(page, 1)


#: where a reader runs: ``(through an rmap'd RemoteVMA, header pages
#: faulted in first)``; a local heap has every page present
WHERE = {"local": (False, None), "remote": (True, None),
         "remote-half-faulted": (True, "half"),
         "remote-all-faulted": (True, "all")}


@pytest.mark.parametrize("where", sorted(WHERE))
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("block", sorted(LEAF_BLOCKS))
def test_readers_equal_the_per_object_readers_on_leaf_blocks(block, reader,
                                                             where):
    """Values, page lists, streams, counts, ledger and lineage calls where
    a block applies and where a child sends the walk back to the
    per-object loop — locally, and through an rmap'd ``RemoteVMA`` with
    none, half or all of the block's header pages faulted in first."""
    remote, faulted = WHERE[where]
    seen = []
    for reference in (True, False):
        producer, consumer = endpoints(reference)
        root = LEAF_BLOCKS[block](producer)
        kids = producer.heap.children(root)
        producer.heap.box(["garbage", 1.5, [2]])
        side = producer
        if remote:
            meta = producer.kernel.register_mem(producer.space, "diff", 1)
            consumer.kernel.rmap(consumer.space, meta.mac_addr, "diff", 1)
            side = consumer
        fault_headers(side.space, kids, faulted)
        outcome = observed(
            lambda: READERS[reader](side.heap, root, reference))
        seen.append((outcome, everything(side)))
    assert seen[1] == seen[0]


@pytest.mark.parametrize("faulted", [None, "half", "all"])
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("block", sorted(LEAF_BLOCKS))
def test_faults_see_the_ledger_the_per_object_reads_showed_them_on_leaf_blocks(
        block, reader, faulted):
    """``ledger.pending`` at every fault, page by page (a spy VMA fills the
    heap's image on demand), with none, half or all of the block's
    header pages faulted in first."""
    producer, _consumer = endpoints(reference=False)
    root = LEAF_BLOCKS[block](producer)
    kids = producer.heap.children(root)
    heap_range = producer.heap.range
    start = heap_range.start & -PAGE_SIZE
    rng = AddressRange(start, heap_range.end)
    image = producer.space.read(start,
                                producer.heap.allocator.high_water - start)
    seen = []
    for reference in (True, False):
        space = AddressSpace(PhysicalMemory(), name="spied")
        spy = space.map_vma(SpyVMA(rng, image))
        heap = (PerObjectHeap if reference else ManagedHeap)(space,
                                                             rng=heap_range)
        fault_headers(space, kids, faulted)
        outcome = observed(lambda: READERS[reader](heap, root, reference))
        seen.append((outcome, spy.pending, space_state(space)))
    assert seen[0][1] or faulted == "all"
    assert seen[1] == seen[0]


def test_leaf_lists_are_walked_in_a_number_of_reads_their_length_does_not_set(
        monkeypatch):
    """A host-cost guard that needs no clock: ``traverse``, ``serialize``
    and ``count_reachable`` of a local list of strings make as many
    cursor reads for 8,192 strings as for 4,096, so a walk that falls
    back to per-leaf reads fails here and not only in the benchmark."""
    reads = []
    read = PageCursor.read

    def counted(cursor, vaddr, length):
        reads.append(vaddr)
        return read(cursor, vaddr, length)

    monkeypatch.setattr(PageCursor, "read", counted)
    made = {}
    for n in (4096, 8192):
        producer, _consumer = endpoints(reference=False)
        heap = producer.heap
        root = heap.box(str_run(n, 0))
        for name, walk in (
                ("traverse", lambda: ObjectTraverser(heap).traverse(root)),
                ("serialize", lambda: Serializer().serialize(heap, root)),
                ("count_reachable", lambda: heap.count_reachable(root))):
            reads.clear()
            walk()
            made[name, n] = len(reads)
    for name in ("traverse", "serialize", "count_reachable"):
        assert made[name, 8192] == made[name, 4096], made


# --- the box memo holds the value it is keyed on --------------------------------------

class CollectingColumns(dict):
    """A frame's columns, with a host garbage collection between any two."""

    def items(self):
        for item in super().items():
            host_gc.collect()
            yield item


def test_materialised_columns_never_alias_each_other():
    """``box`` materialises each column as a fresh list that only its memo
    entry keeps alive; were it freed, the next column's list could be
    given the same ``id`` and take the first one's heap object."""
    frame = DataFrameValue({f"c{k}": str_run(70, 100 * k) for k in range(6)})
    frame.columns = CollectingColumns(frame.columns)
    producer, _consumer = endpoints(reference=False)
    heap = producer.heap
    root = heap.box(frame)
    assert len(set(heap.children(root)[1::2])) == 6
    assert heap.load(root) == frame


# --- a failed box is atomic --------------------------------------------------------------

def small_heap(nbytes: int) -> ManagedHeap:
    space = AddressSpace(PhysicalMemory(), name="small")
    rng = AddressRange(0x1000_0000, 0x1000_0000 + nbytes)
    space.map_vma(AnonymousVMA(rng))
    return ManagedHeap(space, rng=rng)


@pytest.mark.parametrize("value, error", [
    ({"a": 1, "b": [1, 2, 3], "c": object()}, SerializationError),
    # the unboxable value comes after whole windows were allocated
    ([str_run(2 * _WINDOW + 7, 0), {1, 2}], SerializationError),
    # out of memory part-way through a window (one the first free block
    # cannot hold is allocated object by object), after whole windows,
    # a packed run and a written-through large object
    (str_run(9000, 0), OutOfMemory),
    ([int_run(500, 0), "y" * 150_000, str_run(4000, 0)], OutOfMemory),
])
def test_a_failed_box_leaves_the_heap_as_it_was(value, error):
    heap = small_heap(64 * PAGE_SIZE)
    kept = heap.box(["kept", 1, 2.5])
    holes = [heap.allocator.alloc(size) for size in (64, 16, 4000, 32, 16)]
    for addr in holes[::2]:
        heap.allocator.free(addr)
    before = allocator_state(heap.allocator)
    before.pop("high_water")  # a mark, not an allocation: it may rise
    with pytest.raises(error):
        heap.box(value)
    after = allocator_state(heap.allocator)
    after.pop("high_water")
    assert after == before
    assert heap.allocator.allocations() == len(before["allocated"])
    assert heap.load(kept) == ["kept", 1, 2.5]
    # and the heap is as usable as it was
    assert heap.load(heap.box(str_run(100, 0))) == str_run(100, 0)


# --- the table, and the names others hold on to ---------------------------------------

def test_the_layout_table_has_one_row_per_tag():
    assert [row.tag for row in LAYOUT] == list(TypeTag)
    for row in LAYOUT:
        assert row.name == row.tag.name.lower()
        leaf = row.encode is not None and row.decode is not None
        container = None not in (row.pointers, row.split, row.build)
        assert leaf != container
        assert not (leaf and (row.generic or row.sequence or row.fill))
        assert not (container and (row.dense or row.run_code))


@pytest.mark.parametrize("owner, name, parameters", [
    (ManagedHeap, "box", ["self", "value"]),
    (ManagedHeap, "load", ["self", "addr"]),
    (ManagedHeap, "gc", ["self"]),
    (ManagedHeap, "header_of", ["self", "addr"]),
    (ManagedHeap, "object_span", ["self", "addr"]),
    (ManagedHeap, "children", ["self", "addr"]),
    (Serializer, "serialize", ["self", "heap", "root"]),
    (Serializer, "deserialize", ["self", "heap", "state"]),
    (ObjectTraverser, "traverse", ["self", "root"]),
    (AddressSpace, "read", ["self", "vaddr", "length"]),
    (AddressSpace, "write", ["self", "vaddr", "data"]),
    (AddressSpace, "write_batch", ["self", "items"]),
    (AddressSpace, "translate", ["self", "vaddr", "write"]),
    (HeapAllocator, "alloc", ["self", "size"]),
    (HeapAllocator, "free", ["self", "vaddr"]),
    (bench_config, "scaled", ["n", "scale", "minimum"]),
    (microbench, "make_pair", ["heap_bytes", "cost",
                               "resident_lib_bytes"]),
    (microbench, "measure_transfer", ["transport", "producer", "consumer",
                                      "value", "consume"]),
    (figures_workflow, "workflow_configs", ["scale"]),
    (figures_workflow, "_light_params", ["params"]),
    (figures_micro, "synthetic_model", ["total_bytes", "n_trees"]),
    (figures_micro, "section24_calibration", []),
])
def test_names_the_benchmark_wraps_keep_their_signatures(owner, name,
                                                         parameters):
    assert list(inspect.signature(getattr(owner, name)).parameters) == \
        parameters


def test_names_the_benchmark_imports_stay_where_they_are():
    from repro import obs

    assert isinstance(figures_micro._TYPE_LIBS, dict)
    for name in ("Telemetry", "capture", "PercentileSketch"):
        assert callable(getattr(obs, name))


def test_read_is_a_one_shot_cursor():
    """``AddressSpace.read`` equals the per-page read it replaced."""
    rng, image, _root = heap_image(MANY_SMALL_OBJECTS)
    reads = [(rng.start + 8, 16), (rng.start + PAGE_SIZE - 4, 8),
             (rng.start + 100, 0), (rng.start + 3 * PAGE_SIZE, 9000)]
    seen = []
    for read in (read_per_page, AddressSpace.read):
        heap, spy = spied_heap(rng, image, reference=False)
        outcome = observed(
            lambda: [read(heap.space, addr, n) for addr, n in reads])
        seen.append((outcome, spy.pending, space_state(heap.space)))
    assert seen[1] == seen[0]
