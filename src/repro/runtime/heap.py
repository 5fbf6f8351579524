"""The managed heap: boxing, loading and collecting objects in sim memory.

``box`` writes a Python value into simulated memory as a graph of tagged
objects whose references are 64-bit virtual addresses; ``load`` rebuilds the
Python value by chasing those pointers through the owning address space —
which transparently includes rmap'd remote ranges, so a consumer can ``load``
a producer's root pointer directly.

Both are loops over the per-type table in :mod:`repro.runtime.objects` and
work a run at a time: ``box`` plans a window of objects, allocates them with
one ``alloc_run`` and writes them with one ``write_batch``; ``load`` (like
``gc``, traversal and the serializer) reads through one page cursor.
Homogeneous primitive lists (the paper's ``list(int)`` microbenchmark reaches
5,000,000 elements) are laid out as one contiguous stride-24 block and
bulk-encoded/decoded, and the leaf children of a container in one dense
region of present pages are read as one block by the gc mark phase,
traversal and the serializer.  Simulated cost is still charged per object;
only host CPU time is saved.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

import numpy as np

from repro.errors import RuntimeHeapError, SerializationError
from repro.mem.address_space import AddressSpace, PageCursor
from repro.mem.layout import AddressRange
from repro.mem.allocator import HeapAllocator
from repro.runtime.objects import (EXACT_TYPES, HEADER_SIZE, HEADER_STRUCT,
                                   LAYOUT, PTR_SIZE, TypeLayout, TypeTag,
                                   layout_at, layout_of, pack_pointers,
                                   pointer_slots)
from repro.units import PAGE_SHIFT, PAGE_SIZE

_PRIM_SLOT = HEADER_SIZE + 8  # header + 8-byte payload, stride of packed runs
_PACK_MIN = 64                # minimum list length for the packed layout
#: most bytes a dense region may hold per object to be read in one step
#: (a large last leaf is not worth copying to save per-leaf work)
_DENSE_READ_MAX = 512
#: allocations ``box`` plans before it allocates and writes them; bounds
#: what one call holds in host memory beside the heap itself
_WINDOW = 256

_CYCLE_SENTINEL = object()
#: tag code -> decoder of the leaves a dense region read can decode
_DENSE_DECODERS = tuple(row.decode if row.dense else None for row in LAYOUT)
#: tag code (one past the last: an unknown tag) -> may be in a leaf block:
#: a leaf, but not an ndarray (a walker may refuse to iterate one)
_BLOCK_LEAF = np.array([row.pointers is None and row.tag is not TypeTag.NDARRAY
                        for row in LAYOUT] + [False])


def is_prim_run(ptrs: List[int]) -> bool:
    """True when *ptrs* are at least ``_PACK_MIN`` addresses exactly one
    primitive slot apart — the layout of a packed int/float list."""
    n = len(ptrs)
    if n < _PACK_MIN or ptrs[-1] != ptrs[0] + (n - 1) * _PRIM_SLOT:
        return False
    arr = np.asarray(ptrs, dtype=np.uint64)
    return bool(np.all(np.diff(arr) == _PRIM_SLOT))


def encode_prim_run(tag: TypeTag, raw: bytes) -> bytes:
    """Box 8-byte payloads *raw* as one stride-24 run of *tag* objects."""
    words = np.empty((len(raw) // 8, 3), dtype="<u8")
    words[:, 0] = int(tag)  # u32 tag, u32 flags (0)
    words[:, 1] = 8         # payload size
    words[:, 2] = np.frombuffer(raw, dtype="<u8")
    return words.tobytes()


def read_packed_run(cursor: PageCursor, ptrs: List[int]
                    ) -> Optional[Tuple[TypeLayout, np.ndarray]]:
    """``(element row, u64 payload column)`` when *ptrs* is a stride-24
    homogeneous run of a packable type, read in bulk; else ``None``."""
    if not is_prim_run(ptrs):
        return None
    row, size = layout_at(cursor.read(ptrs[0], HEADER_SIZE))
    if size != 8 or row.run_code is None:
        return None
    raw = cursor.read(ptrs[0], len(ptrs) * _PRIM_SLOT)
    words = np.frombuffer(raw, dtype=np.uint64).reshape(-1, 3)
    # word 0 = tag|flags, word 1 = payload size; verify homogeneity
    if not bool(np.all(words[:, 0] == words[0, 0])):
        return None
    return row, words[:, 2]


def dense_region(ptrs: List[int]) -> Optional[Tuple[int, int]]:
    """``(lowest, highest)`` of *ptrs* when they are at least ``_PACK_MIN``
    objects in one dense allocation region (column cells and dict entries
    are allocated back to back); else ``None``.  Reads nothing."""
    n = len(ptrs)
    if n < _PACK_MIN:
        return None
    lo, hi = min(ptrs), max(ptrs)
    return (lo, hi) if hi - lo <= 256 * n else None


def read_dense_span(cursor: PageCursor, ptrs: List[int]
                    ) -> Optional[Tuple[int, int]]:
    """``(start, nbytes)`` of the :func:`dense_region` holding *ptrs*'
    objects (its last object's header read through *cursor*); else
    ``None``."""
    region = dense_region(ptrs)
    if region is None:
        return None
    lo, hi = region
    _row, size_hi = layout_at(cursor.read(hi, HEADER_SIZE))
    return lo, hi + HEADER_SIZE + size_hi - lo


class LeafBlock(NamedTuple):
    """A container's leaf children read from their frames in one step: per
    child, in pointer order, its address, tag code and payload size, and
    the bytes of the region they fill from the first child on."""

    addrs: np.ndarray
    tags: np.ndarray
    sizes: np.ndarray
    raw: memoryview

    def elide_headers(self, cursor: PageCursor, times: int) -> None:
        """Account *times* header reads of each leaf, the last leaf first:
        the order a stack walk pops them in."""
        addrs = np.repeat(self.addrs[::-1], times)
        cursor.elided(addrs, np.full(len(addrs), HEADER_SIZE))


def read_leaf_block(space: AddressSpace, ptrs: List[int]
                    ) -> Optional[LeafBlock]:
    """*ptrs*' objects read straight from the frames, when they are leaves
    at strictly ascending addresses in one :func:`dense_region` of at most
    ``_DENSE_READ_MAX`` bytes a leaf and every page of it is present; else
    ``None``.  Charges and reports nothing: the caller hands the reads the
    block stands in for to :meth:`PageCursor.elided` where it would have
    made them, so simulated cost stays per object while the host works
    per block."""
    region = dense_region(ptrs)
    if region is None:
        return None
    addrs = np.array(ptrs, np.int64)
    if not bool(np.all(addrs[1:] > addrs[:-1])):
        return None
    lo, hi = region
    head = _present_bytes(space, hi, HEADER_SIZE)
    if head is None:
        return None
    tag, _flags, size = HEADER_STRUCT.unpack(head)
    nbytes = hi + HEADER_SIZE + size - lo
    if not _BLOCK_LEAF[min(tag, len(LAYOUT))] \
            or nbytes > _DENSE_READ_MAX * len(ptrs):
        return None
    raw = _present_bytes(space, lo, nbytes)
    if raw is None:
        return None
    offs = addrs - lo
    tags = np.ndarray((len(raw) - 3,), "<u4", raw, 0, (1,))[offs]
    sizes = np.ndarray((len(raw) - 7,), "<u8", raw, 0,
                       (1,))[offs + 8].astype(np.int64)
    if not (_BLOCK_LEAF[np.minimum(tags, len(LAYOUT))].all()
            and bool(np.all(offs[:-1] + HEADER_SIZE + sizes[:-1]
                            <= offs[1:]))):
        return None
    return LeafBlock(addrs, tags, sizes, raw)


def _present_bytes(space: AddressSpace, vaddr: int, length: int
                   ) -> Optional[memoryview]:
    """The *length* bytes at *vaddr* when every page they span is present,
    taken from the frames (nothing charged, nothing reported); else
    ``None``."""
    ptes = list(map(space.page_table.lookup, range(
        vaddr >> PAGE_SHIFT, ((vaddr + length - 1) >> PAGE_SHIFT) + 1)))
    if None in ptes:
        return None
    frame, off = space.physical.frame, vaddr & (PAGE_SIZE - 1)
    return memoryview(b"".join([frame(pte.pfn).data
                                for pte in ptes]))[off:off + length]


class _BoxRun:
    """One ``box()`` call, as the pipeline ``deserialize`` is: objects are
    planned in allocation order and, a window at a time, allocated by one
    ``alloc_run`` and written by one ``write_batch`` — at the addresses,
    in the write order and as the one write per object that allocating
    and writing each object on its own would give.

    A planned object is named by its *slot*, its index in allocation
    order; ``slots`` maps those already allocated to addresses.  ``writes``
    holds the window's objects in write order (a container after its
    children) as ``(slot, bytes, kids)``: ``None`` for a leaf or a packed
    run, child slots for a container, ``(run slot, length)`` for a
    sequence over a packed run.
    """

    __slots__ = ("heap", "memo", "slots", "sizes", "writes", "extra")

    def __init__(self, heap: "ManagedHeap"):
        self.heap = heap
        # id(value) -> (slot, value): holding the value keeps its id from
        # being given to a later temporary.  Containers only: a leaf needs
        # no probe.
        self.memo: Dict[int, Tuple[int, Any]] = {}
        self.slots = array("Q")
        self.sizes: List[int] = []
        self.writes: List[Tuple] = []
        self.extra = 0  # objects beyond one per allocation (packed runs)

    def plan(self, values: Iterable) -> array:
        """Plan each of *values*; returns their slots."""
        slots, sizes, writes = self.slots, self.sizes, self.writes
        exact, header = EXACT_TYPES.get, HEADER_STRUCT.pack
        kids = array("Q")
        for value in values:
            if len(sizes) >= _WINDOW:
                self.flush()
            row = exact(type(value)) or layout_of(value)
            if row.encode is None:
                kids.append(self.plan_container(row, value))
                continue
            payload = row.encode(value)
            size = len(payload)
            slot = len(slots) + len(sizes)
            kids.append(slot)
            sizes.append(HEADER_SIZE + size)
            writes.append((slot, header(row.tag, 0, size) + payload, None))
            if size >= PAGE_SIZE:
                self.flush()  # written through: no window of large blobs
        return kids

    def plan_container(self, row: TypeLayout, value: Any) -> int:
        hit = self.memo.get(id(value))
        if hit is not None:
            return hit[0]
        fixed, children = row.split(value)
        nbytes = len(fixed) + PTR_SIZE * len(children)
        head = HEADER_STRUCT.pack(row.tag, 0, nbytes) + fixed
        if row.generic:
            kids = self.plan_packed(value) if row.sequence else None
            slot = self.allocate(HEADER_SIZE + nbytes)
            self.memo[id(value)] = (slot, value)
            if kids is None:
                kids = self.plan(children)
        else:
            kids = self.plan(children)
            slot = self.allocate(HEADER_SIZE + nbytes)
            self.memo[id(value)] = (slot, value)
        self.writes.append((slot, head, kids))
        return slot

    def plan_packed(self, value) -> Optional[Tuple[int, int]]:
        """Plan a long homogeneous int/float sequence as one stride-24
        run; returns ``(the run's slot, its length)``."""
        n = len(value)
        row = EXACT_TYPES.get(type(value[0])) if n >= _PACK_MIN else None
        if row is None or row.run_code is None \
                or set(map(type, value)) != {type(value[0])}:
            return None
        blob = encode_prim_run(
            row.tag, struct.pack(f"<{n}{row.run_code}", *value))
        slot = self.allocate(len(blob))
        self.extra += n - 1
        self.writes.append((slot, blob, None))
        if len(blob) >= PAGE_SIZE:
            self.flush()
        return slot, n

    def allocate(self, nbytes: int) -> int:
        """Plan one allocation; returns its slot."""
        self.sizes.append(nbytes)
        return len(self.slots) + len(self.sizes) - 1

    def flush(self) -> None:
        """Allocate the window's objects and write the completed ones."""
        heap, sizes = self.heap, self.sizes
        self.slots.extend(heap.allocator.alloc_run(sizes))
        objects = len(sizes) + self.extra
        heap.ledger.charge(objects * heap.cost.alloc_ns, "alloc")
        heap.space.write_batch(self._items())
        heap.objects_boxed += objects
        sizes.clear()
        self.writes.clear()
        self.extra = 0

    def _items(self) -> Iterator[Tuple[int, bytes]]:
        slots = self.slots
        for slot, blob, kids in self.writes:
            if type(kids) is tuple:
                base = slots[kids[0]]
                kids = range(base, base + kids[1] * _PRIM_SLOT, _PRIM_SLOT)
            elif kids is not None:
                kids = [slots[kid] for kid in kids]
            yield slots[slot], (blob if kids is None
                                else blob + pack_pointers(kids))


class ManagedHeap:
    """One function container's object heap.

    The heap owns an allocator over its range, a root set for mark-sweep
    GC, and cost accounting through the address space's ledger.
    """

    def __init__(self, space: AddressSpace, rng: Optional[AddressRange] = None,
                 name: str = "heap", numpy_iterator: bool = True):
        if rng is None:
            if space.segments is None:
                raise RuntimeHeapError(
                    f"heap range not given and {space.name!r} has no "
                    "segment layout")
            rng = space.segments.heap
        self.space = space
        self.range = rng
        self.name = name
        self.allocator = HeapAllocator(rng)
        self.roots: Set[int] = set()
        self.objects_boxed = 0
        # Section 4.4: numpy ndarrays only traverse when the 12-LoC internal
        # iterator wrapper is enabled.
        self.numpy_iterator = numpy_iterator

    @property
    def cost(self):
        return self.space.cost

    @property
    def ledger(self):
        return self.space.ledger

    def owns(self, addr: int) -> bool:
        """True when *addr* lies in this heap's own range (vs a remote one)."""
        return addr in self.range

    # ------------------------------------------------------------------ box

    def box(self, value: Any) -> int:
        """Write *value* into the heap; returns the root object's address.
        All or nothing: when *value* cannot be boxed (an unsupported type,
        a full heap) what the call had allocated is freed again."""
        allocator = self.allocator
        before = allocator.allocations()
        run = _BoxRun(self)
        try:
            (root,) = run.plan((value,))
            run.flush()
        except BaseException:
            # nothing else allocates or frees during the call, so its
            # allocations are the newest entries of the allocator's table
            for addr in allocator.allocations_dict()[before:]:
                allocator.free(addr)
            raise
        return run.slots[root]

    # ----------------------------------------------------------------- load

    def header_of(self, addr: int) -> Tuple[TypeTag, int, int]:
        """(tag, flags, payload_size) of the object at *addr*."""
        raw = self.space.read(addr, HEADER_SIZE)
        return layout_at(raw)[0].tag, *HEADER_STRUCT.unpack(raw)[1:]

    def object_span(self, addr: int) -> Tuple[int, int]:
        """(start, total bytes) of the object at *addr*."""
        _tag, _flags, size = self.header_of(addr)
        return addr, HEADER_SIZE + size

    def load(self, addr: int) -> Any:
        """Rebuild the Python value rooted at *addr* (may chase remote
        pointers through an rmap'd VMA)."""
        with PageCursor(self.space) as cursor:
            return self._load(cursor, addr, {})

    def _load(self, cursor: PageCursor, addr: int,
              memo: Dict[int, Any]) -> Any:
        if addr in memo:
            value = memo[addr]
            if value is _CYCLE_SENTINEL:
                raise SerializationError(
                    f"unsupported cycle through immutable object at "
                    f"{addr:#x}")
            return value
        row, size = layout_at(cursor.read(addr, HEADER_SIZE))
        payload = cursor.read(addr + HEADER_SIZE, size)
        if row.decode is not None:
            value = memo[addr] = row.decode(payload)
            return value
        ptrs = pointer_slots(row, payload)
        if row.generic:
            run = read_packed_run(cursor, ptrs) if row.sequence else None
            values = (self._dense_values(cursor, ptrs) if run is None
                      else run[1].view("<" + run[0].run_code).tolist())
            if values is not None:
                value = memo[addr] = row.build(payload, values)
                return value
        # a container that can hold itself is memoised empty, then filled
        value = memo[addr] = (_CYCLE_SENTINEL if row.fill is None
                              else row.build(payload, []))
        built = row.build(payload, [self._load(cursor, ptr, memo)
                                    for ptr in ptrs])
        if row.fill is None:
            memo[addr] = built
            return built
        row.fill(value, built)
        return value

    @staticmethod
    def _dense_values(cursor: PageCursor, ptrs: List[int]) -> Optional[List]:
        """Bulk-decode leaf children allocated in one dense region: one
        region read replaces two reads per object (same bytes, same fault
        behaviour).  ``None`` when a child is a container or the region
        is sparse."""
        span = read_dense_span(cursor, ptrs)
        if span is None or span[1] > _DENSE_READ_MAX * len(ptrs):
            return None
        lo, total = span
        raw = cursor.read(lo, total)
        out: List[Any] = []
        header, decoders = HEADER_STRUCT.unpack_from, _DENSE_DECODERS
        for ptr in ptrs:
            off = ptr - lo
            tag, _flags, size = header(raw, off)
            decode = decoders[tag]
            if decode is None:
                return None
            off += HEADER_SIZE
            out.append(decode(raw[off:off + size]))
        return out

    # ------------------------------------------------------------- children

    def children(self, addr: int) -> List[int]:
        """Child object addresses of the object at *addr*.

        Raises :class:`SerializationError` for types without a usable
        iterator (numpy without the wrapper) — callers fall back to
        non-prefetch mode (Section 4.4).
        """
        with PageCursor(self.space) as cursor:
            return self.children_at(cursor, addr)

    def children_at(self, cursor: PageCursor, addr: int) -> List[int]:
        """:meth:`children`, read through a walker's own *cursor*."""
        row, size = layout_at(cursor.read(addr, HEADER_SIZE))
        if row.tag is TypeTag.NDARRAY and not self.numpy_iterator:
            raise SerializationError(
                "ndarray provides no __iter__ for traversal "
                "(enable numpy_iterator)")
        if row.pointers is None:
            return []
        return pointer_slots(row, cursor.read(addr + HEADER_SIZE, size))

    # ------------------------------------------------------------------- GC

    def add_root(self, addr: int) -> None:
        self.roots.add(addr)

    def remove_root(self, addr: int) -> None:
        self.roots.discard(addr)

    def _reachable(self, roots: Iterable[int], local: bool) -> Set[int]:
        """Reachable from *roots* (*local*: without leaving this heap)."""
        seen: Set[int] = set()
        stack = list(roots)
        with PageCursor(self.space) as cursor:
            while stack:
                addr = stack.pop()
                if addr in seen:
                    continue
                seen.add(addr)
                children = self.children_at(cursor, addr)
                block = (read_leaf_block(self.space, children)
                         if len(children) >= _PACK_MIN else None)
                if block is not None and seen.isdisjoint(children) and (
                        not local or self.owns(children[0])
                        and self.owns(children[-1])):
                    # the leaves the loop would pop next, a header read each
                    block.elide_headers(cursor, 1)
                    seen.update(children)
                    continue
                for child in children:
                    if child not in seen and (not local or self.owns(child)):
                        stack.append(child)
        return seen

    def gc(self) -> int:
        """Mark-sweep over the local heap; returns objects' bytes freed.

        Addresses outside this heap's range — i.e. on a remote, rmap'd heap —
        are *skipped* during marking, per the hybrid GC design (Section 4.3):
        remote lifetimes are managed coarsely by the remote-root proxy.
        """
        marked = self._reachable(
            [a for a in self.roots if self.owns(a)], local=True)
        if not marked:  # every Container.reset_heap(): no per-object sweep
            return self.allocator.free_all()
        freed = 0
        marked_sorted = sorted(marked)
        for start in self.allocator.allocations_dict():
            # a block is live when any marked address falls inside it
            # (packed primitive runs share one allocation)
            i = bisect_left(marked_sorted, start)
            if i == len(marked_sorted) or marked_sorted[i] >= \
                    start + self.allocator.allocation_size(start):
                freed += self.allocator.free(start)
        return freed

    # ------------------------------------------------------------ utilities

    def bytes_in_use(self) -> int:
        return self.allocator.bytes_in_use

    def count_reachable(self, root: int) -> int:
        """Number of objects reachable from *root* (sub-object counting)."""
        return len(self._reachable([root], local=False))
