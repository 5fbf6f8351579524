"""The (de)serialization baseline — a pickle-equivalent for managed heaps.

``serialize`` walks every object reachable from the root (exactly what
``pickle`` does to PyObjects), transforming pointers into stream indices and
copying payloads into one contiguous byte array.  ``deserialize``
reconstructs the graph on a target heap, re-allocating every object and
fixing pointers back up.

Costs charged match the paper's measurements (Section 2.4): ~25 ns per
sub-object to serialize, ~30 ns to deserialize, plus single-threaded memcpy
bandwidth of ~1.6 GB/s for the byte copies.  A 3.2 MB dataframe with 401,839
sub-objects therefore costs ~10 ms to serialize and ~12 ms to deserialize.

Wire format (little-endian)::

    stream  := u64 object_count, record*
    record  := OBJ u32 tag, u64 payload_len, payload-with-indices
             | PACKED u32 elem_tag, u64 count, 8*count raw values

Packed records encode the heap's contiguous primitive runs in bulk; the
per-element cost is still charged, only host CPU time is saved.  In the
same way simulated cost is charged per object and host work is done per
block: a container's leaf children that sit in one dense region of
present pages are queued as one entry, and when it is dequeued their
header and payload reads are charged and reported in per-object order and
their records emitted as one ``bytes``.
"""

from __future__ import annotations

import struct
from array import array
from collections import namedtuple
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import SerializationError
from repro.mem.address_space import PageCursor
from repro.obs.telemetry import current as _telemetry
from repro.runtime.heap import (_PRIM_SLOT, LeafBlock, ManagedHeap,
                                read_leaf_block, read_packed_run)
from repro.runtime.objects import (HEADER_SIZE, LAYOUT, PTR_SIZE,
                                   TypeLayout, layout_at, pack_pointers,
                                   pointer_slots)
from repro.units import PAGE_SHIFT, PAGE_SIZE, transfer_time_ns

_REC_OBJ = 0
_REC_PACKED = 1
_REC_HEADER = struct.Struct("<BIQ")  # kind, tag, count-or-len
#: tag codes a packed record may carry
_PACKABLE = frozenset(int(row.tag) for row in LAYOUT
                      if row.run_code is not None)
#: tag code -> payload offset of its first pointer slot (-1: a leaf)
_POINTER_AT = np.array([-1 if row.pointers is None else row.pointers
                        for row in LAYOUT], np.int64)
#: leaves this long are copied into the page image one by one, the
#: shorter ones word by word over all of them at once
_BIG_LEAF = 256


class SerializedState:
    """The output of :func:`Serializer.serialize`."""

    def __init__(self, data: bytes, object_count: int):
        self.data = data
        self.object_count = object_count

    @property
    def nbytes(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (f"SerializedState({self.nbytes} bytes, "
                f"{self.object_count} objects)")


class Serializer:
    """Pickle-equivalent serializer over managed heaps."""

    def __init__(self, category_prefix: str = ""):
        self.prefix = category_prefix

    # ------------------------------------------------------------ serialize

    def serialize(self, heap: ManagedHeap, root: int) -> SerializedState:
        """Flatten the graph rooted at *root* into a byte stream, charging
        simulated cost per object and doing host work per leaf block."""
        # Queue entries are an object's address, a packed record's
        # finished chunks or a LeafBlock; they are appended in
        # index-assignment order, so draining FIFO emits records in exactly
        # index order (what deserialize assumes).
        index: Dict[int, int] = {root: 0}
        queue: list = [root]
        chunks: List[bytes] = []
        qpos = 0
        with PageCursor(heap.space) as cursor:
            while qpos < len(queue):
                addr = queue[qpos]
                qpos += 1
                if type(addr) is tuple:
                    chunks.extend(addr)
                    continue
                if type(addr) is LeafBlock:
                    chunks.append(_leaf_records(cursor, addr))
                    continue
                row, size = layout_at(cursor.read(addr, HEADER_SIZE))
                payload = cursor.read(addr + HEADER_SIZE, size)
                if row.pointers is not None:
                    payload = payload[:row.pointers] + self._child_indices(
                        heap.space, cursor, row, payload, index, queue)
                chunks.append(_REC_HEADER.pack(_REC_OBJ, row.tag, size))
                chunks.append(payload)

        data = struct.pack("<Q", len(index)) + b"".join(chunks)
        self._charge(heap, "serialize", heap.cost.serialize_per_object_ns,
                     len(index), len(data))
        return SerializedState(data, len(index))

    def _charge(self, heap: ManagedHeap, op: str, per_object_ns: int,
                objects: int, nbytes: int) -> None:
        """Charge one *op*: the per-object constant plus the byte copy."""
        category = self.prefix + op
        per_object = objects * per_object_ns
        copy = transfer_time_ns(nbytes, heap.cost.serialize_copy_gbps)
        heap.ledger.charge(per_object, category)
        heap.ledger.charge(copy, category)
        hub = _telemetry()
        if hub is not None:
            hub.op(heap.space.name, "runtime", category, heap.ledger,
                   per_object + copy, objects=objects, bytes=nbytes)

    @staticmethod
    def _child_indices(space, cursor: PageCursor, row: TypeLayout,
                       payload: bytes, index: Dict[int, int], queue: list
                       ) -> bytes:
        """The pointer slots of a container payload as stream indices.

        A sequence's contiguous primitive children become one queued
        packed record (unless any element was already reached through
        another reference, where packing would break indexing); leaf
        children new to the stream that :func:`read_leaf_block` reads in
        one step become one queued :class:`LeafBlock`."""
        ptrs = pointer_slots(row, payload)
        run = read_packed_run(cursor, ptrs) if row.sequence else None
        if run is not None and not any(p in index for p in ptrs):
            elem, values = run
            indices = range(len(index), len(index) + len(ptrs))
            index.update(zip(ptrs, indices))
            queue.append((_REC_HEADER.pack(_REC_PACKED, elem.tag, len(ptrs)),
                          values.tobytes()))
            return pack_pointers(indices)
        block = read_leaf_block(space, ptrs) if run is None else None
        if block is not None and index.keys().isdisjoint(ptrs):
            # ascending, so distinct: the records the queue would hold
            indices = range(len(index), len(index) + len(ptrs))
            index.update(zip(ptrs, indices))
            queue.append(block)
            return pack_pointers(indices)
        indices = []
        for ptr in ptrs:
            idx = index.get(ptr)
            if idx is None:
                idx = index[ptr] = len(index)
                queue.append(ptr)
            indices.append(idx)
        return pack_pointers(indices)

    # ---------------------------------------------------------- deserialize

    def deserialize(self, heap: ManagedHeap, state: SerializedState) -> int:
        """Reconstruct the graph on *heap*; returns the new root address.

        Scan, stage, write: the stream is validated before the first
        allocation (a bad one raises :class:`SerializationError` and
        leaves the heap as it was), laid out in a host image of the pages
        its objects touch and written a run of adjacent pages at a time.
        All or nothing, like ``box``: a failed call frees what it
        allocated.
        """
        data = state.data
        rec = _scan(data)
        allocator = heap.allocator
        before = allocator.allocations()
        try:
            bases = allocator.alloc_run(rec.sizes.tolist())
            runs, extra_walks = _stage(heap.space, data, rec, bases)
            heap.space.write_batch(runs)
        except BaseException:  # the call's are the newest allocations
            for addr in allocator.allocations_dict()[before:]:
                allocator.free(addr)
            raise
        heap.ledger.charge(extra_walks * heap.cost.page_table_walk_ns, "mmu")
        heap.objects_boxed += rec.total
        # the per-object constant subsumes allocator work (as measured for
        # pickle in Section 2.4: ~12 ms for ~400 k sub-objects)
        self._charge(heap, "deserialize",
                     heap.cost.deserialize_per_object_ns, rec.total, len(data))
        return bases[0]


def _leaf_records(cursor: PageCursor, block: LeafBlock) -> bytes:
    """The OBJ records of *block*'s leaves as one ``bytes``, with the
    header and payload read of each accounted on *cursor*, first leaf
    first — where dequeuing the leaves one by one would have made them.

    A record is its object's bytes from header byte 3 on (the tag's high
    byte, 0, is the record kind) with the flags word replaced by the tag;
    the leaves ascend, so the records are the kept bytes in order."""
    addrs, sizes, n = block.addrs, block.sizes, len(block.addrs)
    cursor.elided(np.column_stack((addrs, addrs + HEADER_SIZE)).ravel(),
                  np.column_stack((np.full(n, HEADER_SIZE), sizes)).ravel())
    image = np.frombuffer(bytearray(block.raw), np.uint8)
    offs = addrs - addrs[0]
    np.ndarray((len(image) - 3,), "<u4", image, 0, (1,))[offs + 4] = \
        block.tags
    edges = np.zeros(len(image) + 1, np.int8)
    edges[offs + 3] = 1
    edges[offs + HEADER_SIZE + sizes] = -1
    return image[np.cumsum(edges, out=edges)[:-1].view(bool)].tobytes()


#: a scanned stream: per record its payload's offset, tag, length (a
#: packed run's: elements), first pointer slot's payload offset (-1: none)
#: and heap size; the packed runs; per pointer slot its record, offset and
#: child index.  ``u64_at[i]`` is the u64 at byte i of the stream.
_Records = namedtuple("_Records", "total u64_at off tag length ptr_at sizes "
                      "packed slot_rec slot_at child")


def _scan(data: bytes) -> _Records:
    """Validate *data* and slice it into records, allocating nothing.  The
    loop checks what locates the next record; container shapes, child
    indices and the object count are checked over all records at once,
    raising the error a record-by-record check would meet first."""
    end = len(data)
    if end < 8:
        raise SerializationError("truncated stream: missing header")
    (total,) = struct.unpack_from("<Q", data, 0)
    # even maximally packed records need >= 8 bytes per object: a larger
    # count is corrupt (and would drive an unbounded host allocation)
    if not 0 < total <= end:
        raise SerializationError(
            f"corrupt stream: claims {total} objects in {end} bytes")
    heads, failure, pos, known_tags = array("q"), None, 8, len(LAYOUT)
    append, unpack, head_size = (heads.append, _REC_HEADER.unpack_from,
                                 _REC_HEADER.size)
    try:
        while pos < end:
            append(pos)
            kind, tag, length = unpack(data, pos)
            if kind or tag >= known_tags:  # not an object record
                if kind != _REC_PACKED or not length or tag not in _PACKABLE:
                    raise SerializationError(f"corrupt record: kind {kind}, "
                                             f"tag {tag}, length {length}")
                length *= 8
            pos += head_size + length
        if pos > end:  # only the last record can run past the end
            raise SerializationError("truncated record payload")
    except struct.error:
        failure = SerializationError("truncated record header")
    except SerializationError as err:
        failure = err
    if failure is not None:
        heads.pop()  # raised once the records before it are checked
    head = np.frombuffer(heads, np.int64)
    off = head + head_size
    u64_at = np.ndarray((end - 7,), "<u8", data, 0, (1,))
    tag = np.ndarray((end - 3,), "<u4", data, 0, (1,))[head + 1]
    length = u64_at[head + 5].astype(np.int64)
    packed = np.frombuffer(data, np.uint8)[head].nonzero()[0]
    ptr_at = _POINTER_AT[tag]
    ptr_at[packed] = -1
    holders = (ptr_at >= 0).nonzero()[0]
    nptrs, odd = np.divmod(length[holders] - ptr_at[holders], PTR_SIZE)
    shapeless = (odd != 0) | (nptrs < 0)
    nptrs[shapeless] = 0
    slot_rec = holders.repeat(nptrs)
    slot_at = ((off[holders] + ptr_at[holders] - PTR_SIZE
                * (nptrs.cumsum() - nptrs)).repeat(nptrs)
               + PTR_SIZE * np.arange(len(slot_rec)))
    child = u64_at[slot_at]
    dangling, shapeless = slot_rec[child >= total], holders[shapeless]
    if len(shapeless) and (not len(dangling) or shapeless[0] <= dangling[0]):
        raise SerializationError(
            f"corrupt stream: {length[shapeless[0]]}-byte container")
    if len(dangling):
        raise SerializationError(
            f"corrupt stream: child index "
            f"{child[slot_rec == dangling[0]].max()} of {total} objects")
    if failure is not None:
        raise failure
    seen = len(head) - len(packed) + int(length[packed].sum())
    if seen != total:
        raise SerializationError(
            f"corrupt stream: {seen} records, expected {total}")
    sizes = length + HEADER_SIZE
    sizes[packed] = length[packed] * _PRIM_SLOT
    return _Records(total, u64_at, off, tag, length, ptr_at, sizes, packed,
                    slot_rec, slot_at, child.astype(np.int64))


def _stage(space, data: bytes, rec: _Records, bases: List[int]
           ) -> Tuple[List[Tuple[int, memoryview]], int]:
    """The objects laid out in an image of the pages they touch (rows in
    ascending page order, so an object is one slice of it), as ``(write
    items, page walks beyond one per page)``.  Bytes no object covers keep
    the frame's (a page not yet mapped is demand-zero).  One item per run
    of adjacent pages, in the order the per-object writes first touched
    them, gives their faults and CoW breaks, on the same frames; those
    writes walked every page of each run of exactly adjacent objects."""
    base = np.fromiter(bases, np.int64, len(bases))
    end = base + rec.sizes
    first_page = base >> PAGE_SHIFT
    span = ((end - 1) >> PAGE_SHIFT) - first_page + 1
    spans_to = span.cumsum()
    # every (record, page) pair: record by record, ascending within one
    touched = ((first_page + span - spans_to).repeat(span)
               + np.arange(spans_to[-1]))
    by_page = touched.argsort(kind="stable")
    new = np.ones(len(touched), bool)
    np.not_equal(touched[by_page[1:]], touched[by_page[:-1]], out=new[1:])
    vpns = touched[by_page[new]]
    first_row = vpns.searchsorted(first_page)

    # only a record's first and last page can have bytes no object covers
    words = np.empty(len(vpns) << (PAGE_SHIFT - 3), np.uint64)
    image, blank = memoryview(words.view(np.uint8)), []
    edge = np.zeros(len(vpns), bool)
    edge[first_row] = edge[first_row + span - 1] = True
    edge = edge.nonzero()[0]
    for row, pte in zip(edge.tolist(), map(space.page_table.lookup,
                                           vpns[edge].tolist())):
        if pte is None:
            blank.append(row)
        else:
            image[row << PAGE_SHIFT:(row + 1) << PAGE_SHIFT] = \
                space.physical.frame(pte.pfn).data
    words.reshape(len(vpns), -1)[blank] = 0

    at = (first_row << PAGE_SHIFT) + (base & (PAGE_SIZE - 1))
    words[at >> 3] = rec.tag  # flags 0 (a packed run's is redone below)
    packed = rec.packed  # a run: one block of (tag, 8, value) triples
    for to, count, src, tag in zip((at[packed] >> 3).tolist(),
                                   rec.length[packed].tolist(),
                                   rec.off[packed].tolist(),
                                   rec.tag[packed].tolist()):
        block = words[to:to + 3 * count].reshape(count, 3)
        block[:, 0], block[:, 1] = tag, 8
        block[:, 2] = np.frombuffer(data, "<u8", count, src)
    # the rest is the stream's bytes from the record header's length field
    # to a leaf's end or a container's first pointer slot: a large leaf as
    # one slice, the others in 8-byte words (the last one ending there)
    verbatim = np.where(rec.ptr_at < 0, rec.length, rec.ptr_at) + 8
    verbatim[packed] = 0
    big = (verbatim >= _BIG_LEAF).nonzero()[0]
    for src, nbytes, to in zip((rec.off[big] - 8).tolist(),
                               verbatim[big].tolist(), (at[big] + 8).tolist()):
        image[to:to + nbytes] = memoryview(data)[src:src + nbytes]
    verbatim[big] = 0
    n = (verbatim + 7) >> 3
    ends = n.cumsum()
    src = (rec.off - 8).repeat(n) + np.minimum(
        (np.arange(ends[-1]) - (ends - n).repeat(n)) << 3,
        (verbatim - 8).repeat(n))
    shift = at + HEADER_SIZE - rec.off  # stream offset -> image offset
    np.ndarray((len(words) * 8 - 7,), "<u8", words, 0, (1,))[
        src + shift.repeat(n)] = rec.u64_at[src]
    address = base  # of each stream index; a packed run's follow its base
    if len(packed):
        count = np.ones(len(base), np.int64)
        count[packed] = rec.length[packed]
        address = ((base - _PRIM_SLOT * (count.cumsum() - count)).repeat(count)
                   + _PRIM_SLOT * np.arange(rec.total))
    words[(rec.slot_at + shift[rec.slot_rec]) >> 3] = address[rec.child]

    order = by_page[new].argsort()  # rows in first-touch order
    ordered = vpns[order]
    cuts = [0, *((ordered[1:] - ordered[:-1] != 1).nonzero()[0] + 1).tolist(),
            len(order)]
    runs = [(vpn << PAGE_SHIFT, image[row << PAGE_SHIFT:
                                      (row + stop - start) << PAGE_SHIFT])
            for vpn, row, start, stop in zip(ordered[cuts[:-1]].tolist(),
                                             order[cuts[:-1]].tolist(),
                                             cuts, cuts[1:])]
    # an object in one item with the one before it shares its first walk
    shared = (base[1:] == end[:-1]) & (base[1:] & (PAGE_SIZE - 1) != 0)
    return runs, len(touched) - int(shared.sum()) - len(vpns)
