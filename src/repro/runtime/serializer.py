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
per-element cost is still charged, only host CPU time is saved.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.errors import SerializationError
from repro.mem.address_space import PageCursor
from repro.obs.telemetry import current as _telemetry
from repro.runtime.heap import (_PRIM_SLOT, ManagedHeap, encode_prim_run,
                                read_packed_run)
from repro.runtime.objects import (HEADER_SIZE, HEADER_STRUCT, LAYOUT,
                                   PTR_SIZE, TypeLayout, layout_at,
                                   pack_pointers, pointer_slots,
                                   unpack_pointers)
from repro.units import transfer_time_ns

_REC_OBJ = 0
_REC_PACKED = 1
_REC_HEADER = struct.Struct("<BIQ")  # kind, tag, count-or-len
_OBJ_HEADER = HEADER_STRUCT.pack


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
        """Flatten the graph rooted at *root* into a byte stream."""
        # Queue entries are an object's address or a packed record's
        # finished chunks; they are appended in index-assignment order, so
        # draining FIFO emits records in exactly index order (what
        # deserialize assumes).
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
                row, size = layout_at(cursor.read(addr, HEADER_SIZE))
                payload = cursor.read(addr + HEADER_SIZE, size)
                if row.pointers is not None:
                    payload = payload[:row.pointers] + self._child_indices(
                        cursor, row, payload, index, queue)
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
    def _child_indices(cursor: PageCursor, row: TypeLayout, payload: bytes,
                       index: Dict[int, int], queue: list) -> bytes:
        """The pointer slots of a container payload as stream indices.

        A sequence's contiguous primitive children become one queued
        packed record (unless any element was already reached through
        another reference, where packing would break indexing)."""
        ptrs = pointer_slots(row, payload)
        run = read_packed_run(cursor, ptrs) if row.sequence else None
        if run is not None and not any(p in index for p in ptrs):
            elem, values = run
            indices = range(len(index), len(index) + len(ptrs))
            index.update(zip(ptrs, indices))
            queue.append((_REC_HEADER.pack(_REC_PACKED, elem.tag, len(ptrs)),
                          values.tobytes()))
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

        Scan, allocate, write: the whole stream is validated before the
        first allocation, so a bad stream raises
        :class:`SerializationError` and leaves the heap as it was.
        """
        data = state.data
        records, sizes, total = self._scan(data)
        bases = heap.allocator.alloc_run(sizes)
        addrs: List[int] = []  # stream index -> object address
        for (kind, _tag, count, _off, _skip), base in zip(records, bases):
            if kind == _REC_OBJ:
                addrs.append(base)
            else:
                addrs.extend(range(base, base + count * _PRIM_SLOT,
                                   _PRIM_SLOT))

        # exactly adjacent objects are one write (one page walk per page
        # of the merged range); the allocator's 16-byte alignment leaves
        # a gap after most, and those are written on their own
        writes: List[Tuple[int, List[bytes]]] = []
        end = -1
        for (kind, tag, length, off, skip), base in zip(records, bases):
            if kind == _REC_PACKED:
                blob = encode_prim_run(tag, data[off:off + 8 * length])
            elif skip is None:
                blob = _OBJ_HEADER(tag, 0, length) + data[off:off + length]
            else:
                indices = unpack_pointers(
                    data, (length - skip) // PTR_SIZE, off + skip)
                blob = (_OBJ_HEADER(tag, 0, length) + data[off:off + skip]
                        + pack_pointers([addrs[i] for i in indices]))
            if base == end:
                writes[-1][1].append(blob)
            else:
                writes.append((base, [blob]))
            end = base + len(blob)
        heap.space.write_batch(
            (addr, b"".join(parts)) for addr, parts in writes)
        heap.objects_boxed += total

        # the per-object constant subsumes allocator work (as measured for
        # pickle in Section 2.4: ~12 ms for ~400 k sub-objects)
        self._charge(heap, "deserialize",
                     heap.cost.deserialize_per_object_ns, total, len(data))
        return addrs[0]

    @staticmethod
    def _scan(data: bytes) -> Tuple[List[Tuple], List[int], int]:
        """Validate *data* and slice it into records, allocating nothing.

        Returns ``(records, sizes, object_count)``: one ``(kind, tag,
        length-or-count, payload offset, pointer-slot offset or None)``
        and one allocation size per record.
        """
        end = len(data)
        if end < 8:
            raise SerializationError("truncated stream: missing header")
        (total,) = struct.unpack_from("<Q", data, 0)
        # sanity bound: even maximally packed records need >= 8 bytes per
        # object, so a larger count is a forged/corrupt header (and would
        # otherwise drive an unbounded host allocation)
        if not 0 < total <= end:
            raise SerializationError(
                f"corrupt stream: claims {total} objects in {end} bytes")
        records: List[Tuple] = []
        sizes: List[int] = []
        unpack_header, header_size = _REC_HEADER.unpack_from, _REC_HEADER.size
        known_tags = len(LAYOUT)
        pos = 8
        seen = 0
        while pos < end:
            if pos + header_size > end:
                raise SerializationError("truncated record header")
            kind, tag, length = unpack_header(data, pos)
            pos += header_size
            if kind == _REC_OBJ and tag < known_tags:
                nbytes = length
                sizes.append(HEADER_SIZE + length)
                seen += 1
            elif kind == _REC_PACKED and tag < known_tags and length \
                    and LAYOUT[tag].run_code is not None:
                nbytes = 8 * length
                sizes.append(length * _PRIM_SLOT)
                seen += length
            else:
                raise SerializationError(
                    f"corrupt record: kind {kind}, tag {tag}, length {length}")
            if pos + nbytes > end:
                raise SerializationError("truncated record payload")
            skip = LAYOUT[tag].pointers if kind == _REC_OBJ else None
            if skip is not None:
                nptrs, rest = divmod(length - skip, PTR_SIZE)
                if nptrs < 0 or rest:
                    raise SerializationError(
                        f"corrupt stream: {length}-byte container")
                # checked here, unpacked again when written: holding every
                # container's indices across the allocation costs ~40 B
                # per child of peak memory
                last = max(unpack_pointers(data, nptrs, pos + skip),
                           default=0)
                if last >= total:
                    raise SerializationError(
                        f"corrupt stream: child index {last} of {total} "
                        f"objects")
            records.append((kind, tag, length, pos, skip))
            pos += nbytes
        if seen != total:
            raise SerializationError(
                f"corrupt stream: {seen} records, expected {total}")
        return records, sizes, total
