"""Per-object and per-page reference algorithms the run-at-a-time code
must equal.

These are the implementations the repository had before heap
reconstruction, ``box``, ``load``, ``traverse`` and ``serialize`` went
run-at-a-time: one ``translate`` per page chunk, one ``alloc``, one
``write`` and one or two ``read``s per object, an ``isinstance``/tag
ladder per type.  Tests run them beside ``AddressSpace.write_batch`` /
``PageCursor``, ``HeapAllocator.alloc_run``, ``ManagedHeap``,
``ObjectTraverser`` and ``Serializer`` on identically prepared state and
require the same bytes, addresses, faults, lineage calls and ledger
totals.  The bodies are the old code verbatim, except that every memory
access goes through :func:`read_per_page` / :func:`write_per_page`, so
nothing here runs the code it is the reference for.

Below the page: :func:`translate_per_page` and what it calls are the
fault path as it was before pages went a run at a time — one
``translate`` -> ``find_vma`` -> ``handle_fault`` -> ``qp.read`` ->
``allocate`` -> ``map`` chain per page — taking the space / VMA / QP /
physical memory they used to be methods of as their first argument.
"""

import struct
import sys
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import (MemoryError_, OutOfMemory, QpBroken,
                          RemoteAccessError, SegmentationFault,
                          SerializationError)
from repro.kernel.remote_pager import FETCH_RDMA, RemoteVMA
from repro.mem import PAGE_SIZE, AnonymousVMA
from repro.mem.layout import page_number, page_round_down
from repro.mem.pagetable import PTE_COW, PTE_PRESENT, PTE_WRITE
from repro.mem.physical import Frame
from repro.net.rdma import ReadRequest
from repro.obs.telemetry import current as telemetry
from repro.runtime import objects as enc
from repro.runtime.heap import (_PACK_MIN, _PRIM_SLOT, ManagedHeap,
                                encode_prim_run, is_prim_run)
from repro.runtime.objects import (CODE_DTYPES, DTYPE_CODES, HEADER_SIZE,
                                   LAYOUT, PTR_SIZE, TypeTag, unpack_pointers)
from repro.runtime.serializer import SerializedState
from repro.runtime.traverse import TraversalResult
from repro.runtime.values import (DataFrameValue, ImageValue, MLModelValue,
                                  NdArrayValue, TreeValue)
from repro.units import transfer_time_ns

PRIM_SLOT = HEADER_SIZE + 8
REC_HEADER = _REC_HEADER = struct.Struct("<BIQ")
_REC_OBJ, _REC_PACKED = 0, 1
POINTER_OFFSET = {
    TypeTag.LIST: 8, TypeTag.TUPLE: 8, TypeTag.DICT: 8, TypeTag.TREE: 8,
    TypeTag.DATAFRAME: 16, TypeTag.MLMODEL: 24,
}
CONTAINERS = set(POINTER_OFFSET)
_PACKED_TAGS = (TypeTag.INT, TypeTag.FLOAT)
_IMAGE_MODES = {"L": 0, "RGB": 1, "RGBA": 2}
_IMAGE_CODES = {v: k for k, v in _IMAGE_MODES.items()}
_CYCLE_SENTINEL = object()


def pack_header(tag: TypeTag, payload_size: int, flags: int = 0) -> bytes:
    return enc.HEADER_STRUCT.pack(int(tag), flags, payload_size)


def unpack_header(raw: bytes):
    tag, flags, size = enc.HEADER_STRUCT.unpack(raw)
    return TypeTag(tag), flags, size


def unpack_u64(raw: bytes, offset: int = 0) -> int:
    return struct.unpack_from("<Q", raw, offset)[0]


def unpack_i64(raw: bytes, offset: int = 0) -> int:
    return struct.unpack_from("<q", raw, offset)[0]


def unpack_f64(raw: bytes, offset: int = 0) -> float:
    return struct.unpack_from("<d", raw, offset)[0]


def pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def pack_i64(value: int) -> bytes:
    return struct.pack("<q", value)


def pack_f64(value: float) -> bytes:
    return struct.pack("<d", value)


def read_per_page(space, vaddr: int, length: int) -> bytes:
    """``AddressSpace.read`` as one charged page-table walk per chunk."""
    hub = telemetry()
    if hub is not None and hub.lineage is not None:
        hub.lineage.touched(space.name, vaddr, length)
    out = bytearray()
    while length > 0:
        pte = translate_per_page(space, vaddr)
        off = vaddr % PAGE_SIZE
        chunk = min(length, PAGE_SIZE - off)
        out += space.physical.frame(pte.pfn).data[off:off + chunk]
        vaddr += chunk
        length -= chunk
    return bytes(out)


def write_per_page(space, vaddr: int, data: bytes) -> None:
    """``AddressSpace.write`` as one charged page-table walk per chunk."""
    hub = telemetry()
    if hub is not None and hub.lineage is not None:
        hub.lineage.touched(space.name, vaddr, len(data))
    pos = 0
    remaining = len(data)
    while remaining > 0:
        pte = translate_per_page(space, vaddr, write=True)
        off = vaddr % PAGE_SIZE
        chunk = min(remaining, PAGE_SIZE - off)
        space.physical.frame(pte.pfn).data[off:off + chunk] = \
            data[pos:pos + chunk]
        vaddr += chunk
        pos += chunk
        remaining -= chunk


# --- the per-page fault path ---------------------------------------------------------

def translate_per_page(space, vaddr: int, write: bool = False):
    """``AddressSpace.translate``: resolve one page, faulting it in."""
    vpn = page_number(vaddr)
    pte = space.page_table.lookup(vpn)
    space.ledger.charge(space.cost.page_table_walk_ns, "mmu")
    if pte is None:
        vma = space.find_vma(vaddr)
        if vma is None:
            raise SegmentationFault(vaddr)
        space.fault_count += 1
        pte = handle_fault_per_page(vma, space, vpn, write)
        hub = telemetry()
        if hub is not None:
            hub.count(space.name, "mem", "faults")
            hub.gauge_max(space.name, "mem", "resident.pages.hw",
                          len(space.page_table))
    if write:
        if pte.cow:
            pte = _break_cow_per_page(space, vpn, pte)
        elif not pte.writable:
            raise SegmentationFault(vaddr, "write to read-only page")
    return pte


def _break_cow_per_page(space, vpn: int, pte):
    space.cow_break_count += 1
    old_pfn = pte.pfn
    src = space.physical.frame(old_pfn)
    frame = allocate_per_page(space.physical)
    frame.data[:] = src.data
    put_per_page(space.physical, old_pfn)
    space.ledger.charge(space.cost.page_fault_ns, "cow-break")
    hub = telemetry()
    if hub is not None:
        hub.count(space.name, "mem", "cow.breaks")
        if hub.lineage is not None:
            hub.lineage.cow_broken(space.name, vpn)
    return space.page_table.remap(vpn, frame.pfn, PTE_PRESENT | PTE_WRITE)


def handle_fault_per_page(vma, space, vpn: int, write: bool):
    """``vma.handle_fault`` as it was: the anonymous and the remote
    handler below, any other class's own (it is per-page code still)."""
    if type(vma) is AnonymousVMA:
        return _anonymous_fault(vma, space, vpn, write)
    if type(vma) is RemoteVMA:
        return _remote_fault(vma, space, vpn, write)
    return vma.handle_fault(space, vpn, write)


def _anonymous_fault(vma, space, vpn: int, write: bool):
    if write and not vma.writable:
        raise SegmentationFault(vpn << 12, "write to read-only vma")
    frame = allocate_per_page(space.physical)
    flags = PTE_PRESENT | (PTE_WRITE if vma.writable else 0)
    space.ledger.charge(space.cost.page_fault_ns, "fault")
    return space.page_table.map(vpn, frame.pfn, flags)


def _remote_fault(vma, space, vpn: int, write: bool):
    space.ledger.charge(space.cost.page_fault_ns, "remote-fault")
    hub = telemetry()
    lin = hub.lineage if hub is not None else None
    fallback0 = vma.fallback_faults
    remote_pfn = vma._ensure_pte(space, vpn)  # reports its own PTE fetch
    if remote_pfn is None:
        # never materialized at the producer: demand-zero locally
        vma.zero_fill_faults += 1
        frame = allocate_per_page(space.physical)
        if lin is not None:
            lin.page_pulled(vma.name, space.name, vpn, "zero_fill", 0)
    elif vma.qp is None:
        # same machine: share the producer's frame directly (CoW)
        vma.remote_faults += 1
        frame = space.physical.get(remote_pfn)
        if lin is not None:
            lin.page_pulled(vma.name, space.name, vpn, "shared", 0)
    else:
        vma.remote_faults += 1
        vma.pages_fetched += 1
        data = _fetch_page_per_page(vma, space, remote_pfn)
        frame = allocate_per_page(space.physical)
        frame.data[:] = data
        if lin is not None:
            lin.page_pulled(vma.name, space.name, vpn, "demand",
                            PAGE_SIZE,
                            rpc=(vma.fetch_mode != FETCH_RDMA
                                 or vma.fallback_faults > fallback0))
    return space.page_table.map(vpn, frame.pfn, PTE_PRESENT | PTE_COW)


def _fetch_page_per_page(vma, space, remote_pfn: int) -> bytes:
    if vma.fetch_mode == FETCH_RDMA:
        try:
            return qp_read_per_page(vma.qp, ReadRequest(remote_pfn),
                                    space.ledger, category="rdma-read")
        except QpBroken:
            if not vma.rpc_fallback:
                raise
            vma.fallback_faults += 1
            return vma._fetch_page_rpc(space, remote_pfn)
    return vma._fetch_page_rpc(space, remote_pfn)


def qp_read_per_page(qp, req, ledger, category: str = "rdma-read") -> bytes:
    """``QueuePair.read``: one usability check and one price per READ."""
    remote = qp._check_usable(ledger)
    try:
        data = remote.physical.read_frame(req.pfn, req.offset, req.length)
    except MemoryError_ as err:
        qp._fail_verb(ledger)
        raise RemoteAccessError(
            f"READ of pfn {req.pfn} on {qp.remote_mac!r}: remote "
            f"memory invalid ({err})") from err
    cost_ns = qp.read_cost_ns(req.length)
    ledger.charge(cost_ns, category)
    qp.reads_posted += 1
    qp.bytes_read += req.length
    hub = telemetry()
    if hub is not None:
        qp._observe_reads(hub, 1, req.length, cost_ns)
        hub.op(qp.nic.mac_addr, "net.rdma", "read", ledger, cost_ns,
               remote=qp.remote_mac, bytes=req.length)
    return data


def allocate_per_page(physical):
    """``PhysicalMemory.allocate``: a zeroed frame with refcount 1."""
    if physical.used_frames >= physical.capacity_frames:
        raise OutOfMemory(
            f"physical memory exhausted ({physical.capacity_frames} frames)")
    if physical._free_pfns:
        pfn = physical._free_pfns.pop()
    else:
        pfn = physical._next_pfn
        physical._next_pfn += 1
    frame = Frame(pfn)
    physical._frames[pfn] = frame
    if physical.used_frames > physical.peak_frames:
        physical.peak_frames = physical.used_frames
        hub = telemetry()
        if hub is not None:
            hub.gauge_max(physical.owner, "mem", "frames.resident.hw",
                          physical.peak_frames)
    return frame


def put_per_page(physical, pfn: int) -> None:
    """``PhysicalMemory.put``: drop one reference, free at zero."""
    frame = physical.frame(pfn)
    if frame.refcount <= 0:
        raise MemoryError_(f"refcount underflow on pfn {pfn}")
    frame.refcount -= 1
    if frame.refcount == 0:
        del physical._frames[pfn]
        physical._free_pfns.append(pfn)


def unmap_vma_per_page(space, vma, free_frames: bool = True) -> None:
    """``AddressSpace.unmap_vma``: unmap and put one page at a time."""
    space._vmas.remove(vma)
    table = space.page_table
    first = page_number(vma.range.start)
    last = page_number(vma.range.end - 1)
    present = [(vpn, table.lookup(vpn)) for vpn in sorted(table._entries)
               if first <= vpn <= last]
    for vpn, pte in present:
        table.unmap(vpn)
        if free_frames:
            put_per_page(space.physical, pte.pfn)
    hub = telemetry()
    if hub is not None and hub.lineage is not None:
        hub.lineage.vma_unmapped(space.name, vma.name)


def deserialize_per_object(heap, state, prefix: str = "") -> int:
    """``Serializer.deserialize`` as one ``alloc`` per record while
    scanning and one buffered write per object (valid streams only)."""
    data = state.data
    (total,) = struct.unpack_from("<Q", data, 0)
    pos = 8
    records = []
    addrs = [None] * total
    next_index = 0
    while pos < len(data):
        kind, tag, length = REC_HEADER.unpack_from(data, pos)
        pos += REC_HEADER.size
        if kind == 0:
            payload = data[pos:pos + length]
            pos += length
            addr = heap.allocator.alloc(HEADER_SIZE + length)
            addrs[next_index] = addr
            records.append((kind, TypeTag(tag), addr, payload))
            next_index += 1
        else:
            raw = data[pos:pos + 8 * length]
            pos += 8 * length
            base = heap.allocator.alloc(length * PRIM_SLOT)
            for i in range(length):
                addrs[next_index + i] = base + i * PRIM_SLOT
            records.append((kind, TypeTag(tag), base, raw, length))
            next_index += length
    assert next_index == total

    pend_addr = None
    pend = bytearray()

    def flush():
        nonlocal pend_addr
        if pend_addr is not None and pend:
            write_per_page(heap.space, pend_addr, bytes(pend))
        pend_addr = None
        pend.clear()

    def emit(addr, blob):
        nonlocal pend_addr
        if pend_addr is None or pend_addr + len(pend) != addr:
            flush()
            pend_addr = addr
        pend.extend(blob)

    for rec in records:
        if rec[0] == 0:
            _kind, tag, addr, payload = rec
            if tag in CONTAINERS:
                skip = POINTER_OFFSET[tag]
                nptrs = (len(payload) - skip) // PTR_SIZE
                fixed = b"".join(
                    struct.pack("<Q", addrs[struct.unpack_from(
                        "<Q", payload, skip + i * PTR_SIZE)[0]])
                    for i in range(nptrs))
                payload = payload[:skip] + fixed
            emit(addr, pack_header(tag, len(payload)) + payload)
            heap.objects_boxed += 1
        else:
            _kind, tag, base, raw, count = rec
            header = pack_header(tag, 8)
            emit(base, b"".join(header + raw[i * 8:(i + 1) * 8]
                                for i in range(count)))
            heap.objects_boxed += count
    flush()

    category = prefix + "deserialize"
    heap.ledger.charge(total * heap.cost.deserialize_per_object_ns, category)
    heap.ledger.charge(
        transfer_time_ns(len(data), heap.cost.serialize_copy_gbps), category)
    return addrs[0]


def scan_per_record(data: bytes) -> Tuple[List[Tuple], List[int], int]:
    """``Serializer._scan`` as it was before the scan went array-at-a-time
    (verbatim): validate *data* and slice it into records, allocating
    nothing.

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


class PerObjectHeap(ManagedHeap):
    """``ManagedHeap`` with the per-object ``box`` / ``load`` /
    ``children`` / ``gc``: a tag ladder, one ``alloc`` + ``write`` per
    boxed object, one or two ``read``s per loaded one."""

    # ------------------------------------------------------------------ box

    #: memo key pinning temporaries for the lifetime of one ``box()``.
    #: The memo is keyed by ``id(value)``; any value constructed *during*
    #: boxing (e.g. a column materialized as ``list(cells)``) must stay
    #: referenced until the top-level ``box()`` returns, or a later
    #: temporary can reuse the same ``id`` and take a stale memo hit —
    #: silently aliasing one object's heap data to another's.  ``id()``
    #: is always non-negative, so ``-1`` can never collide with a real key.
    _KEEPALIVE = -1

    def box(self, value: Any) -> int:
        """Write *value* into the heap; returns the root object's address."""
        memo: Dict[int, Any] = {self._KEEPALIVE: []}
        return self._box(value, memo)

    def _alloc(self, nbytes: int) -> int:
        self.ledger.charge(self.cost.alloc_ns, "alloc")
        return self.allocator.alloc(nbytes)

    def _write_object(self, addr: int, tag: TypeTag, payload: bytes) -> None:
        write_per_page(self.space, addr, pack_header(tag, len(payload)) + payload)
        self.objects_boxed += 1

    def _box(self, value: Any, memo: Dict[int, int]) -> int:
        key = id(value)
        if key in memo:
            return memo[key]

        if value is None:
            return self._box_scalar(TypeTag.NONE, pack_u64(0))
        if isinstance(value, bool):
            return self._box_scalar(TypeTag.BOOL, pack_u64(int(value)))
        if isinstance(value, (int, np.integer)):
            return self._box_scalar(TypeTag.INT, pack_i64(int(value)))
        if isinstance(value, (float, np.floating)):
            return self._box_scalar(TypeTag.FLOAT, pack_f64(float(value)))
        if isinstance(value, str):
            return self._box_scalar(TypeTag.STR, value.encode("utf-8"))
        if isinstance(value, (bytes, bytearray)):
            return self._box_scalar(TypeTag.BYTES, bytes(value))
        if isinstance(value, (list, tuple)):
            return self._box_sequence(value, memo)
        if isinstance(value, dict):
            return self._box_dict(value, memo)
        if isinstance(value, np.ndarray):
            return self._box_ndarray(NdArrayValue(value))
        if isinstance(value, NdArrayValue):
            return self._box_ndarray(value)
        if isinstance(value, DataFrameValue):
            return self._box_dataframe(value, memo)
        if isinstance(value, ImageValue):
            return self._box_image(value)
        if isinstance(value, MLModelValue):
            return self._box_model(value, memo)
        if isinstance(value, TreeValue):
            return self._box_tree(value, memo)
        raise SerializationError(
            f"cannot box value of type {type(value).__name__}")

    def _box_scalar(self, tag: TypeTag, payload: bytes) -> int:
        addr = self._alloc(HEADER_SIZE + len(payload))
        self._write_object(addr, tag, payload)
        return addr

    def _box_sequence(self, value, memo: Dict[int, int]) -> int:
        tag = TypeTag.LIST if isinstance(value, list) else TypeTag.TUPLE
        child_addrs = self._try_box_packed(value)
        # allocate the container before boxing children one by one, so
        # cycles resolve through memo
        addr = self._alloc(HEADER_SIZE + 8 + PTR_SIZE * len(value))
        memo[id(value)] = addr
        if child_addrs is None:
            child_addrs = [self._box(child, memo) for child in value]
        payload = pack_u64(len(value)) + enc.pack_pointers(child_addrs)
        self._write_object(addr, tag, payload)
        return addr

    def _try_box_packed(self, value) -> Optional[List[int]]:
        """Bulk-box a long homogeneous int/float list as a stride-24 block."""
        n = len(value)
        if n < _PACK_MIN:
            return None
        if all(type(v) is int for v in value):
            tag, code = TypeTag.INT, "q"
        elif all(type(v) is float for v in value):
            tag, code = TypeTag.FLOAT, "d"
        else:
            return None
        base = self.allocator.alloc(n * _PRIM_SLOT)
        self.ledger.charge(n * self.cost.alloc_ns, "alloc")
        write_per_page(self.space, base, encode_prim_run(
            tag, struct.pack(f"<{n}{code}", *value)))
        self.objects_boxed += n
        return list(range(base, base + n * _PRIM_SLOT, _PRIM_SLOT))

    def _box_dict(self, value: dict, memo: Dict[int, int]) -> int:
        addr = self._alloc(HEADER_SIZE + 8 + 2 * PTR_SIZE * len(value))
        memo[id(value)] = addr
        ptrs: List[int] = []
        for k, v in value.items():
            ptrs.append(self._box(k, memo))
            ptrs.append(self._box(v, memo))
        payload = pack_u64(len(value)) + enc.pack_pointers(ptrs)
        self._write_object(addr, TypeTag.DICT, payload)
        return addr

    def _box_ndarray(self, value: NdArrayValue) -> int:
        arr = value.array
        dtype_name = arr.dtype.name
        if dtype_name not in DTYPE_CODES:
            raise SerializationError(f"unsupported ndarray dtype {dtype_name}")
        shape = arr.shape
        meta = pack_u64(len(shape)) + b"".join(
            pack_u64(d) for d in shape)
        meta += pack_u64(DTYPE_CODES[dtype_name])
        payload = meta + arr.tobytes()
        addr = self._alloc(HEADER_SIZE + len(payload))
        self._write_object(addr, TypeTag.NDARRAY, payload)
        return addr

    def _box_dataframe(self, value: DataFrameValue,
                       memo: Dict[int, int]) -> int:
        ptrs: List[int] = []
        keepalive = memo[self._KEEPALIVE]
        for name, cells in value.columns.items():
            column = list(cells)
            # pin the materialized column: its id() is a memo key, so it
            # must outlive the whole box() call (see _KEEPALIVE)
            keepalive.append(column)
            ptrs.append(self._box(name, memo))
            ptrs.append(self._box(column, memo))
        payload = (pack_u64(value.nrows) + pack_u64(value.ncols)
                   + enc.pack_pointers(ptrs))
        addr = self._alloc(HEADER_SIZE + len(payload))
        memo[id(value)] = addr
        self._write_object(addr, TypeTag.DATAFRAME, payload)
        return addr

    def _box_image(self, value: ImageValue) -> int:
        payload = (pack_u64(value.width) + pack_u64(value.height)
                   + pack_u64(_IMAGE_MODES[value.mode]) + value.pixels)
        addr = self._alloc(HEADER_SIZE + len(payload))
        self._write_object(addr, TypeTag.IMAGE, payload)
        return addr

    def _box_model(self, value: MLModelValue, memo: Dict[int, int]) -> int:
        tree_ptrs = [self._box_tree(t, memo) for t in value.trees]
        payload = (pack_u64(value.n_features)
                   + pack_u64(value.n_classes)
                   + pack_u64(value.n_trees)
                   + enc.pack_pointers(tree_ptrs))
        addr = self._alloc(HEADER_SIZE + len(payload))
        memo[id(value)] = addr
        self._write_object(addr, TypeTag.MLMODEL, payload)
        return addr

    def _box_tree(self, value: TreeValue, memo: Dict[int, int]) -> int:
        key = id(value)
        if key in memo:
            return memo[key]
        arrays = [self._box_ndarray(NdArrayValue(a))
                  for a in (value.feature, value.threshold, value.left,
                            value.right, value.value)]
        payload = pack_u64(5) + enc.pack_pointers(arrays)
        addr = self._alloc(HEADER_SIZE + len(payload))
        memo[key] = addr
        self._write_object(addr, TypeTag.TREE, payload)
        return addr

    # ----------------------------------------------------------------- load

    def header_of(self, addr: int) -> Tuple[TypeTag, int, int]:
        """(tag, flags, payload_size) of the object at *addr*."""
        return unpack_header(read_per_page(self.space, addr, HEADER_SIZE))

    def object_span(self, addr: int) -> Tuple[int, int]:
        """(start, total bytes) of the object at *addr*."""
        _tag, _flags, size = self.header_of(addr)
        return addr, HEADER_SIZE + size

    def load(self, addr: int) -> Any:
        """Rebuild the Python value rooted at *addr* (may chase remote
        pointers through an rmap'd VMA)."""
        return self._load(addr, {})

    def _load(self, addr: int, memo: Dict[int, Any]) -> Any:
        if addr in memo:
            value = memo[addr]
            if value is _CYCLE_SENTINEL:
                raise SerializationError(
                    f"unsupported cycle through immutable object at "
                    f"{addr:#x}")
            return value
        tag, _flags, size = self.header_of(addr)
        if tag in (TypeTag.NONE, TypeTag.BOOL, TypeTag.INT, TypeTag.FLOAT,
                   TypeTag.STR, TypeTag.BYTES, TypeTag.NDARRAY,
                   TypeTag.IMAGE):
            value = self._load_leaf(tag, addr, size)
            memo[addr] = value
            return value
        if tag in (TypeTag.LIST, TypeTag.TUPLE):
            return self._load_sequence(tag, addr, size, memo)
        if tag == TypeTag.DICT:
            return self._load_dict(addr, size, memo)
        if tag == TypeTag.DATAFRAME:
            return self._load_dataframe(addr, size, memo)
        if tag == TypeTag.MLMODEL:
            return self._load_model(addr, size, memo)
        if tag == TypeTag.TREE:
            return self._load_tree(addr, size, memo)
        raise SerializationError(f"unknown tag {tag} at {addr:#x}")

    def _load_leaf(self, tag: TypeTag, addr: int, size: int) -> Any:
        payload = read_per_page(self.space, addr + HEADER_SIZE, size)
        if tag == TypeTag.NONE:
            return None
        if tag == TypeTag.BOOL:
            return bool(unpack_u64(payload))
        if tag == TypeTag.INT:
            return unpack_i64(payload)
        if tag == TypeTag.FLOAT:
            return unpack_f64(payload)
        if tag == TypeTag.STR:
            return payload.decode("utf-8")
        if tag == TypeTag.BYTES:
            return payload
        if tag == TypeTag.NDARRAY:
            return self._decode_ndarray(payload)
        if tag == TypeTag.IMAGE:
            width = unpack_u64(payload, 0)
            height = unpack_u64(payload, 8)
            mode = _IMAGE_CODES[unpack_u64(payload, 16)]
            return ImageValue(width, height, payload[24:], mode=mode)
        raise SerializationError(f"not a leaf tag: {tag}")  # pragma: no cover

    @staticmethod
    def _decode_ndarray(payload: bytes) -> NdArrayValue:
        ndim = unpack_u64(payload, 0)
        shape = tuple(unpack_u64(payload, 8 + 8 * i)
                      for i in range(ndim))
        code = unpack_u64(payload, 8 + 8 * ndim)
        data = payload[16 + 8 * ndim:]
        arr = np.frombuffer(data, dtype=CODE_DTYPES[code]).reshape(shape)
        return NdArrayValue(arr.copy())

    def _child_pointers(self, addr: int, size: int, skip: int = 8
                        ) -> List[int]:
        payload = read_per_page(self.space, addr + HEADER_SIZE, size)
        count = (size - skip) // PTR_SIZE
        return enc.unpack_pointers(payload, count, offset=skip)

    def _load_sequence(self, tag: TypeTag, addr: int, size: int,
                       memo: Dict[int, Any]) -> Any:
        payload = read_per_page(self.space, addr + HEADER_SIZE, size)
        count = unpack_u64(payload, 0)
        ptrs = enc.unpack_pointers(payload, count, offset=8)
        packed = self._try_load_packed(ptrs)
        if packed is None:
            packed = self._try_load_dense(ptrs)
        if packed is not None:
            value = packed if tag == TypeTag.LIST else tuple(packed)
            memo[addr] = value
            return value
        if tag == TypeTag.LIST:
            out: List[Any] = []
            memo[addr] = out
            out.extend(self._load(p, memo) for p in ptrs)
            return out
        memo[addr] = _CYCLE_SENTINEL
        value = tuple(self._load(p, memo) for p in ptrs)
        memo[addr] = value
        return value

    # Leaf tags decodable from a bulk region read.
    _LEAF_TAGS = frozenset({TypeTag.NONE, TypeTag.BOOL, TypeTag.INT,
                            TypeTag.FLOAT, TypeTag.STR, TypeTag.BYTES})

    def _try_load_dense(self, ptrs: List[int]) -> Optional[List]:
        """Bulk-decode leaf children allocated in one dense region.

        Column cells and dict entries are allocated back-to-back, so one
        region read replaces two reads per object.  Semantically identical
        to element-wise loading (same bytes, same fault behaviour); bails
        to the slow path when a child is a container or the region is
        sparse.
        """
        n = len(ptrs)
        if n < _PACK_MIN:
            return None
        lo, hi = min(ptrs), max(ptrs)
        if hi - lo > 256 * n:
            return None
        tag_hi, _flags, size_hi = self.header_of(hi)
        total = hi + HEADER_SIZE + size_hi - lo
        if total > 512 * n:
            return None
        raw = read_per_page(self.space, lo, total)
        out: List[Any] = []
        for p in ptrs:
            off = p - lo
            tag, _f, size = unpack_header(raw[off:off + HEADER_SIZE])
            if tag not in self._LEAF_TAGS:
                return None
            payload = raw[off + HEADER_SIZE:off + HEADER_SIZE + size]
            if tag == TypeTag.INT:
                out.append(unpack_i64(payload))
            elif tag == TypeTag.STR:
                out.append(payload.decode("utf-8"))
            elif tag == TypeTag.FLOAT:
                out.append(unpack_f64(payload))
            elif tag == TypeTag.BOOL:
                out.append(bool(unpack_u64(payload)))
            elif tag == TypeTag.BYTES:
                out.append(payload)
            else:
                out.append(None)
        return out

    def _try_load_packed(self, ptrs: List[int]) -> Optional[List]:
        """Bulk-decode a stride-24 homogeneous primitive run."""
        run = self.packed_run(ptrs)
        if run is None:
            return None
        tag, values = run
        kind = np.int64 if tag == TypeTag.INT else np.float64
        return values.view(kind).tolist()

    def packed_run(self, ptrs: List[int]
                   ) -> Optional[Tuple[TypeTag, np.ndarray]]:
        """``(tag, u64 payload column)`` when *ptrs* is a stride-24
        homogeneous INT/FLOAT run, read in bulk; else ``None``."""
        if not is_prim_run(ptrs):
            return None
        tag, _flags, size = self.header_of(ptrs[0])
        if size != 8 or tag not in _PACKED_TAGS:
            return None
        raw = read_per_page(self.space, ptrs[0], len(ptrs) * _PRIM_SLOT)
        words = np.frombuffer(raw, dtype=np.uint64).reshape(-1, 3)
        # word 0 = tag|flags, word 1 = payload size; verify homogeneity
        if not bool(np.all(words[:, 0] == words[0, 0])):
            return None
        return tag, words[:, 2]

    def _load_dict(self, addr: int, size: int, memo: Dict[int, Any]) -> dict:
        ptrs = self._child_pointers(addr, size)
        dense = self._try_load_dense(ptrs)
        if dense is not None:
            value = dict(zip(dense[0::2], dense[1::2]))
            memo[addr] = value
            return value
        out: Dict[Any, Any] = {}
        memo[addr] = out
        for i in range(0, len(ptrs), 2):
            key = self._load(ptrs[i], memo)
            out[key] = self._load(ptrs[i + 1], memo)
        return out

    def _load_dataframe(self, addr: int, size: int,
                        memo: Dict[int, Any]) -> DataFrameValue:
        payload = read_per_page(self.space, addr + HEADER_SIZE, size)
        ncols = unpack_u64(payload, 8)
        ptrs = enc.unpack_pointers(payload, 2 * ncols, offset=16)
        columns: Dict[str, List] = {}
        for i in range(0, len(ptrs), 2):
            name = self._load(ptrs[i], memo)
            columns[name] = self._load(ptrs[i + 1], memo)
        value = DataFrameValue(columns)
        memo[addr] = value
        return value

    def _load_model(self, addr: int, size: int,
                    memo: Dict[int, Any]) -> MLModelValue:
        payload = read_per_page(self.space, addr + HEADER_SIZE, size)
        n_features = unpack_u64(payload, 0)
        n_classes = unpack_u64(payload, 8)
        n_trees = unpack_u64(payload, 16)
        ptrs = enc.unpack_pointers(payload, n_trees, offset=24)
        trees = [self._load(p, memo) for p in ptrs]
        value = MLModelValue(trees, n_features, n_classes)
        memo[addr] = value
        return value

    def _load_tree(self, addr: int, size: int,
                   memo: Dict[int, Any]) -> TreeValue:
        ptrs = self._child_pointers(addr, size)
        arrays = [self._load(p, memo).array for p in ptrs]
        value = TreeValue(*arrays)
        memo[addr] = value
        return value

    # ------------------------------------------------------------- children

    def children(self, addr: int) -> List[int]:
        """Child object addresses of the object at *addr*.

        Raises :class:`SerializationError` for types without a usable
        iterator (numpy without the wrapper) — callers fall back to
        non-prefetch mode (Section 4.4).
        """
        tag, _flags, size = self.header_of(addr)
        if tag == TypeTag.NDARRAY and not self.numpy_iterator:
            raise SerializationError(
                "ndarray provides no __iter__ for traversal "
                "(enable numpy_iterator)")
        skip = POINTER_OFFSET.get(tag)
        return [] if skip is None else self._child_pointers(addr, size, skip)

    # ------------------------------------------------------------------- GC

    def gc(self) -> int:
        """Mark-sweep over the local heap; returns objects' bytes freed.

        Addresses outside this heap's range — i.e. on a remote, rmap'd heap —
        are *skipped* during marking, per the hybrid GC design (Section 4.3):
        remote lifetimes are managed coarsely by the remote-root proxy.
        """
        marked: Set[int] = set()
        stack = [a for a in self.roots if self.owns(a)]
        while stack:
            addr = stack.pop()
            if addr in marked:
                continue
            marked.add(addr)
            for child in self.children(addr):
                if child not in marked and self.owns(child):
                    stack.append(child)
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

    def count_reachable(self, root: int) -> int:
        """Number of objects reachable from *root* (sub-object counting)."""
        seen: Set[int] = set()
        stack = [root]
        while stack:
            addr = stack.pop()
            if addr in seen:
                continue
            seen.add(addr)
            stack.extend(c for c in self.children(addr) if c not in seen)
        return len(seen)


def _add_span(pages: Set[int], start: int, nbytes: int) -> None:
    first = page_round_down(start)
    last = page_round_down(start + nbytes - 1)
    pages.update(range(first, last + 1, PAGE_SIZE))


def _packed_block(ptrs: List[int]):
    if not is_prim_run(ptrs):
        return None
    return int(ptrs[0]), len(ptrs) * _PRIM_SLOT


def _dense_block(heap, ptrs: List[int]):
    n = len(ptrs)
    if n < _PACK_MIN:
        return None
    lo, hi = min(ptrs), max(ptrs)
    if hi - lo > 256 * n:
        return None
    _tag, _flags, size_hi = heap.header_of(hi)
    return lo, hi + HEADER_SIZE + size_hi - lo


def traverse_per_object(heap, root: int, max_objects: Optional[int] = None
                        ) -> Optional[TraversalResult]:
    """``ObjectTraverser.traverse`` as ``header_of`` + ``children`` (a
    second header read) per visited object; *heap* is a
    :class:`PerObjectHeap`."""
    cost = heap.cost
    pages: Set[int] = set()
    seen: Set[int] = set()
    objects: Dict[str, List[int]] = {}
    steps = 0
    charge = 0
    stack = [(root, False)]
    try:
        while stack:
            addr, is_column = stack.pop()
            if addr in seen:
                continue
            seen.add(addr)
            steps += 1
            if max_objects is not None \
                    and steps > max_objects:
                heap.ledger.charge(charge, "traverse")
                return None
            tag, _flags, size = heap.header_of(addr)
            _add_span(pages, addr, HEADER_SIZE + size)
            slot = objects.setdefault(tag.name.lower(), [0, 0])
            slot[0] += 1
            slot[1] += HEADER_SIZE + size
            if is_column and tag == TypeTag.LIST:
                # typed column: internal block iterator covers the
                # whole element run at per-block cost
                ptrs = heap.children(addr)
                block = _packed_block(ptrs) \
                    or _dense_block(heap, ptrs)
                if block is not None:
                    base, nbytes = block
                    _add_span(pages, base, nbytes)
                    run = objects.setdefault("packed", [0, 0])
                    run[0] += len(ptrs)
                    run[1] += nbytes
                    charge += cost.traverse_per_block_ns
                    continue
                stack.extend((p, False) for p in ptrs)
                charge += len(ptrs) * cost.traverse_per_object_ns
                continue
            charge += cost.traverse_per_object_ns
            if tag == TypeTag.DATAFRAME:
                ptrs = heap.children(addr)
                # alternating (name, column-list) pointers
                for i, p in enumerate(ptrs):
                    stack.append((p, i % 2 == 1))
            else:
                stack.extend((p, False) for p in heap.children(addr))
    except SerializationError:
        # type without an iterator (e.g. numpy without the wrapper)
        heap.ledger.charge(charge, "traverse")
        return None
    heap.ledger.charge(charge, "traverse")
    return TraversalResult(sorted(pages), steps, objects)


def serialize_per_object(heap, root: int, prefix: str = ""
                         ) -> SerializedState:
    """``Serializer.serialize`` as ``header_of`` + one payload read per
    object; *heap* is a :class:`PerObjectHeap`."""
    index: Dict[int, int] = {root: 0}
    queue: List[Tuple] = [("obj", root)]
    chunks: List[bytes] = []
    qpos = 0
    while qpos < len(queue):
        entry = queue[qpos]
        qpos += 1
        if entry[0] == "packed":
            _kind, elem_tag, raw, count = entry
            chunks.append(REC_HEADER.pack(1, int(elem_tag), count))
            chunks.append(raw)
            continue
        addr = entry[1]
        tag, _flags, size = heap.header_of(addr)
        payload = read_per_page(heap.space, addr + HEADER_SIZE, size)
        skip = POINTER_OFFSET.get(tag)
        if skip is not None:
            payload = payload[:skip] + _child_indices(
                heap, tag, payload, skip, index, queue)
        chunks.append(REC_HEADER.pack(0, int(tag), size))
        chunks.append(payload)

    data = struct.pack("<Q", len(index)) + b"".join(chunks)
    category = prefix + "serialize"
    per_object = len(index) * heap.cost.serialize_per_object_ns
    copy = transfer_time_ns(len(data), heap.cost.serialize_copy_gbps)
    heap.ledger.charge(per_object, category)
    heap.ledger.charge(copy, category)
    hub = telemetry()
    if hub is not None:
        hub.op(heap.space.name, "runtime", category, heap.ledger,
               per_object + copy, objects=len(index), bytes=len(data))
    return SerializedState(data, len(index))


def _child_indices(heap, tag: TypeTag, payload: bytes, skip: int,
                   index: Dict[int, int], queue: List[Tuple]) -> bytes:
    ptrs = enc.unpack_pointers(
        payload, (len(payload) - skip) // PTR_SIZE, offset=skip)
    run = (heap.packed_run(ptrs)
           if tag in (TypeTag.LIST, TypeTag.TUPLE) else None)
    if run is not None and not any(p in index for p in ptrs):
        elem_tag, values = run
        indices = range(len(index), len(index) + len(ptrs))
        index.update(zip(ptrs, indices))
        queue.append(("packed", elem_tag, values.tobytes(), len(ptrs)))
        return enc.pack_pointers(indices)
    indices = []
    for ptr in ptrs:
        idx = index.get(ptr)
        if idx is None:
            idx = index[ptr] = len(index)
            queue.append(("obj", ptr))
        indices.append(idx)
    return enc.pack_pointers(indices)


def predict_rows_per_tree(tree, rows) -> np.ndarray:
    """``TreeValue.predict_rows`` as it was: one tree, its rows walked a
    level at a time over the tree's own arrays."""
    rows = np.asarray(rows)
    node = np.zeros(len(rows), dtype=np.intp)
    active = np.flatnonzero(tree.feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = rows[active, tree.feature[at]] <= tree.threshold[at]
        at = np.where(goes_left, tree.left[at], tree.right[at])
        node[active] = at
        active = active[tree.feature[at] >= 0]
    return tree.value[node]


def predict_margins_per_tree(model, rows) -> np.ndarray:
    """``MLModelValue.predict_margins`` as it was: one walk per tree,
    accumulated tree by tree."""
    rows = np.asarray(rows)
    margins = np.zeros(len(rows))
    for tree in model.trees:
        margins += predict_rows_per_tree(tree, rows)
    return margins


def images_to_matrix_per_image(images) -> np.ndarray:
    """``images_to_matrix`` as it was: one row array per image, stacked."""
    rows = [np.frombuffer(img.pixels, dtype=np.uint8).astype(np.float64)
            for img in images]
    return np.vstack(rows) / 255.0


def estimate_payload_bytes_recursive(payload) -> int:
    """``net.rpc.estimate_payload_bytes`` as it was: every dict entry
    estimated on its own, recursively."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview, str)):
        return len(payload)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, dict):
        return sum(estimate_payload_bytes_recursive(k)
                   + estimate_payload_bytes_recursive(v)
                   for k, v in payload.items()) + 16
    if isinstance(payload, (list, tuple, set)):
        return sum(estimate_payload_bytes_recursive(v) for v in payload) + 16
    return sys.getsizeof(payload)


def predict_per_row(tree, x) -> float:
    """``TreeValue.predict`` as one scalar walk from the root."""
    i = 0
    while tree.feature[i] >= 0:
        if x[tree.feature[i]] <= tree.threshold[i]:
            i = int(tree.left[i])
        else:
            i = int(tree.right[i])
    return float(tree.value[i])


def predict_margin_per_row(model, x) -> float:
    """``MLModelValue.predict_margin`` as a sum over per-row walks."""
    return float(sum(predict_per_row(t, x) for t in model.trees))


class RecordingLineage:
    """Stands in for the lineage tracker: keeps the calls it is sent."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, *args, *sorted(kwargs.items())))
        return record


def space_state(space):
    """Everything a write path may change, for equality checks."""
    table = space.page_table.snapshot(0, 1 << 52)
    return {
        "pfn": table,
        "flags": {vpn: space.page_table.lookup(vpn).flags for vpn in table},
        "free": list(space.physical._free_pfns),
        "bytes": {vpn: bytes(space.physical.frame(pfn).data)
                  for vpn, pfn in table.items()},
        "ledger": space.ledger.breakdown(),
        "pending": space.ledger.pending,
        "faults": space.fault_count,
        "cow_breaks": space.cow_break_count,
    }


def allocator_state(allocator):
    return {
        "free": list(allocator._free),
        "allocated": dict(allocator._allocated),
        "high_water": allocator.high_water,
        "bytes_in_use": allocator.bytes_in_use,
    }
