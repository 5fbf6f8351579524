"""Per-object reference algorithms the run-at-a-time code must equal.

These are the implementations the repository had before heap
reconstruction went run-at-a-time (one ``translate`` per page chunk, one
``alloc`` and one buffered ``write`` per object).  Tests run them beside
``AddressSpace.write_batch``, ``HeapAllocator.alloc_run`` and
``Serializer.deserialize`` on identically prepared state and require the
same bytes, addresses, faults and ledger totals.
"""

import struct

from repro.mem import PAGE_SIZE
from repro.obs.telemetry import current as telemetry
from repro.runtime import objects as enc
from repro.runtime.objects import HEADER_SIZE, PTR_SIZE, TypeTag
from repro.units import transfer_time_ns

PRIM_SLOT = HEADER_SIZE + 8
REC_HEADER = struct.Struct("<BIQ")
CONTAINERS = {TypeTag.LIST, TypeTag.TUPLE, TypeTag.DICT, TypeTag.DATAFRAME,
              TypeTag.MLMODEL, TypeTag.TREE}


def write_per_page(space, vaddr: int, data: bytes) -> None:
    """``AddressSpace.write`` as one charged page-table walk per chunk."""
    hub = telemetry()
    if hub is not None and hub.lineage is not None:
        hub.lineage.touched(space.name, vaddr, len(data))
    pos = 0
    remaining = len(data)
    while remaining > 0:
        pte = space.translate(vaddr, write=True)
        off = vaddr % PAGE_SIZE
        chunk = min(remaining, PAGE_SIZE - off)
        space.physical.frame(pte.pfn).data[off:off + chunk] = \
            data[pos:pos + chunk]
        vaddr += chunk
        pos += chunk
        remaining -= chunk


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
                skip = {TypeTag.DATAFRAME: 16, TypeTag.MLMODEL: 24}.get(tag, 8)
                nptrs = (len(payload) - skip) // PTR_SIZE
                fixed = b"".join(
                    struct.pack("<Q", addrs[struct.unpack_from(
                        "<Q", payload, skip + i * PTR_SIZE)[0]])
                    for i in range(nptrs))
                payload = payload[:skip] + fixed
            emit(addr, enc.pack_header(tag, len(payload)) + payload)
            heap.objects_boxed += 1
        else:
            _kind, tag, base, raw, count = rec
            header = enc.pack_header(tag, 8)
            emit(base, b"".join(header + raw[i * 8:(i + 1) * 8]
                                for i in range(count)))
            heap.objects_boxed += count
    flush()

    category = prefix + "deserialize"
    heap.ledger.charge(total * heap.cost.deserialize_per_object_ns, category)
    heap.ledger.charge(
        transfer_time_ns(len(data), heap.cost.serialize_copy_gbps), category)
    return addrs[0]


def space_state(space):
    """Everything a write path may change, for equality checks."""
    table = space.page_table.snapshot(0, 1 << 52)
    return {
        "pfn": table,
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
