"""Probe loops: host nanoseconds per call of the hottest public functions.

Some calls run 10^5 times per invocation — far too hot to wrap in a span
without measuring mostly the wrapper.  A probe times a tight loop over
the public function instead and reports the median of a few repeats as
ns per call (loop overhead included, about 30 ns).  Probes use their own
small inputs, not the workload's, so they read the same on every
workload; they say how fast a layer's primitive is, the spans say how
much of an op it accounts for.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from perfbench import stats

PAGE = 4096
BASE = 0x4000_0000
REPEATS = 5

_clock = time.perf_counter_ns


def _expect(condition: bool, what: str) -> None:
    """A probe that measured something else than it names must not
    report a number."""
    if not condition:
        raise RuntimeError(f"probe precondition failed: {what}")


def _loop(fn: Callable[[int], None], n: int) -> float:
    """ns per call of ``fn(i)`` over ``i in range(n)``."""
    start = _clock()
    for i in range(n):
        fn(i)
    return (_clock() - start) / n


def _resident_space(pages: int):
    from repro.mem import (AddressRange, AddressSpace, AnonymousVMA,
                           PhysicalMemory)
    space = AddressSpace(PhysicalMemory(), name="probe")
    rng = AddressRange(BASE, BASE + pages * PAGE)
    space.map_vma(AnonymousVMA(rng, name="probe-heap"))
    for page in range(pages):
        space.write(BASE + page * PAGE, b"\x01" * 8)
    return space, rng


def mem_probes(n: int, repeats: int) -> Dict[str, float]:
    from repro.mem import AddressRange, HeapAllocator

    pages = 256
    space, rng = _resident_space(pages)
    small, whole = b"\x5a" * 64, b"\x5a" * PAGE
    translate, read, write = space.translate, space.read, space.write
    out: Dict[str, List[float]] = {k: [] for k in (
        "translate_ns", "read_ns", "write_ns", "write_page_ns",
        "cow_break_ns", "mark_cow_ns_per_page", "alloc_ns", "free_ns")}
    for _ in range(repeats):
        out["translate_ns"].append(_loop(
            lambda i: translate(BASE + (i % pages) * PAGE), n))
        out["read_ns"].append(_loop(
            lambda i: read(BASE + (i % pages) * PAGE + 128, 64), n))
        out["write_ns"].append(_loop(
            lambda i: write(BASE + (i % pages) * PAGE + 128, small), n))
        out["write_page_ns"].append(_loop(
            lambda i: write(BASE + (i % pages) * PAGE, whole), n // 8))
        start = _clock()
        marked = space.mark_range_cow(rng)
        out["mark_cow_ns_per_page"].append((_clock() - start) / marked)
        breaks = space.cow_break_count
        per_write = _loop(lambda i: write(BASE + i * PAGE, small), pages)
        _expect(space.cow_break_count - breaks == pages,
                "every write broke CoW")
        out["cow_break_ns"].append(per_write)

        allocator = HeapAllocator(AddressRange(BASE, BASE + (1 << 30)))
        addrs: List[int] = []
        start = _clock()
        for _i in range(n):
            addrs.append(allocator.alloc(64))
        out["alloc_ns"].append((_clock() - start) / n)
        start = _clock()
        for addr in addrs:
            allocator.free(addr)
        out["free_ns"].append((_clock() - start) / n)
    return {f"mem.probe.{k}": stats.median(v) for k, v in out.items()}


def sim_probes(n: int, repeats: int) -> Dict[str, float]:
    from repro.sim import Engine
    from repro.sim.engine import Timeout
    from repro.sim.ledger import Ledger

    charge_ns, event_ns = [], []
    for _ in range(repeats):
        charge = Ledger().charge
        charge_ns.append(_loop(lambda i: charge(5, "mmu"), n))

        def ticker():
            for _i in range(n):
                yield Timeout(1)

        engine = Engine()
        engine.spawn(ticker(), name="probe")
        start = _clock()
        engine.run()
        event_ns.append((_clock() - start) / n)
    return {"sim.probe.ledger_charge_ns": stats.median(charge_ns),
            "sim.probe.event_ns": stats.median(event_ns)}


def obs_probes(n: int, repeats: int) -> Dict[str, float]:
    from repro.obs import Telemetry

    out: Dict[str, List[float]] = {"count_ns": [], "observe_ns": [],
                                   "span_ns": []}
    for _ in range(repeats):
        hub = Telemetry()
        count, observe, span = hub.count, hub.observe, hub.span
        out["count_ns"].append(_loop(
            lambda i: count("m0", "probe", "counter"), n))
        out["observe_ns"].append(_loop(
            lambda i: observe("m0", "probe", "histogram", i), n))
        out["span_ns"].append(_loop(
            lambda i: span("m0", "probe", "span", i, i + 1), n // 4))
    return {f"obs.probe.{k}": stats.median(v) for k, v in out.items()}


def runtime_probes(n: int, repeats: int) -> Dict[str, float]:
    from repro.bench.microbench import make_pair
    from repro.runtime.serializer import Serializer
    from repro.workloads.data import make_trades

    values = {
        "dict": {f"key-{i}": i for i in range(n // 10)},
        "list_int": list(range(n)),
        "dataframe": make_trades(n // 40),
    }
    out: Dict[str, List[float]] = {k: [] for k in (
        "box_ns_per_obj.dict", "box_ns_per_obj.list_int",
        "box_ns_per_obj.dataframe", "load_ns_per_obj.dict",
        "gc_ns_per_obj", "serialize_ns_per_obj",
        "deserialize_ns_per_obj")}
    for _ in range(repeats):
        _engine, producer, consumer = make_pair()
        heap = producer.heap
        roots, objects = {}, {}
        for name, value in values.items():
            before = heap.objects_boxed
            start = _clock()
            roots[name] = heap.box(value)
            elapsed = _clock() - start
            objects[name] = heap.objects_boxed - before
            out[f"box_ns_per_obj.{name}"].append(elapsed / objects[name])
        start = _clock()
        loaded = heap.load(roots["dict"])
        out["load_ns_per_obj.dict"].append(
            (_clock() - start) / objects["dict"])
        _expect(loaded == values["dict"], "load returned the boxed dict")

        serializer = Serializer()
        start = _clock()
        state = serializer.serialize(heap, roots["dataframe"])
        out["serialize_ns_per_obj"].append(
            (_clock() - start) / state.object_count)
        start = _clock()
        serializer.deserialize(consumer.heap, state)
        out["deserialize_ns_per_obj"].append(
            (_clock() - start) / state.object_count)

        # nothing is rooted, so the sweep frees every boxed object
        start = _clock()
        heap.gc()
        out["gc_ns_per_obj"].append(
            (_clock() - start) / sum(objects.values()))
        _expect(heap.bytes_in_use() == 0, "gc freed every object")
    return {f"runtime.probe.{k}": stats.median(v) for k, v in out.items()}


def kernel_probes(n: int, repeats: int) -> Dict[str, float]:
    import numpy as np

    from repro.bench.microbench import make_pair
    from repro.runtime.objects import HEADER_SIZE
    from repro.runtime.values import NdArrayValue

    pages = max(16, n // 80)
    array = NdArrayValue(np.zeros(pages * PAGE // 8))
    register_ns, fault_ns = [], []
    for _ in range(repeats):
        _engine, producer, consumer = make_pair(resident_lib_bytes=0)
        root = producer.heap.box(array)
        start = _clock()
        meta = producer.kernel.register_mem(producer.space, "probe", 7)
        register_ns.append((_clock() - start) / meta.pages_registered)
        handle = consumer.kernel.rmap(consumer.space, meta.mac_addr,
                                      meta.fid, meta.key)
        first = root + HEADER_SIZE + 64
        read = consumer.space.read
        faults = consumer.space.fault_count
        per_read = _loop(lambda i: read(first + i * PAGE, 8), pages)
        _expect(consumer.space.fault_count - faults == pages,
                "every read faulted one remote page")
        fault_ns.append(per_read)
        handle.unmap()
        producer.kernel.deregister_mem(meta.fid, meta.key)
    return {"kernel.probe.register_ns_per_page": stats.median(register_ns),
            "kernel.probe.fault_ns": stats.median(fault_ns)}


def net_probes(n: int, repeats: int) -> Dict[str, float]:
    from repro.kernel.machine import make_cluster
    from repro.net.rdma import ReadRequest
    from repro.sim import Engine
    from repro.sim.ledger import Ledger

    _fabric, (local, remote) = make_cluster(Engine(), 2)
    frame = remote.physical.allocate()
    remote.rpc.register_handler("probe.echo", lambda payload: payload)
    ledger = Ledger()
    qp = local.nic.connect(remote.mac_addr, ledger)
    request = ReadRequest(frame.pfn)
    read, call, mac = qp.read, local.rpc.call, remote.mac_addr
    read_ns, call_ns = [], []
    for _ in range(repeats):
        read_ns.append(_loop(lambda i: read(request, ledger), n // 4))
        call_ns.append(_loop(
            lambda i: call(mac, "probe.echo", 7, ledger), n // 4))
    return {"net.probe.rdma_read_ns": stats.median(read_ns),
            "net.probe.rpc_call_ns": stats.median(call_ns)}


def run_all(quick: bool = False) -> Dict[str, float]:
    """Every probe, as ``{metric name: ns}``."""
    n, repeats = (2_000, 3) if quick else (20_000, REPEATS)
    out: Dict[str, float] = {}
    for probe in (mem_probes, sim_probes, obs_probes, runtime_probes,
                  kernel_probes, net_probes):
        out.update(probe(n, repeats))
    return out
