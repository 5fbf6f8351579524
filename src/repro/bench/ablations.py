"""Ablations for the design choices DESIGN.md calls out.

* static vs dynamic address planning (Section 4.2 "Static vs. Dynamic");
* whole-address-space vs heap-only registration (Section 6);
* prefetch-threshold sweep (Section 4.4's "prefetch is not always better").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.config import scaled
from repro.bench.microbench import make_pair, measure_transfer
from repro.errors import RmapFailed
from repro.kernel.kernel import MAP_HEAP_ONLY, MAP_WHOLE_SPACE
from repro.mem.layout import AddressRange
from repro.platform.dag import FunctionSpec, Workflow
from repro.platform.planner import plan_dynamic, plan_workflow
from repro.transfer import get_transport
from repro.units import MB, to_ms


def _pair_workflow() -> Workflow:
    wf = Workflow("pair")
    wf.add_function(FunctionSpec("producer", lambda ctx: None,
                                 memory_budget=64 * MB))
    wf.add_function(FunctionSpec("consumer", lambda ctx: None,
                                 memory_budget=64 * MB))
    wf.add_edge("producer", "consumer")
    return wf


def ablation_planning() -> Dict[str, object]:
    """Static planning keeps cached containers rmap-compatible; dynamic
    planning relocates functions and the cached (old-range) container
    conflicts, forcing a messaging fallback.

    Returns the observed conflict outcomes for both strategies.
    """
    wf = _pair_workflow()
    static_run1 = plan_workflow(wf)
    # second request, static: identical plan -> cached container reusable
    static_run2 = plan_workflow(wf)
    static_compatible = (static_run1.slot("producer").range
                         == static_run2.slot("producer").range)

    # dynamic: the cached producer container still occupies its old range
    occupied = [static_run1.slot("producer").range]
    dynamic_run2 = plan_dynamic(wf, occupied)
    dynamic_range = dynamic_run2.slot("producer").range
    cached_range = static_run1.slot("producer").range
    # the cached container cannot serve the new plan's producer slot
    dynamic_compatible = dynamic_range == cached_range
    return {
        "static_cached_container_reusable": static_compatible,
        "dynamic_cached_container_reusable": dynamic_compatible,
        "dynamic_new_range": (dynamic_range.start, dynamic_range.end),
        "cached_range": (cached_range.start, cached_range.end),
    }


def ablation_rmap_conflict_demo() -> str:
    """Concretely trigger the conflict dynamic planning causes: a consumer
    whose own mapping overlaps the producer's range cannot rmap it."""
    from repro.mem import AnonymousVMA

    _e, producer, consumer = make_pair()
    producer.heap.box([1, 2, 3])
    meta = producer.kernel.register_mem(producer.space, "f", 1)
    # consumer reused at an overlapping range (dynamic planning hazard)
    consumer.space.map_vma(AnonymousVMA(
        AddressRange(meta.vm_start, meta.vm_start + (4 << 10)),
        name="stale"))
    try:
        consumer.kernel.rmap(consumer.space, meta.mac_addr, "f", 1)
    except RmapFailed as err:
        return f"fallback-to-messaging: {err}"
    return "no-conflict"


def ablation_registration_mode(n_entries: Optional[int] = None
                               ) -> Dict[str, Dict[str, float]]:
    """Whole-address-space vs heap-only registration (Section 6).

    Heap-only skips the CoW marking of the interpreter/library resident
    set (cheaper transform) but cannot serve states that span segments —
    the reason the paper fell back to whole-space mapping.
    """
    n_entries = n_entries or scaled(100_000, minimum=2_000)
    value = list(range(n_entries))
    out: Dict[str, Dict[str, float]] = {}
    for mode in (MAP_WHOLE_SPACE, MAP_HEAP_ONLY):
        _e, producer, consumer = make_pair(resident_lib_bytes=128 * MB)
        if mode == MAP_HEAP_ONLY:
            # heap-only requires a segment layout; microbench endpoints
            # use a bare heap VMA, so register it explicitly by range
            root = producer.heap.box(value)
            producer.ledger.drain()  # boxing is function work, not transfer
            meta = producer.kernel.register_mem(
                producer.space, "heap-only", 9,
                vm_start=producer.heap.range.start,
                vm_end=producer.heap.range.end)
            transform = producer.ledger.drain()
            handle = consumer.kernel.rmap(
                consumer.space, meta.mac_addr, meta.fid, meta.key)
            consumer.heap.load(root)
            network = consumer.ledger.drain()
            handle.unmap()
            out["heap-only"] = {"transform_ms": to_ms(transform),
                                "network_ms": to_ms(network)}
        else:
            result = measure_transfer(get_transport("rmmap"),
                                      producer, consumer, value)
            out["whole-space"] = {
                "transform_ms": to_ms(result.breakdown.transform_ns),
                "network_ms": to_ms(result.breakdown.network_ns),
            }
    return out


def ablation_page_table_mode(resident_mb: int = 512
                             ) -> Dict[str, Dict[str, float]]:
    """Eager vs on-demand page-table fetch (Section 6 future work).

    With a fat producer address space, shipping the full PTE snapshot at
    rmap time costs setup latency proportional to the resident set; lazy
    region-granular fetch makes setup O(1) at the price of one extra RPC
    per touched 2 MB region.
    """
    from repro.kernel.kernel import PT_EAGER, PT_ONDEMAND

    value = list(range(scaled(50_000, minimum=2_000)))
    out: Dict[str, Dict[str, float]] = {}
    for mode in (PT_EAGER, PT_ONDEMAND):
        _e, producer, consumer = make_pair(
            resident_lib_bytes=resident_mb * MB)
        root = producer.heap.box(value)
        meta = producer.kernel.register_mem(producer.space, "pt", 1)
        consumer.ledger.drain()
        handle = consumer.kernel.rmap(consumer.space, meta.mac_addr,
                                      "pt", 1, page_table_mode=mode)
        setup = consumer.ledger.drain()
        assert consumer.heap.load(root) == value
        read = consumer.ledger.drain()
        handle.unmap()
        out[mode] = {"setup_ms": to_ms(setup), "read_ms": to_ms(read),
                     "e2e_ms": to_ms(setup + read)}
    return out


def ablation_compression(n_words: Optional[int] = None
                         ) -> Dict[str, Dict[str, float]]:
    """Compressed vs plain messaging (Section 6's data-compression
    discussion): compression shrinks wire bytes but spends critical-path
    CPU — a poor trade on a fast fabric."""
    n_words = n_words or scaled(200_000, minimum=10_000)
    value = " ".join(f"word{i % 97}" for i in range(n_words))
    out: Dict[str, Dict[str, float]] = {}
    for name, tname in (("plain", "messaging"),
                        ("compressed", "messaging-compressed")):
        _e, producer, consumer = make_pair()
        result = measure_transfer(get_transport(tname), producer, consumer,
                                  value)
        out[name] = {
            "e2e_ms": to_ms(result.e2e_ns),
            "wire_kb": result.wire_bytes / 1024,
            "transform_ms": to_ms(result.breakdown.transform_ns),
            "network_ms": to_ms(result.breakdown.network_ns),
        }
    return out


def ablation_doorbell_batching(n_pages: Optional[int] = None
                               ) -> Dict[str, float]:
    """Doorbell-batched vs serial prefetch reads (Section 4.4).

    One batched request pays the base fabric latency and posting CPU once;
    serial per-page READs pay them per page.
    """
    n_pages = n_pages or scaled(2_000, minimum=128)
    value = b"\xab" * (n_pages * 4096 - 64)
    out: Dict[str, float] = {}
    for label, doorbell in (("doorbell", True), ("serial", False)):
        _e, producer, consumer = make_pair(resident_lib_bytes=8 * MB)
        root = producer.heap.box(value)
        from repro.runtime.traverse import pages_of_state
        pages = pages_of_state(producer.heap, root).page_addrs
        meta = producer.kernel.register_mem(producer.space, "db", 1)
        handle = consumer.kernel.rmap(consumer.space, meta.mac_addr,
                                      "db", 1)
        consumer.ledger.drain()
        handle.prefetch(pages, doorbell=doorbell)
        out[label] = to_ms(consumer.ledger.drain())
    return out


def ablation_prefetch_threshold(
        thresholds: Optional[List[Optional[int]]] = None,
        n_entries: Optional[int] = None) -> Dict[str, float]:
    """Prefetch-threshold sweep on list(int): traversal cost grows with
    the object count, so an unbounded prefetch can lose to demand paging;
    a threshold restores the demand-paging behaviour for huge states."""
    n_entries = n_entries or scaled(200_000, minimum=5_000)
    value = list(range(n_entries))
    if thresholds is None:
        thresholds = [None, n_entries // 10, n_entries * 2]
    out: Dict[str, float] = {}
    for threshold in thresholds:
        _e, producer, consumer = make_pair(resident_lib_bytes=8 * MB)
        transport = get_transport("rmmap-prefetch",
                                  prefetch_threshold=threshold)
        result = measure_transfer(transport, producer, consumer, value)
        label = "unbounded" if threshold is None else str(threshold)
        out[label] = to_ms(result.e2e_ns)
    _e, producer, consumer = make_pair(resident_lib_bytes=8 * MB)
    demand = measure_transfer(get_transport("rmmap"), producer, consumer,
                              value)
    out["no-prefetch"] = to_ms(demand.e2e_ns)
    return out
