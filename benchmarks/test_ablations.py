"""Ablations of the design choices DESIGN.md calls out."""

from .conftest import run_row


def test_ablations(benchmark):
    results = run_row(benchmark, "ablations")

    # Section 4.2: static planning keeps cached containers reusable for
    # rmap; dynamic planning relocates slots and defeats caching
    planning = results["planning"]
    assert planning["static_cached_container_reusable"] is True
    assert planning["dynamic_cached_container_reusable"] is False
    # the conflict is real: an overlapped consumer cannot rmap
    assert results["conflict"].startswith("fallback-to-messaging")

    # Section 6: heap-only registration skips marking the library
    # resident set (cheaper transform) — whole-space pays for generality
    registration = results["registration"]
    assert registration["heap-only"]["transform_ms"] \
        < registration["whole-space"]["transform_ms"]

    # Section 6 future work: on-demand PTE fetch makes rmap setup O(1) in
    # the producer's resident-set size
    page_table = results["page_table"]
    assert page_table["ondemand"]["setup_ms"] \
        < page_table["eager"]["setup_ms"] / 2
    # lazy mode pays a little more during reads (region RPCs)
    assert page_table["ondemand"]["read_ms"] \
        >= page_table["eager"]["read_ms"]

    # Section 6: compression shrinks the wire but costs critical-path
    # CPU; on a 100 Gbps-fabric-backed messaging path it does not pay
    compression = results["compression"]
    assert compression["compressed"]["wire_kb"] \
        < compression["plain"]["wire_kb"]
    assert compression["compressed"]["transform_ms"] > \
        compression["plain"]["transform_ms"]

    # Section 4.4: one doorbell-batched READ beats per-page READs by
    # amortizing the base latency and posting CPU
    doorbell = results["doorbell"]
    assert doorbell["doorbell"] < doorbell["serial"] / 3

    # Section 4.4: bounding traversal restores demand-paging behaviour
    # for traversal-heavy states — a low threshold falls back to (and
    # matches) demand paging closely
    threshold = results["prefetch_threshold"]
    thresholded = min(v for k, v in threshold.items()
                      if k not in ("unbounded", "no-prefetch"))
    assert thresholded <= threshold["unbounded"] * 1.05
