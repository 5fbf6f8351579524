"""Fig 11b: E2E transfer time vs list(int) payload size (log scale).

Paper claims reproduced:

* below ~1 KB, shared storage (RDMA) wins — RMMAP pays a fixed startup
  (auth RPC to fetch the page table + CoW marking);
* above the crossover, RMMAP is substantially faster end-to-end thanks to
  the eliminated (de)serialization, and the gap widens with payload.
"""

from .conftest import run_row


def test_fig11b(benchmark):
    results = run_row(benchmark, "fig11b")

    counts = sorted(results)
    smallest, largest = counts[0], counts[-1]

    # tiny payloads: storage (RDMA) beats RMMAP's fixed startup cost
    assert results[smallest]["storage-rdma"] < results[smallest]["rmmap"]

    # large payloads: RMMAP wins big over every serializing transport
    big = results[largest]
    assert big["rmmap"] < big["storage-rdma"]
    assert big["rmmap"] < big["messaging"]
    ratio = big["storage-rdma"] / big["rmmap"]
    assert ratio > 1.5, f"rmmap only {ratio:.2f}x faster at {largest}"

    # a crossover exists: rmmap/storage-rdma ordering flips with size
    flips = [results[c]["rmmap"] < results[c]["storage-rdma"]
             for c in counts]
    assert flips[0] is False and flips[-1] is True
