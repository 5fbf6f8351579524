"""Fig 15: factor analysis of the PCA -> train transfer.

Paper claims reproduced:

* RMMAP's E2E is a modest constant factor over the local-read optimum
  (1.4x with prefetch, 1.7x without in the paper) — remote reads remain
  slower than local ones even with fast networking;
* the overhead is dominated by the RDMA data reads, which prefetch
  substantially reduces (fewer faults + batched requests);
* the metadata RPC (page-table pull) is negligible;
* replacing one-sided RDMA with RPC-based paging slows RMMAP markedly
  (+62.2% in the paper) — the RDMA co-design is necessary.
"""

from .conftest import run_row


def test_fig15(benchmark):
    results = run_row(benchmark, "fig15")

    local = results["local (optimal)"]["e2e_ms"]
    prefetch = results["rmmap-prefetch"]["e2e_ms"]
    demand = results["rmmap"]["e2e_ms"]
    rpc = results["rmmap-rpc"]["e2e_ms"]

    # remote is slower than local, by a bounded factor
    assert 1.0 < prefetch / local < 4.0
    assert prefetch < demand < rpc
    # prefetch reduces the data-read component
    assert results["rmmap-prefetch"]["read_ms"] \
        < results["rmmap"]["read_ms"]
    # RPC-based paging costs markedly more than one-sided RDMA
    assert (rpc - demand) / demand > 0.2
