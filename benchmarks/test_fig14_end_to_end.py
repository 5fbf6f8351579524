"""Fig 14: end-to-end latency of the four workflows, five transports.

Paper claims reproduced:

* RMMAP is the fastest approach on every workflow (14-97.8% reductions);
* the ordering messaging > storage > storage-rdma holds;
* against the strongest baseline (storage-rdma) RMMAP's win comes from the
  eliminated (de)serialization share.
"""

from .conftest import run_row


def test_fig14(benchmark):
    results = run_row(benchmark, "fig14")

    for wf, row in results.items():
        best_rmmap = min(row["rmmap"], row["rmmap-prefetch"])
        # RMMAP variants beat every (de)serializing transport
        assert best_rmmap < row["messaging"], wf
        assert best_rmmap < row["storage"], wf
        assert best_rmmap < row["storage-rdma"], wf
        # baseline ordering matches the paper
        assert row["storage-rdma"] < row["storage"] < row["messaging"], wf
