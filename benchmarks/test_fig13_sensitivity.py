"""Fig 13: RMMAP vs storage (RDMA) across workload knobs, plus Java.

Paper claims reproduced:

* epochs: raising ML-training epochs from 5 to 30 shrinks RMMAP's
  improvement over storage (RDMA) — from 23.9% toward 8% — because
  longer function execution amortizes the (de)serialization the transfer
  saves;
* payload: growing the transferred tensors does not monotonically grow
  or shrink RMMAP's improvement — more data is costlier to
  (de)serialize, but it also lengthens function execution;
* width: RMMAP keeps its edge across ML-prediction fan-out widths; the
  magnitude varies non-monotonically (wider fan-out means more transfers
  to save on, but also more parallelism hiding them);
* Java WordCount (Section 5.7): RMMAP's results on the JDK runtime mirror
  the Python ones — faster than messaging, storage, and storage (RDMA)
  (77.4%, 55.2% and 39.0% in the paper); the design is language-agnostic.
"""

from .conftest import run_row


def test_fig13(benchmark):
    results = run_row(benchmark, "fig13")

    by_epochs = results["epochs"]
    epochs = sorted(by_epochs)
    # RMMAP wins at every point
    for e in epochs:
        assert by_epochs[e]["improvement"] > 0.0, e
    # the improvement shrinks as epochs grow (amortization)
    assert by_epochs[epochs[0]]["improvement"] > \
        by_epochs[epochs[-1]]["improvement"]

    for n, d in results["images"].items():
        assert d["improvement"] > 0.0, n
        assert d["improvement"] < 0.9, n

    for w, d in results["width"].items():
        assert d["improvement"] > 0.0, w

    java = results["java"]
    best_rmmap = min(java["rmmap"], java["rmmap-prefetch"])
    assert best_rmmap < java["storage-rdma"]
    assert best_rmmap < java["storage"]
    assert best_rmmap < java["messaging"]
    # the reductions are ordered like the paper's: messaging worst
    assert java["messaging"] > java["storage"] > java["storage-rdma"]
