"""Fig 16a: memory consumption of a one-producer/one-consumer transfer.

Paper claims reproduced:

* RMMAP's extra memory over the no-transfer optimum is small (<= ~4% in
  the paper; its only extras are shadow-pinned pages that container
  caching hides) — far below doubling;
* messaging and storage need *more* memory than RMMAP because they hold
  serialized message/storage buffers (RMMAP used up to 20% less in the
  paper).
"""

from .conftest import run_row


def test_fig16a(benchmark):
    results = run_row(benchmark, "fig16a")

    for count, d in results.items():
        # producer-side peak: RMMAP adds little over the optimum
        assert d["rmmap"] <= d["optimal"] * 1.10, count
        # serializing transports hold extra serialized buffers
        assert d["rmmap"] < d["messaging"], count
        assert d["rmmap"] < d["storage"], count
