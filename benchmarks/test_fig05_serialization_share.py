"""Fig 5: (de)serialization share with software overhead emulated to zero.

Paper claims reproduced: even with a free messaging/storage path (a
zero-byte message; no storage reads/writes), (de)serialization alone still
takes 17-58% (messaging) / 22-72% (storage) of workflow execution time —
so optimizing only the software path cannot fix state transfer.
"""

from .conftest import run_row


def test_fig5(benchmark):
    results = run_row(benchmark, "fig5")

    for wf, row in results.items():
        for tname, d in row.items():
            # software path really is zeroed
            assert d["software_share"] < 0.01, (wf, tname)
            # (de)serialization alone remains a significant share
            assert d["serdes_share"] > 0.10, (wf, tname, d["serdes_share"])
