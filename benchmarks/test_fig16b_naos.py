"""Fig 16b: comparison with Naos on its (Integer, char[5]) map benchmark.

Paper claim reproduced: RMMAP outperforms Naos (by 42-64% in the paper)
because Naos still traverses the object graph and rewrites every pointer
on both sides, while RMMAP ships none of the objects eagerly.
"""

from .conftest import run_row


def test_fig16b(benchmark):
    results = run_row(benchmark, "fig16b")

    for count, d in results.items():
        faster = 1.0 - d["rmmap"] / d["naos"]
        assert faster > 0.15, (count, faster)   # paper band: 42-64%
        assert faster < 0.90, (count, faster)
