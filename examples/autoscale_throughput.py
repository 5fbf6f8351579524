#!/usr/bin/env python3
"""Throughput and resource usage under load (the Fig 12 experiment).

Runs the ``fig12`` row of the experiment table — the ML-prediction
workflow under three transports, first with closed-loop clients
saturating the cluster, then with an open-loop client at a fixed request
rate — prints the row's tables, and charts the fixed-rate half: everyone
absorbs the offered load, but RMMAP does it with fewer pods and much
lower p99.

Run:  python examples/autoscale_throughput.py
"""

from repro.analysis.report import ascii_bar_chart
from repro.bench.experiments import EXPERIMENTS


def main() -> None:
    fig12 = EXPERIMENTS["fig12"]
    results = fig12.run()
    fig12.show(results)

    fixed = results["fixed"]
    print(ascii_bar_chart(
        "mean busy pods (same offered load)",
        list(fixed), [d["mean_pods"] for d in fixed.values()]))
    print()
    print(ascii_bar_chart(
        "p99 latency", list(fixed),
        [d["stats"].p99_ms for d in fixed.values()], unit=" ms"))


if __name__ == "__main__":
    main()
