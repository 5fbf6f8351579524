"""Fig 12: ML-prediction throughput, resource usage and latency CDF.

Paper claims reproduced:

* saturated cluster (upper row): RMMAP's peak throughput is 1.2-1.6x the
  other approaches' (lower per-invocation busy time);
* fixed request rate (lower row): all approaches sustain the same
  throughput, but RMMAP occupies a fraction of the pods (64.3-86.3% in
  the paper) and delivers much lower p50/p90/p99 latency.
"""

from .conftest import run_row


def test_fig12(benchmark):
    results = run_row(benchmark, "fig12")

    saturated = results["saturated"]
    rmmap = saturated["rmmap"]["throughput_per_s"]
    for tname in ("messaging", "storage-rdma"):
        other = saturated[tname]["throughput_per_s"]
        ratio = rmmap / other
        assert ratio > 1.05, f"peak tput vs {tname}: {ratio:.2f}x"
        assert ratio < 4.0, f"implausible ratio vs {tname}: {ratio:.2f}x"

    fixed = results["fixed"]
    rmmap = fixed["rmmap"]
    for tname in ("messaging", "storage-rdma"):
        other = fixed[tname]
        # same offered load is absorbed by everyone
        assert abs(rmmap["throughput_per_s"]
                   - other["throughput_per_s"]) \
            < 0.5 * other["throughput_per_s"]
        # ...but RMMAP needs fewer busy pods and has lower tails
        assert rmmap["mean_pods"] < other["mean_pods"], tname
        assert rmmap["stats"].p50_ms < other["stats"].p50_ms, tname
        assert rmmap["stats"].p99_ms < other["stats"].p99_ms, tname
    # CDF points are monotone and end at 1.0
    cdf = rmmap["cdf"]
    assert all(b >= a for (_x, a), (_y, b) in zip(cdf, cdf[1:]))
    assert abs(cdf[-1][1] - 1.0) < 1e-9
