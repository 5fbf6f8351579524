"""Fleet scale: 10^5+ invocations across sharded multi-tenant coordinators.

The tentpole claim: the fleet layer sustains hundreds of thousands of
simulated invocations, stays byte-identical at a fixed seed, and reports
per-tenant tail latency and availability that reflect each tenant's
traffic shape and transport.  How fast the host gets through them is
for perfbench's ``fleet-open`` workload to judge, not this file.
"""

import json

from repro.analysis.report import Table
from repro.fleet import FleetSpec, default_tenants, run_fleet

from .conftest import run_once

TARGET_INVOCATIONS = 100_000
N_TENANTS = 8
N_SHARDS = 4

def make_spec(seed=0):
    tenants = default_tenants(N_TENANTS, base_rate_rps=100.0)
    offered_rps = sum(t.arrivals.mean_rate_rps() for t in tenants)
    duration_s = TARGET_INVOCATIONS / offered_rps * 1.1
    return FleetSpec(tenants=tenants, seed=seed, duration_s=duration_s,
                     n_shards=N_SHARDS, pods_per_shard=2,
                     queue_limit=128, max_pods=32)


def test_fleet_sustains_1e5_invocations(benchmark):
    spec = make_spec(seed=0)
    result = run_once(benchmark, run_fleet, spec)

    table = Table("fleet @ 1e5 invocations",
                  ["tenant", "shape", "arrivals", "avail", "p50_ms",
                   "p99_ms"])
    shapes = {t.name: t.arrivals.kind for t in spec.tenants}
    for entry in result.tenants:
        table.add_row(entry["tenant"], shapes[entry["tenant"]],
                      entry["arrivals"],
                      f"{100 * entry['availability']:.2f}%",
                      f"{entry['p50_ms']:.3f}",
                      f"{entry['p99_ms']:.3f}")
    table.print()
    print(f"wall: {result.wall['elapsed_s']:.1f}s host, "
          f"{result.wall['invocations_per_sec']:.0f} inv/s, "
          f"{result.wall['events_per_sec']:.0f} events/s")

    assert result.totals["arrivals"] >= TARGET_INVOCATIONS
    assert len(result.tenants) == N_TENANTS
    assert len(result.shards) == N_SHARDS

    for entry in result.tenants:
        assert entry["completed"] > 0
        assert 0.0 < entry["availability"] <= 1.0
        assert 0.0 < entry["p50_ms"] <= entry["p99_ms"]
        # served latency includes queueing but is bounded: nothing sits
        # in a queue for simulated minutes under a provisioned fleet
        assert entry["p99_ms"] < 10_000.0

    # every shard took traffic and stayed alive (no chaos in this run)
    for shard in result.shards:
        assert shard["alive"] and shard["completed"] > 0
        assert 0.0 < shard["utilization"] <= 1.0


def test_fleet_replay_is_byte_identical(benchmark):
    def both():
        return (run_fleet(make_spec(seed=42)),
                run_fleet(make_spec(seed=42)))

    first, second = run_once(benchmark, both)
    a, b = first.to_json(), second.to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema"] == "fleet-result/v2"
    assert parsed["totals"]["arrivals"] >= TARGET_INVOCATIONS


def test_tenant_transport_ordering_shows_in_tail_latency(benchmark):
    """Tenants on rmmap-class transports see lower served latency than
    tenants running the same workload over slower transports."""
    from repro.fleet import ServiceProfile, TrafficMix
    from repro.fleet.traffic import PoissonArrivals, TenantSpec

    tenants = [
        TenantSpec("slow", PoissonArrivals(100.0),
                   TrafficMix.single("wordcount", "storage")),
        TenantSpec("fast", PoissonArrivals(100.0),
                   TrafficMix.single("wordcount", "rmmap-prefetch")),
    ]
    spec = FleetSpec(tenants=tenants, seed=0, duration_s=30.0,
                     n_shards=4, max_pods=32,
                     profile=ServiceProfile())
    result = run_once(benchmark, run_fleet, spec)
    slow = result.tenant("slow")
    fast = result.tenant("fast")
    assert fast["p50_ms"] < slow["p50_ms"]
    assert fast["p99_ms"] < slow["p99_ms"]
