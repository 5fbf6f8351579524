"""fork-bench: cold start vs prewarm pool vs remote fork under bursts.

The experiment the fork subsystem exists for: the same seeded bursty
fleet (a 2-state MMPP per tenant — long quiet valleys, sharp demand
spikes) is served three times, once per scale-up mechanism, and the
result quantifies the MITOSIS trade:

* **cold** pays the full container boot on every spike → tail latency;
* **prewarm** holds ``max_pods`` fully-resident pods forever → memory;
* **fork** materializes pods in ~1.5 ms at a working-set footprint →
  the p99 of prewarm at (nearly) the memory of cold.

Everything derives from the seeded rng tree, so the whole comparison
(and its JSON) is byte-identical across replays at a fixed seed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.fork.policy import (SCALE_UP_COLD, SCALE_UP_FORK, SCALE_UP_KINDS,
                               SCALE_UP_PREWARM, ScaleUpConfig)

#: fork-bench serialization schema tag.
BENCH_SCHEMA = "fork-bench/v1"

#: container boot time matching the platform's full-fidelity cost model
#: (450 ms), so the fleet abstraction and the kernel-level model agree
COLD_START_MS = 450.0


def bursty_fleet_spec(seed: int, kind: str, duration_s: float = 6.0):
    """One all-bursty fleet spec, identical across *kind* values except
    for the scale-up mechanism — traffic draws from per-tenant named
    rng streams, so all three runs see byte-identical arrivals."""
    from repro.fleet.runner import FleetSpec
    from repro.fleet.traffic import BurstyArrivals, TenantSpec, TrafficMix
    workloads = ["wordcount", "ml-prediction", "finra"]
    # on-state demand is ~2-5x the baseline pod count, so every burst
    # forces a scale-up whose readiness latency lands on the tail; the
    # deep queue keeps that wait visible as latency, not rejections
    tenants = [
        TenantSpec(
            name=f"burst-{i}",
            arrivals=BurstyArrivals(rate_on_rps=1500.0, rate_off_rps=2.0,
                                    mean_on_s=0.6, mean_off_s=1.8),
            mix=TrafficMix.single(workloads[i % len(workloads)],
                                  "rmmap-prefetch"))
        for i in range(3)
    ]
    return FleetSpec(tenants=tenants, seed=seed,
                     duration_s=duration_s, n_shards=2,
                     pods_per_shard=2, queue_limit=4096,
                     min_pods=1, max_pods=16,
                     cold_start_ms=COLD_START_MS,
                     scale_up=ScaleUpConfig.from_kind(kind))


def _worst_p99_ms(result) -> float:
    return max(t["p99_ms"] for t in result.tenants)


def fork_bench(seed: int = 0, duration_s: float = 6.0) -> Dict[str, Any]:
    """Run the three-mechanism comparison; returns a JSON-ready dict.

    ``rows[kind]`` carries each run's worst-tenant p99, start-mode
    split and resident-frame footprint; ``comparison`` has the two
    headline ratios (fork vs cold on p99, fork vs prewarm on mean
    resident frames — both < 1.0 when the fork path wins).
    """
    from repro.fleet.runner import run_fleet
    rows: Dict[str, Dict[str, Any]] = {}
    for kind in SCALE_UP_KINDS:
        result = run_fleet(bursty_fleet_spec(seed, kind,
                                             duration_s=duration_s))
        totals = result.totals
        rows[kind] = {
            "p99_ms": round(_worst_p99_ms(result), 6),
            "completed": totals["completed"],
            "rejected": totals["rejected"],
            "starts": totals["starts"],
            "frames": totals["frames"],
        }
    fork, cold = rows[SCALE_UP_FORK], rows[SCALE_UP_COLD]
    prewarm = rows[SCALE_UP_PREWARM]
    comparison = {
        "fork_vs_cold_p99": _ratio(fork["p99_ms"], cold["p99_ms"]),
        "fork_vs_prewarm_p99": _ratio(fork["p99_ms"], prewarm["p99_ms"]),
        "fork_vs_prewarm_frames": _ratio(fork["frames"]["mean"],
                                         prewarm["frames"]["mean"]),
        "fork_vs_cold_frames": _ratio(fork["frames"]["mean"],
                                      cold["frames"]["mean"]),
    }
    return {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "duration_s": duration_s,
        "cold_start_ms": COLD_START_MS,
        "rows": rows,
        "comparison": comparison,
    }


def _ratio(a: float, b: float) -> Optional[float]:
    return round(a / b, 6) if b else None


def render_bench(report: Dict[str, Any]) -> str:
    """Text tables for the CLI."""
    from repro.analysis.report import Table
    table = Table(
        f"fork-bench (seed={report['seed']}, "
        f"cold_start={report['cold_start_ms']:.0f}ms)",
        ["mechanism", "p99_ms", "completed", "cold", "prewarm", "fork",
         "frames_mean", "frames_peak"])
    for kind in SCALE_UP_KINDS:
        row = report["rows"][kind]
        table.add_row(kind, f"{row['p99_ms']:.3f}", row["completed"],
                      row["starts"]["cold"], row["starts"]["prewarm"],
                      row["starts"]["fork"],
                      f"{row['frames']['mean']:.0f}",
                      row["frames"]["peak"])
    cmp_ = report["comparison"]
    lines = [table.render(),
             f"fork vs cold     p99 ratio:    "
             f"{cmp_['fork_vs_cold_p99']}",
             f"fork vs prewarm  frames ratio: "
             f"{cmp_['fork_vs_prewarm_frames']}"]
    return "\n".join(lines)
