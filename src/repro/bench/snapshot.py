"""Persisted benchmark snapshots — the ``BENCH_<n>.json`` trajectory.

``python -m repro bench`` runs the figure workloads through the
:func:`repro.api.run` façade at a fixed seed/scale and writes one
schema-versioned JSON snapshot: per-(workload, transport) headline
metrics (end-to-end ns, Fig 11 T/N/R stage totals), a critical-path
summary from the causal profiler (:mod:`repro.obs.profile`), derived
paper headlines (RMMAP speedup over messaging per workload), and an
environment stamp.

The simulator is deterministic, so every metric except the environment
stamp is a pure function of ``(code, seed, scale)`` — which is exactly
what makes the snapshots comparable: :mod:`repro.bench.regression` diffs
two snapshots and fails CI when a metric drifts outside its tolerance
band.  Snapshots are numbered (``BENCH_0.json`` is the committed
baseline); :func:`next_snapshot_path` picks the next free slot.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import re
from typing import Any, Dict, List, Optional, Sequence

#: v6: simulated leaves only.  Per-cell headline metrics, critical-path
#: leaves keyed by ``(machine, layer, name)`` (the run-differ's join
#: key), span-duration percentiles from the mergeable sketch and
#: page-provenance ``lineage`` totals — every one a pure function of
#: ``(code, seed, scale)``.  The host-time ``wall`` section of v3–v5 is
#: gone: host time is measured by ``perfbench/``, nowhere else.
SCHEMA_VERSION = 6

#: The fixed operating point snapshots are taken at (CI uses exactly this).
DEFAULT_SEED = 0
DEFAULT_SCALE = 0.05

DEFAULT_WORKLOADS = ("finra", "ml-prediction", "ml-training", "wordcount")
DEFAULT_TRANSPORTS = ("messaging", "storage-rdma", "rmmap-prefetch")

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")


def _environment() -> Dict[str, Any]:
    return {
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "platform": _platform.platform(),
    }


def _critical_path_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    """The stable, comparable slice of a critical-path report."""
    by_layer: Dict[str, int] = {}
    for seg in report["path"]:
        by_layer[seg["layer"]] = (by_layer.get(seg["layer"], 0)
                                  + seg["duration_ns"])
    top = report["bottlenecks"][0] if report["bottlenecks"] else None
    return {
        "total_ns": report["total_ns"],
        "segments": len(report["path"]),
        "span_count": report["span_count"],
        "layers": report["layers"],
        "path_ns_by_layer": dict(sorted(by_layer.items())),
        "path_ns_by_location": {
            f"{row['machine']}:{row['layer']}/{row['name']}":
                row["path_ns"]
            for row in sorted(report["bottlenecks"],
                              key=lambda r: (r["machine"], r["layer"],
                                             r["name"]))},
        "top": (f"{top['machine']}:{top['layer']}/{top['name']}"
                if top else None),
        "top_share": top["share"] if top else 0.0,
    }


def _span_percentiles(root) -> Dict[str, int]:
    """Span-duration percentiles of the measured trace, estimated with
    the hub's mergeable sketch — tail-shape leaves the gate can hold,
    beyond the e2e sum."""
    from repro.obs.telemetry import PercentileSketch

    sketch = PercentileSketch()
    for node in root.walk():
        sketch.record(node.duration_ns)
    return {"count": sketch.count,
            "p50_ns": sketch.quantile(0.50),
            "p90_ns": sketch.quantile(0.90),
            "p99_ns": sketch.quantile(0.99)}


def _lineage_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    """The comparable totals of a lineage report (v5 cell leaves)."""
    totals = report["totals"]
    return {
        "bytes_moved": totals["bytes_moved"],
        "bytes_touched": totals["bytes_touched"],
        "amplification": totals["amplification"],
        "prefetch_waste_bytes": totals["prefetch_waste_bytes"],
        "duplicate_pulls": totals["duplicate_pulls"],
    }


def collect(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
            workloads: Optional[Sequence[str]] = None,
            transports: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Run the benchmark matrix and return the snapshot dict."""
    from repro.api import run

    workloads = tuple(workloads) if workloads else DEFAULT_WORKLOADS
    transports = tuple(transports) if transports else DEFAULT_TRANSPORTS
    matrix: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        row: Dict[str, Any] = {}
        for transport in transports:
            result = run(workload, transport=transport, seed=seed, scale=scale,
                         telemetry=True, lineage=True)
            stages = result.stage_totals()
            row[transport] = {
                "e2e_ns": result.latency_ns,
                "transform_ns": stages["transform"],
                "network_ns": stages["network"],
                "reconstruct_ns": stages["reconstruct"],
                "critical_path": _critical_path_summary(
                    result.critical_path()),
                "span_percentiles": _span_percentiles(
                    result.span_tree()),
                "lineage": _lineage_summary(result.lineage()),
            }
        matrix[workload] = row

    derived: Dict[str, float] = {}
    for workload, row in matrix.items():
        base = row.get("messaging")
        for transport, entry in row.items():
            if base is None or transport == "messaging" \
                    or not entry["e2e_ns"]:
                continue
            derived[f"{workload}.{transport}.speedup_over_messaging"] = \
                round(base["e2e_ns"] / entry["e2e_ns"], 4)

    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scale": scale,
        "workloads": {w: matrix[w] for w in sorted(matrix)},
        "derived": dict(sorted(derived.items())),
        "environment": _environment(),
    }


def write_snapshot(snapshot: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    version = snapshot.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: snapshot schema v{version!r}, this tool reads "
            f"v{SCHEMA_VERSION}")
    return snapshot


def snapshot_paths(directory: str = ".") -> List[str]:
    """Existing ``BENCH_<n>.json`` files in *directory*, numerically
    ordered."""
    found = []
    for name in os.listdir(directory):
        m = _SNAPSHOT_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(found)]


def next_snapshot_path(directory: str = ".") -> str:
    """The next free ``BENCH_<n>.json`` slot in *directory*."""
    taken = [int(_SNAPSHOT_RE.match(os.path.basename(p)).group(1))
             for p in snapshot_paths(directory)]
    n = max(taken) + 1 if taken else 0
    return os.path.join(directory, f"BENCH_{n}.json")
