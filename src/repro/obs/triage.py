"""Auto-triage: from a burn-rate alert to a ranked root-cause report.

When a :class:`~repro.obs.monitor.FleetMonitor` alert fires, this module
answers the question the alert cannot: *why*.  For each alert it builds
an :class:`AlertContext` over the alert window:

* **exemplars** — the worst-k / median-band / failed trace ids the
  monitor's :class:`~repro.obs.monitor.ExemplarReservoir` retained (the
  hub keeps every span, so each has its full span tree);
* **faults** — injected chaos faults and shard deaths inside the window
  (``platform``/``shard.failed`` events, ``chaos``/``fault`` events,
  with the ``shards.failed`` counter series as a cap-proof fallback);
* **saturation** — which resource series (``Telemetry.series``, one
  :class:`~repro.obs.timeline.Timeline` per counter/gauge) crossed their
  saturation threshold inside the window, per :class:`SaturationSpec`;
* **lineage** — when the run tracked page provenance
  (:mod:`repro.obs.lineage`), transfer edges active inside the window
  whose moved bytes were partly prefetch waste, ranked by waste
  fraction;
* **critical path & diff** — the slowest exemplar's bottleneck ranking
  (:func:`repro.obs.profile.critical_path_report`) and its span-tree
  diff against the median exemplar
  (:func:`repro.obs.diff.diff_traces`).

All of it folds into one ``evidence`` list ranked by severity —
injected faults first (they explain everything downstream), then
saturation crossings by how far past the threshold they went, then
exemplar-derived localization.  Everything is computed from
deterministic inputs, so the report is byte-identical at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.diff import diff_traces
from repro.obs.monitor import Alert, FleetMonitor
from repro.obs.profile import build_span_tree, critical_path_report
from repro.obs.telemetry import Telemetry

TRIAGE_SCHEMA_VERSION = 1

#: Severity assigned to an injected fault inside the alert window — a
#: large finite value (JSON-safe) so fault evidence always outranks any
#: saturation or exemplar signal.
FAULT_SEVERITY = 1e9

#: Cap on diff rows embedded in a report (full diffs of deep trees would
#: dwarf the rest of the payload).
MAX_DIFF_ROWS = 8


@dataclass(frozen=True)
class SaturationSpec:
    """One resource series and its saturation test.

    ``mode`` selects how the window statistic is judged:

    * ``high_frac`` — saturated when the window **max** reaches
      ``threshold`` of capacity (the peak of ``capacity_name``'s
      series);
    * ``low_frac`` — starved when the window **min** falls to
      ``threshold`` of capacity or below (token exhaustion);
    * ``peak_frac`` — anomalous when the window max reaches
      ``threshold`` of the series' own lifetime peak (no capacity
      companion needed);
    * ``delta`` — suspicious when a monotone counter *grew* inside the
      window at all (rejections, failures).
    """

    layer: str
    name: str
    mode: str  # high_frac | low_frac | peak_frac | delta
    capacity_name: Optional[str] = None
    threshold: float = 0.9
    label: str = ""


#: The built-in saturation checks, one per utilization gauge the fleet /
#: platform layers publish.  Order is presentation only —
#: evidence is re-ranked by severity.
DEFAULT_SATURATION_SPECS: Tuple[SaturationSpec, ...] = (
    SaturationSpec("fleet.shard", "pods.inflight", "high_frac",
                   capacity_name="pods.provisioned", threshold=1.0,
                   label="pod slots exhausted"),
    SaturationSpec("fleet.shard", "queue.depth", "high_frac",
                   capacity_name="queue.limit", threshold=0.8,
                   label="wait queue near capacity"),
    SaturationSpec("fleet.admission", "tokens.level_milli", "low_frac",
                   capacity_name="tokens.burst_milli", threshold=0.1,
                   label="admission tokens exhausted"),
    SaturationSpec("fleet.admission", "rejections.total", "delta",
                   label="admission rejections during window"),
    SaturationSpec("platform", "invocations.inflight", "peak_frac",
                   threshold=0.9, label="coordinator inflight at peak"),
    SaturationSpec("platform", "shards.failed", "delta",
                   label="shard death during window"),
)


@dataclass
class AlertContext:
    """Everything triage gathered about one alert, ranked."""

    alert: Alert
    window_start_ns: int
    window_end_ns: int
    exemplars: Optional[Dict[str, Any]] = None
    faults: List[Dict[str, Any]] = field(default_factory=list)
    saturation: List[Dict[str, Any]] = field(default_factory=list)
    lineage: List[Dict[str, Any]] = field(default_factory=list)
    critical_path: Optional[Dict[str, Any]] = None
    diff: Optional[Dict[str, Any]] = None
    #: the unified ranking: every fault / saturation / exemplar signal
    #: as one list, most severe first
    evidence: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "alert": self.alert.to_dict(),
            "window_start_ns": self.window_start_ns,
            "window_end_ns": self.window_end_ns,
            "exemplars": self.exemplars,
            "faults": self.faults,
            "saturation": self.saturation,
            "lineage": self.lineage,
            "critical_path": self.critical_path,
            "diff": self.diff,
            "evidence": self.evidence,
        }


# -- fault correlation ---------------------------------------------------------


def _fault_scan(hub: Telemetry, t0_ns: int,
                t1_ns: int) -> List[Dict[str, Any]]:
    """Injected faults and shard deaths inside ``[t0, t1]``."""
    faults: List[Dict[str, Any]] = []
    seen = set()
    for event in hub.events:
        if not t0_ns <= event["ts"] <= t1_ns:
            continue
        layer, name = event["layer"], event["name"]
        if (layer, name) == ("platform", "shard.failed") \
                or (layer == "chaos" and name == "fault"):
            key = (event["machine"], layer, name, event["ts"])
            if key in seen:
                continue
            seen.add(key)
            faults.append({"ts_ns": event["ts"],
                           "machine": event["machine"],
                           "layer": layer, "name": name,
                           "attributes": dict(event["attributes"])})
    # the event log is capped; the shards.failed counter series survives
    # the cap, so recover deaths the log dropped
    for (machine, layer, name), series in sorted(hub.series.items()):
        if layer != "platform" or name != "shards.failed":
            continue
        for ts, _value in series.samples():
            if not t0_ns <= ts <= t1_ns:
                continue
            key = (machine, layer, "shard.failed", ts)
            if key in seen:
                continue
            seen.add(key)
            faults.append({"ts_ns": ts, "machine": machine,
                           "layer": layer, "name": "shard.failed",
                           "attributes": {"shard": machine,
                                          "source": "counter-series"}})
    faults.sort(key=lambda f: (f["ts_ns"], f["machine"], f["name"]))
    return faults


# -- saturation correlation ----------------------------------------------------


def _saturation_scan(hub: Telemetry, t0_ns: int,
                     t1_ns: int) -> List[Dict[str, Any]]:
    """Every (spec, machine) whose series crossed its threshold."""
    findings: List[Dict[str, Any]] = []
    series = sorted(hub.series.items())
    for spec in DEFAULT_SATURATION_SPECS:
        for (machine, layer, name), timeline in series:
            if layer != spec.layer or name != spec.name:
                continue
            entry = {"machine": machine, "layer": layer, "name": name,
                     "mode": spec.mode, "label": spec.label,
                     "threshold": spec.threshold}
            severity = 0.0
            if spec.mode == "delta":
                grew = timeline.delta_between(t0_ns, t1_ns)
                if grew > 0:
                    severity = 1.0 + grew
                    entry["delta"] = grew
            else:
                stats = timeline.stats_between(t0_ns, t1_ns)
                if stats is None:
                    continue
                if spec.mode == "peak_frac":
                    peak = timeline.peak or 0
                    if peak > 0 \
                            and stats["max"] >= spec.threshold * peak:
                        severity = stats["max"] / (spec.threshold * peak)
                        entry.update(window_max=stats["max"],
                                     lifetime_peak=peak)
                else:
                    capacity = hub.series.get(
                        (machine, layer, spec.capacity_name))
                    cap = 0 if capacity is None else capacity.peak
                    if cap <= 0:
                        continue
                    entry["capacity"] = cap
                    if spec.mode == "high_frac":
                        limit = spec.threshold * cap
                        if stats["max"] >= limit:
                            severity = stats["max"] / max(limit, 1e-9)
                            entry["window_max"] = stats["max"]
                    elif spec.mode == "low_frac":
                        limit = spec.threshold * cap
                        if stats["min"] <= limit:
                            severity = (limit + 1) / (stats["min"] + 1)
                            entry["window_min"] = stats["min"]
            if severity >= 1.0:
                entry["severity"] = round(severity, 6)
                findings.append(entry)
    findings.sort(key=lambda f: (-f["severity"], f["machine"],
                                 f["layer"], f["name"]))
    return findings


# -- lineage correlation -------------------------------------------------------


def _lineage_scan(hub: Telemetry, t0_ns: int,
                  t1_ns: int) -> List[Dict[str, Any]]:
    """Transfer edges active inside the alert window whose moved bytes
    were partly prefetch waste, worst waste fraction first.

    Only available when the run tracked lineage
    (:meth:`~repro.obs.telemetry.Telemetry.enable_lineage`); returns
    ``[]`` otherwise — triage never *requires* lineage.
    """
    if hub.lineage is None:
        return []
    findings: List[Dict[str, Any]] = []
    report = hub.lineage.report()
    for key, edge in report["edges"].items():
        window = edge.get("window") or {}
        first, last = window.get("first_ns"), window.get("last_ns")
        if first is None or last is None:
            continue
        if last < t0_ns or first > t1_ns:
            continue
        moved = edge.get("bytes_moved", 0)
        waste = edge.get("prefetch_waste", {}).get("bytes", 0)
        if moved <= 0 or waste <= 0:
            continue
        findings.append({
            "edge": key,
            "transport": edge["transport"],
            "bytes_moved": moved,
            "prefetch_waste_bytes": waste,
            "waste_fraction": round(waste / moved, 6),
            "amplification": edge.get("amplification"),
        })
    findings.sort(key=lambda f: (-f["waste_fraction"], f["edge"]))
    return findings


# -- per-alert assembly --------------------------------------------------------


def _exemplar_analysis(hub: Telemetry,
                       exemplars: Optional[Dict[str, Any]]
                       ) -> Tuple[Optional[Dict[str, Any]],
                                  Optional[Dict[str, Any]]]:
    """(critical-path report of the worst exemplar, diff vs median)."""
    if not exemplars or not exemplars.get("worst"):
        return None, None
    worst_tid = exemplars["worst"][0]["trace_id"]
    try:
        report = critical_path_report(hub, worst_tid)
    except ValueError:
        return None, None  # the exemplar recorded no spans
    diff = None
    median = exemplars.get("median")
    if median is not None and median["trace_id"] != worst_tid:
        try:
            baseline = build_span_tree(hub, median["trace_id"])
            candidate = build_span_tree(hub, worst_tid)
            diff = diff_traces(baseline, candidate)
            diff["rows"] = diff["rows"][:MAX_DIFF_ROWS]
        except ValueError:
            diff = None
    return report, diff


def _rank_evidence(ctx: AlertContext) -> List[Dict[str, Any]]:
    evidence: List[Dict[str, Any]] = []
    for fault in ctx.faults:
        evidence.append({
            "kind": "fault", "severity": FAULT_SEVERITY,
            "machine": fault["machine"], "name": fault["name"],
            "label": f"injected fault on {fault['machine']}",
            "detail": fault,
        })
    for finding in ctx.saturation:
        evidence.append({
            "kind": "saturation", "severity": finding["severity"],
            "machine": finding["machine"],
            "name": f"{finding['layer']}/{finding['name']}",
            "label": finding["label"], "detail": finding,
        })
    for finding in ctx.lineage:
        evidence.append({
            "kind": "lineage", "severity": finding["waste_fraction"],
            "machine": finding["transport"],
            "name": finding["edge"],
            "label": (f"{finding['waste_fraction'] * 100:.1f}% of "
                      f"transferred bytes were prefetch waste on edge "
                      f"{finding['edge'].split('@', 1)[0]}"),
            "detail": finding,
        })
    if ctx.critical_path and ctx.critical_path["bottlenecks"]:
        top = ctx.critical_path["bottlenecks"][0]
        evidence.append({
            "kind": "exemplar-critical-path", "severity": top["share"],
            "machine": top["machine"],
            "name": f"{top['layer']}/{top['name']}",
            "label": (f"{top['share'] * 100:.1f}% of the slowest "
                      f"exemplar's critical path"),
            "detail": top,
        })
    if ctx.diff and ctx.diff["rows"]:
        top = ctx.diff["rows"][0]
        if top["delta_ns"] > 0:
            evidence.append({
                "kind": "exemplar-diff",
                "severity": top["share_of_regression"],
                "machine": top["location"].split(":", 1)[0],
                "name": top["location"],
                "label": (f"{top['share_of_regression'] * 100:.1f}% of "
                          f"worst-vs-median regression"),
                "detail": top,
            })
    evidence.sort(key=lambda e: (-e["severity"], e["kind"],
                                 e["machine"], e["name"]))
    for entry in evidence:
        entry["severity"] = round(entry["severity"], 6)
    return evidence


def triage_alert(hub: Telemetry, monitor: FleetMonitor,
                 alert: Alert) -> AlertContext:
    """Build the ranked :class:`AlertContext` for one alert."""
    t1 = alert.cleared_ns if alert.cleared_ns is not None \
        else monitor.last_ts
    t0 = max(0, alert.fired_ns - alert.slo.long_window_ns)
    ctx = AlertContext(alert=alert, window_start_ns=t0,
                       window_end_ns=t1)
    ctx.exemplars = monitor.exemplars_for(alert.key, now_ns=t1)
    ctx.faults = _fault_scan(hub, t0, t1)
    ctx.saturation = _saturation_scan(hub, t0, t1)
    ctx.lineage = _lineage_scan(hub, t0, t1)
    ctx.critical_path, ctx.diff = _exemplar_analysis(hub, ctx.exemplars)
    ctx.evidence = _rank_evidence(ctx)
    return ctx


def triage_report(hub: Telemetry,
                  monitor: FleetMonitor) -> Dict[str, Any]:
    """Triage every alert the monitor raised; JSON-ready and
    byte-identical at a fixed seed."""
    contexts = [triage_alert(hub, monitor, alert)
                for alert in monitor.alerts]
    return {
        "schema_version": TRIAGE_SCHEMA_VERSION,
        "generated_at_ns": monitor.last_ts,
        "alert_count": len(contexts),
        "alerts": [ctx.to_dict() for ctx in contexts],
    }


def render_triage(report: Dict[str, Any]) -> str:
    """The triage report as ranked text tables."""
    from repro.analysis.report import Table

    lines: List[str] = []
    if not report["alerts"]:
        return ("triage: no alerts fired "
                f"(as of {report['generated_at_ns'] / 1e6:.3f} ms "
                "simulated)")
    for i, ctx in enumerate(report["alerts"]):
        alert = ctx["alert"]
        key = "/".join((alert["tenant"], alert["workflow"],
                        alert["transport"]))
        cleared = (f"{alert['cleared_ns'] / 1e6:.3f} ms"
                   if alert["cleared_ns"] is not None else "ACTIVE")
        lines.append(
            f"alert {i + 1}/{report['alert_count']}: "
            f"{alert['slo']} on {key} — fired "
            f"{alert['fired_ns'] / 1e6:.3f} ms, cleared {cleared} "
            f"(burn {alert['burn_long']:.2f}L/"
            f"{alert['burn_short']:.2f}S)")
        table = Table(
            f"ranked evidence [{ctx['window_start_ns'] / 1e6:.3f} ms "
            f".. {ctx['window_end_ns'] / 1e6:.3f} ms]",
            ["rank", "kind", "machine", "signal", "severity", "label"])
        for rank, entry in enumerate(ctx["evidence"], start=1):
            table.add_row(rank, entry["kind"], entry["machine"],
                          entry["name"], f"{entry['severity']:g}",
                          entry["label"])
        if ctx["evidence"]:
            lines.append(table.render())
        else:
            lines.append("  no evidence found in the alert window")
        exemplars = ctx.get("exemplars")
        if exemplars and exemplars.get("worst"):
            worst = ", ".join(
                f"{e['trace_id']} ({e['latency_ns'] / 1e6:.3f} ms)"
                for e in exemplars["worst"])
            lines.append(f"  worst exemplars: {worst}")
            median = exemplars.get("median")
            if median is not None:
                lines.append(
                    f"  median exemplar: {median['trace_id']} "
                    f"({median['latency_ns'] / 1e6:.3f} ms)")
    return "\n".join(lines)
