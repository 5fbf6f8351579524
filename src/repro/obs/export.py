"""Telemetry exporters: JSON, CSV, Prometheus text and Chrome traces.

The Chrome export targets the `trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
understood by Perfetto / ``chrome://tracing``:

* hub spans become complete ``"X"`` events;
* counter/gauge time series become ``"C"`` counter tracks, one sample
  per series bucket at its last update, so each track ends on the
  metric's final value;
* structured events become instant ``"i"`` events.

Processes (``pid``) map to machines and threads (``tid``) to layers, with
``"M"`` metadata records naming both, so a trace opens as one row per
(machine, layer).  The hub holds no host-clock metric, so every export is
a pure function of the seeded run.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Any, Dict, List, Optional

from repro.obs.telemetry import Telemetry


def to_json(hub: Telemetry, indent: Optional[int] = 2,
            monitor=None) -> str:
    """The hub snapshot as a JSON document.

    ``monitor`` (a :class:`~repro.obs.monitor.FleetMonitor`) embeds the
    fleet view — windowed series, SLOs, the alert timeline — under a
    ``"monitor"`` key alongside the raw hub data.
    """
    snapshot = hub.snapshot()
    if monitor is not None:
        snapshot["monitor"] = monitor.snapshot()
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def write_json(hub: Telemetry, path: str, monitor=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(hub, monitor=monitor))
        fh.write("\n")


def to_csv(hub: Telemetry) -> str:
    """Counters, gauges and histogram summaries as flat CSV rows; a
    histogram's ``p50``/``p99`` is the upper bound of the covering log2
    bin."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["kind", "machine", "layer", "name", "field", "value"])
    for kind, (machine, layer, name), value in hub.iter_metrics():
        if kind == "histogram":
            for fname, fvalue in (("count", value.count),
                                  ("sum", value.sum),
                                  ("min", value.min), ("max", value.max),
                                  ("p50", _log2_quantile(value, 0.5)),
                                  ("p99", _log2_quantile(value, 0.99))):
                writer.writerow([kind, machine, layer, name, fname,
                                 fvalue])
        else:
            writer.writerow([kind, machine, layer, name, "value", value])
    return out.getvalue()


def write_csv(hub: Telemetry, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv(hub))


# -- Prometheus / OpenMetrics text ---------------------------------------------

#: Prometheus metric names allow ``[a-zA-Z0-9_:]`` only.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(layer: str, name: str, suffix: str = "") -> str:
    """``repro_<layer>_<name><suffix>`` with invalid characters folded
    to ``_`` (dots and dashes in hub names become underscores)."""
    metric = _PROM_INVALID.sub("_", f"repro_{layer}_{name}{suffix}")
    if metric[0].isdigit():
        metric = "_" + metric
    return metric


def _prom_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _bin_upper(b: int) -> int:
    """Largest value of log2 bin *b* (bin 0 is exactly 0, bin ``b`` is
    ``[2**(b-1), 2**b - 1]``)."""
    return (1 << b) - 1 if b > 0 else 0


def _log2_quantile(sketch, q: float) -> int:
    """Upper bound of the log2 bin covering rank ``ceil(q * count)``
    (0 when the sketch is empty)."""
    target = max(1, int(q * sketch.count + 0.999999))
    seen = 0
    for b, n in sketch.bins.items():
        seen += n
        if seen >= target:
            return _bin_upper(b)
    return 0


def to_prom_text(hub: Telemetry) -> str:
    """The hub's counters, gauges and histograms in the Prometheus /
    OpenMetrics text exposition format.

    Hub counters become ``<name>_total`` counter samples, gauges map
    one-to-one, and log2-binned histograms become cumulative
    ``_bucket{le=...}`` series (bucket bounds are the histogram's bin
    upper bounds) plus ``_sum``/``_count``.  Machines become a
    ``machine`` label and the hub layer a ``layer`` label, so one scrape
    carries the whole simulated cluster.  Ends with the OpenMetrics
    ``# EOF`` terminator.
    """
    groups: Dict[tuple, List[tuple]] = {}
    for kind, (machine, layer, name), value in hub.iter_metrics():
        groups.setdefault((layer, name, kind), []).append((machine, value))
    lines: List[str] = []
    for layer, name, kind in sorted(groups):
        rows = sorted(groups[(layer, name, kind)], key=lambda r: r[0])
        family = _prom_name(layer, name)
        lines.append(f"# TYPE {family} {kind}")
        for machine, value in rows:
            labels = (f'machine="{_prom_label_value(machine)}",'
                      f'layer="{_prom_label_value(layer)}"')
            if kind == "counter":
                lines.append(f"{family}_total{{{labels}}} {value}")
            elif kind == "gauge":
                lines.append(f"{family}{{{labels}}} {value}")
            else:
                cumulative = 0
                for b, n in value.bins.items():
                    cumulative += n
                    le = _bin_upper(b)
                    lines.append(
                        f'{family}_bucket{{{labels},le="{le}"}} '
                        f"{cumulative}")
                lines.append(f'{family}_bucket{{{labels},le="+Inf"}} '
                             f"{value.count}")
                lines.append(f"{family}_sum{{{labels}}} {value.sum}")
                lines.append(f"{family}_count{{{labels}}} {value.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_prom(hub: Telemetry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_prom_text(hub))


# -- Chrome trace-event format -------------------------------------------------

def _us(ns: int) -> float:
    """Trace-event timestamps are microseconds."""
    return ns / 1000.0


def to_chrome_trace(hub: Telemetry, monitor=None) -> Dict[str, Any]:
    """The hub as a trace-event dict.

    ``monitor`` (a :class:`~repro.obs.monitor.FleetMonitor`) adds its
    alert transitions as process-scoped instant events on a ``cluster``
    row, so SLO firings line up against spans in Perfetto.  Events are
    sorted by timestamp (stable on insertion order), so ``ts`` is
    monotone across the whole file.
    """
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    meta: List[Dict[str, Any]] = []

    def pid_of(machine: str) -> int:
        pid = pids.get(machine)
        if pid is None:
            pid = pids[machine] = len(pids) + 1
            meta.append({"ph": "M", "name": "process_name", "pid": pid,
                         "tid": 0, "args": {"name": machine}})
        return pid

    def tid_of(machine: str, layer: str) -> int:
        key = (machine, layer)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = sum(1 for k in tids if k[0] == machine) + 1
            meta.append({"ph": "M", "name": "thread_name",
                         "pid": pid_of(machine), "tid": tid,
                         "args": {"name": layer}})
        return tid

    body: List[Dict[str, Any]] = []

    by_id: Dict[int, Dict[str, Any]] = {}
    for span in hub.spans:
        sid = span.get("span_id")
        if sid is not None:
            by_id[sid] = span

    for span in hub.spans:
        machine, layer = span["machine"], span["layer"]
        args = dict(span["attributes"])
        if span.get("span_id") is not None:
            args["span_id"] = span["span_id"]
        if span.get("parent_id") is not None:
            args["parent_id"] = span["parent_id"]
        if span.get("trace_id") is not None:
            args["trace_id"] = span["trace_id"]
        body.append({
            "ph": "X", "name": span["name"], "cat": layer,
            "pid": pid_of(machine), "tid": tid_of(machine, layer),
            "ts": _us(span["start_ns"]),
            "dur": _us(span["end_ns"] - span["start_ns"]),
            "args": args,
        })
        parent = by_id.get(span.get("parent_id"))
        if parent is not None:
            # one parent→child arrow: an "s"/"f" pair sharing the
            # child's span id, its tail anchored inside the parent's
            # interval
            tail_ts = min(max(span["start_ns"], parent["start_ns"]),
                          parent["end_ns"])
            body.append({"ph": "s", "name": "causal", "cat": "flow",
                         "id": span["span_id"],
                         "pid": pid_of(parent["machine"]),
                         "tid": tid_of(parent["machine"],
                                       parent["layer"]),
                         "ts": _us(tail_ts)})
            body.append({"ph": "f", "name": "causal", "cat": "flow",
                         "bp": "e", "id": span["span_id"],
                         "pid": pid_of(machine),
                         "tid": tid_of(machine, layer),
                         "ts": _us(span["start_ns"])})

    for key in sorted(hub.series):
        machine, layer, name = key
        track = f"{layer}/{name}"
        for ts, value in hub.series[key].samples():
            body.append({
                "ph": "C", "name": track, "cat": layer,
                "pid": pid_of(machine), "tid": 0,
                "ts": _us(ts), "args": {name: value},
            })

    for event in hub.events:
        machine, layer = event["machine"], event["layer"]
        body.append({
            "ph": "i", "s": "t", "name": event["name"], "cat": layer,
            "pid": pid_of(machine), "tid": tid_of(machine, layer),
            "ts": _us(event["ts"]), "args": dict(event["attributes"]),
        })

    if monitor is not None:
        loc = {"pid": pid_of("cluster"),
               "tid": tid_of("cluster", "obs.monitor")}
        for alert in monitor.alerts:
            args = alert.to_dict()
            body.append({"ph": "i", "s": "p", "name": "alert.fired",
                         "cat": "obs.monitor",
                         "ts": _us(alert.fired_ns), "args": args,
                         **loc})
            if alert.cleared_ns is not None:
                body.append({"ph": "i", "s": "p",
                             "name": "alert.cleared",
                             "cat": "obs.monitor",
                             "ts": _us(alert.cleared_ns), "args": args,
                             **loc})

    body.sort(key=lambda e: e["ts"])
    return {"traceEvents": meta + body,
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs",
                          "clock_domain": "simulated-ns"}}


def to_chrome_trace_json(hub: Telemetry, monitor=None) -> str:
    return json.dumps(to_chrome_trace(hub, monitor=monitor),
                      sort_keys=True)


def write_chrome_trace(hub: Telemetry, path: str, monitor=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_chrome_trace_json(hub, monitor=monitor))
        fh.write("\n")
