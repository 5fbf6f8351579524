"""repro.obs — cross-layer telemetry behind one hub.

Counters, gauges, quantile sketches, structured events and spans from
every layer of the simulated stack (engine, memory, RDMA/RPC, kernel,
platform, chaos), keyed by ``(machine, layer, name)``, at zero simulated
cost.  Exporters serialize a hub to JSON, CSV, or Chrome trace-event
format (loadable in Perfetto).  On top of the hub sit the
fleet monitor (:mod:`repro.obs.monitor` — windowed percentile sketches,
per-tenant series, SLO burn-rate alerting in simulated time) and the
run differ (:mod:`repro.obs.diff` — ranked root-cause reports between
two runs or bench snapshots).

Quick use::

    from repro import obs

    with obs.capture() as hub:
        result = repro.api.run("wordcount", transport="rmmap", seed=1)
    obs.write_chrome_trace(hub, "trace.json")

See ``docs/observability.md`` for the metric naming scheme.
"""

from repro.obs.telemetry import (MetricKey, PercentileSketch,
                                 SKETCH_RELATIVE_ERROR, Telemetry, capture,
                                 current, install, uninstall)
from repro.obs.export import (to_chrome_trace, to_chrome_trace_json,
                              to_csv, to_json, to_prom_text,
                              write_chrome_trace, write_csv, write_json,
                              write_prom)
from repro.obs.lineage import LINEAGE_SCHEMA, LineageTracker
from repro.obs.profile import (PathSegment, SpanNode, attribute,
                               build_span_tree, critical_path,
                               critical_path_report, folded_stacks,
                               parse_folded, render_gantt, render_report,
                               trace_ids)
from repro.obs.rollup import (TRANSFER_LAYER, rollup_ledger,
                              rollup_record)
from repro.obs.monitor import (Alert, ExemplarReservoir, FleetMonitor,
                               MONITOR_LAYER, WindowedCounter,
                               WindowedSketch)
from repro.obs.slo import DEFAULT_SLOS, SLO
from repro.obs.diff import (diff_snapshot_paths, diff_snapshots,
                            diff_traces, render_diff)
from repro.obs.timeline import Timeline
from repro.obs.triage import (AlertContext, DEFAULT_SATURATION_SPECS,
                              SaturationSpec, render_triage,
                              triage_alert, triage_report)
