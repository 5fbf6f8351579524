"""Exporter tests: JSON/CSV well-formedness and the Chrome trace format."""

import csv
import io
import json
import re

import pytest

from repro.api import run
from repro.bench.microbench import make_pair, measure_transfer
from repro.obs import (Telemetry, capture, to_chrome_trace,
                       to_chrome_trace_json, to_csv, to_json,
                       to_prom_text, write_prom)
from repro.transfer import get_transport
from repro.workloads.data import make_trades


@pytest.fixture()
def instrumented_transfer():
    """One rmmap transfer measured with a hub installed."""
    hub = Telemetry()
    with capture(hub):
        _engine, producer, consumer = make_pair()
        result = measure_transfer(get_transport("rmmap-prefetch"),
                                  producer, consumer,
                                  make_trades(n_rows=500))
    return hub, result


def test_transfer_touches_at_least_four_layers(instrumented_transfer):
    hub, _ = instrumented_transfer
    layers = set(hub.layers())
    assert {"mem", "net.rdma", "net.rpc", "kernel"} <= layers


def test_json_export_parses(instrumented_transfer):
    hub, _ = instrumented_transfer
    doc = json.loads(to_json(hub))
    assert doc["counters"]
    names = {c["name"] for c in doc["counters"]}
    assert "reads" in names or "bytes" in names


def test_csv_export_parses(instrumented_transfer):
    hub, _ = instrumented_transfer
    rows = list(csv.reader(io.StringIO(to_csv(hub))))
    assert rows[0] == ["kind", "machine", "layer", "name", "field",
                       "value"]
    kinds = {r[0] for r in rows[1:]}
    assert "counter" in kinds
    # histogram rows expand into summary fields
    hist_fields = {r[4] for r in rows[1:] if r[0] == "histogram"}
    if hist_fields:
        assert {"count", "sum", "p50", "p99"} <= hist_fields


def test_chrome_trace_valid_json_and_monotone(instrumented_transfer):
    hub, _ = instrumented_transfer
    trace = json.loads(to_chrome_trace_json(hub))
    events = trace["traceEvents"]
    assert events
    body_ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert body_ts == sorted(body_ts)
    cats = {e.get("cat") for e in events if e.get("cat")}
    assert len(cats) >= 4
    assert {"mem", "net.rdma", "net.rpc", "kernel"} <= cats


def test_chrome_trace_has_each_platform_interval_once():
    """A traced run exports every invocation and function-instance
    interval exactly once, all on hub rows (no second span source)."""
    result = run("wordcount", transport="rmmap", scale=0.02,
                 telemetry=True)
    trace = to_chrome_trace(result.telemetry)
    cats = {e.get("cat") for e in trace["traceEvents"]}
    assert "platform.trace" not in cats
    intervals = [(e["name"], e["args"]["trace_id"])
                 for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "platform"
                 and "#" in e["name"]]
    assert len(intervals) == len(set(intervals))
    record = result.record
    measured = [name for name, tid in intervals
                if tid.startswith(f"wordcount#{record.request_id}@")]
    assert sorted(measured) == sorted(
        [f"wordcount#{record.request_id}"]
        + [f"{f.function}#{f.index}" for f in record.functions])


def test_chrome_counter_track_ends_on_the_final_value():
    """A counter updated an odd number of times, past what a decimated
    series kept whole, still ends its track on its final value."""
    class Clock:
        now = 0

    hub, clock = Telemetry(), Clock()
    hub.attach_clock(clock)
    for i in range(1001):
        clock.now = i * 250_000
        hub.count("m0", "fleet.shard", "admitted")
    track = [e for e in to_chrome_trace(hub)["traceEvents"]
             if e["ph"] == "C"]
    assert track[-1]["args"] == {"admitted": 1001}
    assert track[-1]["ts"] == 1000 * 250_000 / 1000.0


def test_chrome_tracks_end_on_the_final_value_across_engines():
    """Two runs on one hub follow two engines whose clocks both start at
    0; the slower first run's updates outlast the second's in simulated
    time, yet every track's last sample is still the final value."""
    hub = Telemetry()
    for transport in ("messaging", "rmmap-prefetch"):
        run("wordcount", transport=transport, scale=0.02, telemetry=hub)
    events = to_chrome_trace(hub)["traceEvents"]
    machine_of = {e["pid"]: e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "process_name"}
    last = {(machine_of[e["pid"]], e["name"]): e["args"]
            for e in events if e["ph"] == "C"}
    final = {**hub.counters, **hub.gauges}
    assert last == {(m, f"{lyr}/{n}"): {n: final[m, lyr, n]}
                    for m, lyr, n in hub.series}


def test_chrome_trace_has_process_metadata(instrumented_transfer):
    hub, _ = instrumented_transfer
    trace = to_chrome_trace(hub)
    proc_names = {e["args"]["name"] for e in trace["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "process_name"}
    assert any(name.startswith("mac") for name in proc_names)


# -- Prometheus / OpenMetrics text ---------------------------------------------


_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def test_prom_text_well_formed(instrumented_transfer):
    hub, _ = instrumented_transfer
    text = to_prom_text(hub)
    assert text.endswith("# EOF\n")
    families = set()
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            _, _, family, kind = line.split()
            assert kind in ("counter", "gauge", "histogram")
            assert family not in families  # one TYPE line per family
            assert _PROM_NAME.match(family)
            families.add(family)
        elif line and not line.startswith("#"):
            assert _PROM_NAME.match(line.split("{", 1)[0])
    assert any(f.startswith("repro_kernel") for f in families)


def test_prom_counter_samples_carry_total_suffix_and_labels(
        instrumented_transfer):
    hub, _ = instrumented_transfer
    text = to_prom_text(hub)
    samples = [ln for ln in text.splitlines()
               if ln.startswith("repro_net_rdma_bytes_total{")]
    assert samples
    for line in samples:
        assert 'layer="net.rdma"' in line
        assert 'machine="' in line


def test_prom_name_and_label_sanitization():
    hub = Telemetry()
    hub.count('shard "a"\nb\\c', "net.rdma", "bytes-sent.9total", 5)
    text = to_prom_text(hub)
    # dots / dashes fold to underscores, digits survive mid-name
    assert "repro_net_rdma_bytes_sent_9total_total{" in text
    # quote, newline and backslash escaped per the exposition format
    assert r'machine="shard \"a\"\nb\\c"' in text


def test_prom_histogram_buckets_are_cumulative():
    hub = Telemetry()
    for value in (1, 2, 3, 100, 5000):
        hub.observe("m0", "net.rdma", "lat", value)
    text = to_prom_text(hub)
    buckets = [ln for ln in text.splitlines()
               if ln.startswith("repro_net_rdma_lat_bucket")]
    counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
    assert counts == sorted(counts)
    assert counts[-1] == 5
    assert 'le="+Inf"' in buckets[-1]
    assert "repro_net_rdma_lat_sum" in text
    assert "repro_net_rdma_lat_count" in text


def test_write_prom_round_trips(tmp_path, instrumented_transfer):
    hub, _ = instrumented_transfer
    path = tmp_path / "metrics.prom"
    write_prom(hub, str(path))
    assert path.read_text(encoding="utf-8") == to_prom_text(hub)
