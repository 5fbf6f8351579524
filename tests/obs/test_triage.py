"""Exemplar capture + auto-triage (repro.obs.monitor/triage)."""

import json

import pytest

from repro.api import run_fleet
from repro.fleet import smoke_spec
from repro.obs import (ExemplarReservoir, PercentileSketch, Telemetry,
                       build_span_tree, render_triage, to_chrome_trace)

FAIL_AT_NS = 3_000_000_000


def _chaos_spec(seed=0):
    spec = smoke_spec(seed=seed)
    spec.shard_failures.append((3.0, "shard-1"))
    return spec


@pytest.fixture(scope="module")
def chaos_result():
    return run_fleet(_chaos_spec())


@pytest.fixture(scope="module")
def chaos_report(chaos_result):
    return chaos_result.triage()


# -- exemplar reservoir --------------------------------------------------------


def test_reservoir_keeps_worst_k():
    lifetime = PercentileSketch()
    res = ExemplarReservoir(window_ns=1000)
    for i, lat in enumerate([10, 50, 30, 90, 20]):
        lifetime.record(lat)
        res.record(i, lat, f"t{i}", lifetime)
    worst = res.worst(5)
    assert [e["latency_ns"] for e in worst] == [90, 50, 30]
    assert [e["trace_id"] for e in worst] == ["t3", "t1", "t2"]


def test_reservoir_median_band_tracks_p50():
    lifetime = PercentileSketch()
    res = ExemplarReservoir(window_ns=1000)
    for i, lat in enumerate([100, 100, 100, 100, 101, 500]):
        lifetime.record(lat)
        res.record(i, lat, f"t{i}", lifetime)
    median = res.median(6)
    assert median is not None
    assert median["latency_ns"] in (100, 101)  # inside the p50 band
    # the outlier never becomes the median exemplar
    assert median["trace_id"] != "t5"


def test_reservoir_failures_and_eviction():
    lifetime = PercentileSketch()
    res = ExemplarReservoir(window_ns=100)
    res.note_failure(10, "f0")
    res.record(20, 5, "ok0", lifetime)
    assert [e["trace_id"] for e in res.failed(20)] == ["f0"]
    # far future: the whole window evicted
    assert res.failed(10_000) == []
    assert res.worst(10_000) == []
    assert res.median(10_000) is None


# -- triage on the seeded chaos fleet ------------------------------------------


def test_alerts_fire_and_fault_evidence_ranks_first(chaos_report):
    assert chaos_report["schema_version"] == 1
    assert chaos_report["alert_count"] >= 1
    covering = [ctx for ctx in chaos_report["alerts"]
                if ctx["window_start_ns"] <= FAIL_AT_NS
                <= ctx["window_end_ns"]]
    assert covering, "no alert window covers the injected shard death"
    for ctx in covering:
        top = ctx["evidence"][0]
        assert top["kind"] == "fault"
        assert top["machine"] == "shard-1"
        assert any(f["machine"] == "shard-1" for f in ctx["faults"])


def test_triage_gathers_exemplars_and_critical_path(chaos_report):
    ctx = chaos_report["alerts"][0]
    exemplars = ctx["exemplars"]
    assert exemplars["worst"], "worst-k exemplars missing"
    # worst list is sorted slowest-first
    lats = [e["latency_ns"] for e in exemplars["worst"]]
    assert lats == sorted(lats, reverse=True)
    assert ctx["critical_path"]["trace_id"] == \
        exemplars["worst"][0]["trace_id"]
    assert ctx["critical_path"]["bottlenecks"]
    if ctx["diff"] is not None:
        assert ctx["diff"]["kind"] == "trace"
        assert len(ctx["diff"]["rows"]) <= 8


def test_every_alert_worst_exemplar_has_its_complete_span_tree(
        chaos_result, chaos_report):
    hub = chaos_result.telemetry
    checked = 0
    for ctx in chaos_report["alerts"]:
        exemplars = ctx["exemplars"]
        if not exemplars or not exemplars["worst"]:
            continue
        worst = exemplars["worst"][0]
        tree = build_span_tree(hub, worst["trace_id"])
        names = {node.name for node in tree.walk()}
        # the complete fleet invocation tree: root + service, and
        # queue.wait whenever the invocation waited
        assert tree.name == "invocation"
        assert tree.duration_ns == worst["latency_ns"]
        assert "service" in names
        service = next(n for n in tree.walk() if n.name == "service")
        waited = service.start_ns > tree.start_ns
        assert ("queue.wait" in names) == waited
        checked += 1
    assert checked == chaos_report["alert_count"]


def test_caller_supplied_hub_gets_the_same_saturation_evidence():
    default = run_fleet(smoke=True).triage()
    shared = run_fleet(smoke=True, telemetry=True).triage()
    assert shared["alert_count"] == default["alert_count"] > 0
    saturation = [ctx["saturation"] for ctx in default["alerts"]]
    assert any(saturation), "the default run found no saturation"
    assert [ctx["saturation"] for ctx in shared["alerts"]] == saturation


def test_triage_report_byte_identical_at_fixed_seed():
    a = json.dumps(run_fleet(_chaos_spec()).triage(), sort_keys=True)
    b = json.dumps(run_fleet(_chaos_spec()).triage(), sort_keys=True)
    assert a == b


def test_triage_report_differs_across_seeds(chaos_report):
    other = run_fleet(_chaos_spec(seed=7)).triage()
    assert json.dumps(other, sort_keys=True) != \
        json.dumps(chaos_report, sort_keys=True)


def test_triage_report_is_json_ready_and_renders(chaos_report):
    json.dumps(chaos_report)
    text = render_triage(chaos_report)
    assert "ranked evidence" in text
    assert "shard-1" in text


def test_triage_requires_a_monitor():
    from repro.api import RunResult

    result = RunResult(workload="w", transport="t", seed=0,
                       telemetry=Telemetry())
    with pytest.raises(ValueError, match="monitor"):
        result.triage()


def test_empty_report_renders_without_alerts():
    from repro.obs import FleetMonitor, triage_report

    hub = Telemetry()
    monitor = FleetMonitor().attach(hub)
    report = triage_report(hub, monitor)
    assert report["alert_count"] == 0
    assert "no alerts" in render_triage(report)


# -- satellite: chrome-trace alert instants ------------------------------------


def test_chrome_trace_embeds_alert_instants(chaos_result):
    trace = to_chrome_trace(chaos_result.telemetry,
                            monitor=chaos_result.monitor)
    # monitor-sourced instants are process-scoped ("s": "p"), distinct
    # from the hub's own mirrored alert events ("s": "t"); they are
    # complete even when the hub event cap drops the mirrored copies
    fired = [e for e in trace["traceEvents"]
             if e.get("name") == "alert.fired" and e["ph"] == "i"
             and e.get("s") == "p" and e.get("cat") == "obs.monitor"]
    assert len(fired) == len(chaos_result.monitor.alerts)
    cleared = [e for e in trace["traceEvents"]
               if e.get("name") == "alert.cleared" and e.get("s") == "p"]
    assert len(cleared) == sum(
        1 for a in chaos_result.monitor.alerts
        if a.cleared_ns is not None)
    body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    ts = [e["ts"] for e in body]
    assert ts == sorted(ts), "alert instants broke ts monotonicity"


# -- satellite: CLI plumbing ---------------------------------------------------


def test_cli_fleet_triage_out(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "triage.json"
    rc = main(["fleet", "--smoke", "--seed", "0",
               "--fail-shard", "shard-1@3.0",
               "--triage-out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["alert_count"] >= 1
    assert any(
        ctx["evidence"] and ctx["evidence"][0]["machine"] == "shard-1"
        for ctx in report["alerts"])
    rendered = (tmp_path / "triage.json.txt").read_text()
    assert "ranked evidence" in rendered
    capsys.readouterr()


def test_cli_triage_command(tmp_path, capsys):
    from repro.cli import main

    rc = main(["triage", "--smoke", "--seed", "0",
               "--fail-shard", "shard-1@3.0"])
    assert rc == 0
    assert "shard-1" in capsys.readouterr().out
