"""Tests for the KPA-style autoscaler and the coordinator's hub spans."""

from repro.obs import Telemetry, capture, render_gantt
from repro.platform.cluster import ServerlessPlatform
from repro.transfer import MessagingTransport

from .test_execution import make_fanout_workflow, make_linear_workflow


def platform_spans(hub, prefix=""):
    return [s for s in hub.spans if s["layer"] == "platform"
            and "#" in s["name"] and s["name"].startswith(prefix)]


def traced_linear_run(n=50):
    hub = Telemetry()
    with capture(hub):
        platform = ServerlessPlatform(n_machines=2)
        platform.deploy(make_linear_workflow(), MessagingTransport())
        record = platform.run_once("linear", {"n": n})
    return hub, record


# --- hub spans emitted by the coordinator ----------------------------------------

def test_span_lifecycle():
    """One ``platform/<wf>#<id>`` span per invocation, over exactly the
    record's interval."""
    hub, record = traced_linear_run()
    inv_spans = platform_spans(hub, "linear#")
    assert [s["name"] for s in inv_spans] == ["linear#0"]
    assert inv_spans[0]["start_ns"] == record.start_ns
    assert inv_spans[0]["end_ns"] - inv_spans[0]["start_ns"] \
        == record.latency_ns


def test_disabled_tracer_is_noop():
    """Without a hub installed the run records nothing anywhere."""
    platform = ServerlessPlatform(n_machines=2)
    platform.deploy(make_linear_workflow(), MessagingTransport())
    assert platform.run_once("linear", {"n": 10}).latency_ns > 0
    assert render_gantt(Telemetry()) == "(no spans)"


def test_by_name_prefix_filter():
    """One ``platform/<fn>#<i>`` span per function instance, carrying
    the ``cold`` attribute: the first invocation boots every container,
    the second reuses them."""
    hub = Telemetry()
    with capture(hub):
        platform = ServerlessPlatform(n_machines=4)
        platform.deploy(make_fanout_workflow(width=4),
                        MessagingTransport())
        platform.run_once("fanout", {"n": 64})
        platform.run_once("fanout", {"n": 64})
    for request_id, cold in ((0, True), (1, False)):
        workers = [s for s in platform_spans(hub, "worker#")
                   if s["attributes"]["request_id"] == request_id]
        assert sorted(s["name"] for s in workers) \
            == [f"worker#{i}" for i in range(4)]
        assert all(s["attributes"]["cold"] is cold for s in workers)


def test_render_gantt_shape():
    hub = Telemetry()
    hub.span("mac0", "platform", "first#0", 0, 500)
    hub.span("mac1", "platform", "second#0", 250, 1000, trace_id="t")
    hub.span("mac1", "platform", "schedule", 250, 300)
    chart = render_gantt(hub, width=20)
    lines = chart.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("first#0")
    assert "#" in lines[0].split("|")[1]
    only = render_gantt(hub, trace_id="t", width=20)
    assert only.splitlines()[0].startswith("second#0")
    assert len(only.splitlines()) == 1
    assert render_gantt(Telemetry()) == "(no spans)"


# --- spans integrated with the platform ------------------------------------------------

def test_platform_tracing_captures_function_spans():
    hub, record = traced_linear_run()
    inv_span, = platform_spans(hub, "linear#")
    fn_spans = [s for s in platform_spans(hub)
                if s["parent_id"] == inv_span["span_id"]]
    assert {s["name"].split("#")[0] for s in fn_spans} == \
        {"produce", "square", "total"}
    assert len(fn_spans) == len(record.functions)
    # function spans nest within the invocation span
    for s in fn_spans:
        assert inv_span["start_ns"] <= s["start_ns"]
        assert s["end_ns"] <= inv_span["end_ns"]
        assert s["trace_id"] == inv_span["trace_id"]
    chart = render_gantt(hub)
    assert chart.splitlines()[0].startswith("linear#0")
    assert "#" in chart.split("|")[1]


def test_tracing_enabled_after_deploy_applies():
    """The hub is ambient: one installed after deploy still sees the
    coordinator's spans."""
    platform = ServerlessPlatform(n_machines=2)
    platform.deploy(make_linear_workflow(), MessagingTransport())
    with capture() as hub:
        platform.run_once("linear", {"n": 10})
    assert platform_spans(hub, "linear#")


# --- autoscaler -----------------------------------------------------------------------

def test_autoscaler_provisions_under_load():
    platform = ServerlessPlatform(n_machines=4)
    platform.deploy(make_fanout_workflow(width=4), MessagingTransport())
    scaler = platform.enable_autoscaler("fanout")
    platform.run_closed_loop("fanout", clients=3, requests_per_client=3,
                             params={"n": 64})
    assert scaler.provisioned > 0


def test_autoscaler_reduces_cold_starts_for_bursts():
    def run(with_scaler):
        platform = ServerlessPlatform(n_machines=4)
        platform.deploy(make_fanout_workflow(width=4),
                        MessagingTransport())
        if with_scaler:
            platform.enable_autoscaler("fanout")
        platform.run_closed_loop("fanout", clients=4,
                                 requests_per_client=4,
                                 params={"n": 64})
        return platform.scheduler.cold_starts

    assert run(True) <= run(False)


def test_autoscaler_scales_down_after_idle():
    from repro.sim import Timeout
    from repro.units import seconds

    platform = ServerlessPlatform(n_machines=4)
    platform.deploy(make_linear_workflow(), MessagingTransport())
    scaler = platform.enable_autoscaler("linear")
    platform.run_once("linear", {"n": 10})
    alive_before = platform.scheduler.containers_alive()
    assert alive_before > 0

    def idle_period():
        yield Timeout(seconds(10))

    platform.engine.run_process(idle_period())
    assert scaler.reap() > 0
    assert platform.scheduler.containers_alive() < alive_before


def test_autoscaler_detach_stops_observing():
    platform = ServerlessPlatform(n_machines=2)
    platform.deploy(make_linear_workflow(), MessagingTransport())
    scaler = platform.enable_autoscaler("linear")
    platform.run_once("linear", {"n": 5})
    provisioned = scaler.provisioned
    platform.stop_autoscalers()
    platform.run_once("linear", {"n": 5})
    assert scaler.provisioned == provisioned  # detached: no reaction
    assert not platform.scheduler.listeners


def test_autoscaler_respects_width_bound(monkeypatch):
    from repro.platform import autoscaler
    monkeypatch.setattr(autoscaler, "HEADROOM", 5.0)
    platform = ServerlessPlatform(n_machines=4)
    platform.deploy(make_fanout_workflow(width=4), MessagingTransport())
    platform.enable_autoscaler("fanout")
    platform.run_closed_loop("fanout", clients=2, requests_per_client=2,
                             params={"n": 64})
    # even with absurd headroom, per-type containers never exceed width
    for fn, spec_width in (("partition", 1), ("worker", 4), ("merge", 1)):
        alive = sum(len(p) for k, p in platform.scheduler._pool.items()
                    if k[1] == fn)
        # pools can hold one container per slot, plus concurrency clones
        assert alive <= spec_width * 3, (fn, alive)
