"""The causal profiler: span trees, critical paths, flamegraphs.

The headline contract (ISSUE acceptance): profiling is a pure observer —
simulated end-to-end nanoseconds are bit-identical with the profiler on
or off — and an enabled run yields one rooted span tree covering the
platform, transfer, runtime/kernel and network layers whose critical
path partitions the run's end-to-end interval exactly.
"""

import json

import pytest

from repro.api import run
from repro.obs import (Telemetry, build_span_tree, critical_path,
                       critical_path_report, folded_stacks, parse_folded,
                       render_report, to_chrome_trace, trace_ids)
from repro.obs.profile import (SpanNode, attribute, normalize_name,
                               self_time_ns)

SCALE = 0.05


# -- synthetic trees -----------------------------------------------------------


def _node(layer, name, start, end, sid, parent=None, machine="m0"):
    return SpanNode(machine=machine, layer=layer, name=name, start_ns=start,
                    end_ns=end, span_id=sid, parent_id=parent,
                    trace_id="t")


def _tree():
    """root[0,100] -> a[10,40], b[30,80] -> c[50,60]."""
    root = _node("workflow", "wf", 0, 100, 1)
    a = _node("function", "map#1", 10, 40, 2, 1)
    b = _node("transfer", "send", 30, 80, 3, 1)
    c = _node("net.rpc", "rpc.write", 50, 60, 4, 3)
    root.children = [a, b]
    b.children = [c]
    return root


class TestNormalize:
    def test_instance_suffix_stripped(self):
        assert normalize_name("map#3") == "map"
        assert normalize_name("map#12~retry") == "map"

    def test_plain_names_untouched(self):
        assert normalize_name("rpc.write") == "rpc.write"
        assert normalize_name("shard#x") == "shard#x"


class TestCriticalPath:
    def test_segments_partition_root_exactly(self):
        segments = critical_path(_tree())
        assert sum(s.duration_ns for s in segments) == 100
        # contiguous, in time order, no overlap
        cursor = 0
        for seg in segments:
            assert seg.start_ns == cursor
            cursor = seg.end_ns
        assert cursor == 100

    def test_deepest_covering_span_owns_each_instant(self):
        by_frame = {}
        for seg in critical_path(_tree()):
            key = (seg.node.layer, normalize_name(seg.node.name))
            by_frame[key] = by_frame.get(key, 0) + seg.duration_ns
        # root owns [0,10) and [80,100); a owns [10,30) (b covers the
        # rest of a's interval and ends later); b owns [30,50)+[60,80);
        # c owns [50,60).
        assert by_frame == {("workflow", "wf"): 30,
                            ("function", "map"): 20,
                            ("transfer", "send"): 40,
                            ("net.rpc", "rpc.write"): 10}

    def test_leaf_root_is_one_segment(self):
        segments = critical_path(_node("workflow", "wf", 5, 25, 1))
        assert len(segments) == 1
        assert (segments[0].start_ns, segments[0].end_ns) == (5, 25)


class TestAttribution:
    def test_self_time_subtracts_child_union(self):
        root = _tree()
        assert self_time_ns(root) == 100 - 70  # children cover [10,80)
        b = root.children[1]
        assert self_time_ns(b) == 50 - 10

    def test_rows_ranked_by_self_time(self):
        rows = attribute(_tree())
        assert [r["self_ns"] for r in rows] == \
            sorted((r["self_ns"] for r in rows), reverse=True)
        # a and b overlap on [30,40): parallel work double-counts in
        # attribution (each span's own self time), unlike the critical
        # path, which partitions the root exactly
        assert sum(r["self_ns"] for r in rows) == 110


class TestFolded:
    def test_round_trips_through_parse(self):
        text = folded_stacks(_tree())
        stacks = parse_folded(text)
        assert stacks[("workflow/wf",)] == 30
        assert stacks[("workflow/wf", "function/map")] == 30
        assert stacks[("workflow/wf", "transfer/send")] == 40
        assert stacks[("workflow/wf", "transfer/send",
                       "net.rpc/rpc.write")] == 10
        assert sum(stacks.values()) == 110  # [30,40) overlap twice

    def test_sibling_instances_fold_into_one_frame(self):
        root = _node("workflow", "wf", 0, 100, 1)
        root.children = [_node("function", "map#1", 0, 30, 2, 1),
                         _node("function", "map#2", 40, 70, 3, 1)]
        stacks = parse_folded(folded_stacks(root))
        assert stacks[("workflow/wf", "function/map")] == 60

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_folded("no-value-here\n")

    def test_base_flamegraph_of_a_hub_without_traces_is_empty(self):
        from repro.api import BaseRunResult

        class _Result(BaseRunResult):
            def __init__(self, hub):
                self.telemetry = hub

        assert _Result(Telemetry()).flamegraph() == ""


class TestBuildSpanTree:
    def test_orphan_inside_primary_adopted(self):
        hub = Telemetry()
        rid = hub.span("m0", "workflow", "wf", 0, 100, trace_id="t")
        hub.span("m0", "function", "f", 10, 20, parent_id=rid,
                 trace_id="t")
        hub.span("m1", "transfer", "stray", 30, 40, parent_id=999,
                 trace_id="t")  # parent never recorded
        root = build_span_tree(hub, trace_id="t")
        assert {c.name for c in root.children} == {"f", "stray"}

    def test_other_traces_filtered_out(self):
        hub = Telemetry()
        hub.span("m0", "workflow", "wf", 0, 100, trace_id="t")
        hub.span("m0", "workflow", "prewarm", 0, 500, trace_id="warm")
        root = build_span_tree(hub, trace_id="t")
        assert root.name == "wf" and root.duration_ns == 100
        assert trace_ids(hub) == ["t", "warm"]

    def test_ambiguous_trace_requires_explicit_id(self):
        hub = Telemetry()
        hub.span("m0", "workflow", "a", 0, 1, trace_id="t1")
        hub.span("m0", "workflow", "b", 0, 1, trace_id="t2")
        with pytest.raises(ValueError, match="multiple traces"):
            build_span_tree(hub)

    def test_empty_hub_rejected(self):
        with pytest.raises(ValueError, match="no causal spans"):
            build_span_tree(Telemetry())


class TestSamplingDiagnostic:
    def test_empty_hub_keeps_the_plain_no_spans_message(self):
        # every span is stored, so an empty hub means telemetry was off:
        # the message points at that and names no sampling knob
        with pytest.raises(ValueError, match="no causal spans") as err:
            build_span_tree(Telemetry())
        assert "telemetry=True" in str(err.value)
        assert "span_sample_every" not in str(err.value)
        assert "pin_trace" not in str(err.value)


# -- end-to-end: the paired purity + coverage contract -------------------------


@pytest.fixture(scope="module", params=["messaging", "rmmap-prefetch"])
def paired(request):
    """One WordCount run per transport, with and without the profiler."""
    bare = run("wordcount", transport=request.param, seed=0, scale=SCALE)
    profiled = run("wordcount", transport=request.param, seed=0, scale=SCALE,
                   telemetry=True)
    return request.param, bare, profiled


class TestEndToEnd:
    def test_profiler_is_a_pure_observer(self, paired):
        _, bare, profiled = paired
        assert profiled.latency_ns == bare.latency_ns
        assert profiled.stage_totals() == bare.stage_totals()

    def test_rooted_tree_covers_at_least_six_layers(self, paired):
        transport, _, profiled = paired
        root = profiled.span_tree()
        assert root.layer == "workflow"
        layers = {n.layer for n in root.walk()}
        assert len(layers) >= 6, layers
        assert {"workflow", "platform", "function", "transfer"} <= layers
        if transport == "messaging":
            assert {"runtime", "net.msg"} <= layers
        else:
            assert {"kernel", "net.rpc", "net.rdma"} <= layers

    def test_critical_path_sums_to_end_to_end_time(self, paired):
        _, _, profiled = paired
        report = profiled.critical_path()
        assert report["total_ns"] == profiled.latency_ns
        assert report["path"], "critical path is empty"
        assert sum(seg["duration_ns"] for seg in report["path"]) \
            == profiled.latency_ns
        assert sum(b["path_ns"] for b in report["bottlenecks"]) \
            == profiled.latency_ns
        assert report["trace_id"] == profiled.trace_id

    def test_flamegraph_loads_and_is_rooted(self, paired):
        _, _, profiled = paired
        stacks = parse_folded(profiled.flamegraph())
        assert stacks
        assert all(stack[0] == "workflow/wordcount" for stack in stacks)
        # self times cover at least the whole run (parallel instances
        # can push the total past wall time, never under it)
        assert sum(stacks.values()) >= profiled.latency_ns

    def test_render_report_mentions_top_bottleneck(self, paired):
        _, _, profiled = paired
        report = profiled.critical_path()
        text = render_report(report)
        top = report["bottlenecks"][0]
        assert f"{top['layer']}/{top['name']}" in text

    def test_same_seed_runs_are_byte_identical(self, paired):
        transport, _, profiled = paired
        again = run("wordcount", transport=transport, seed=0, scale=SCALE,
                    telemetry=True)
        assert again.flamegraph() == profiled.flamegraph()
        assert json.dumps(again.critical_path(), sort_keys=True) \
            == json.dumps(profiled.critical_path(), sort_keys=True)

    def test_chrome_export_carries_flow_arrows(self, paired):
        _, _, profiled = paired
        trace = to_chrome_trace(profiled.telemetry)
        flows = [e for e in trace["traceEvents"]
                 if e.get("cat") == "flow"]
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts and starts == finishes
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"
                 and e.get("args", {}).get("parent_id") is not None]
        assert spans, "no parented spans in export"


class TestDeterministicSnapshotAudit:
    def test_deterministic_snapshot_excludes_wall_metrics(self):
        result = run("wordcount", transport="rmmap-prefetch", seed=0, scale=SCALE,
                     telemetry=True)
        snap = result.telemetry.snapshot()
        names = {row["name"]
                 for section in ("counters", "gauges", "histograms")
                 for row in snap[section]}
        # no layer reads the host clock into the hub (perfbench owns
        # host time), so a snapshot needs no filtering to be replayable
        assert names
        assert not any(n.startswith("wall.") for n in names)
