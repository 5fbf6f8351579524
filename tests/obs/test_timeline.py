"""Bounded, coalescing saturation timelines (repro.obs.timeline)."""

from repro.obs.timeline import Timeline, TimelineRecorder


def test_basic_bucket_aggregates():
    tl = Timeline(bucket_ns=100, max_buckets=16)
    tl.record(10, 5)
    tl.record(20, 9)
    tl.record(150, 2)
    stats = tl.stats_between(0, 99)
    assert stats == {"min": 5, "max": 9, "sum": 14, "count": 2,
                     "last": 9}
    assert tl.peak == 9 and tl.low == 2
    assert tl.first_ts == 10 and tl.last_ts == 150 and tl.last == 2
    assert tl.stats_between(500, 900) is None


def test_coalescing_doubles_bucket_width_and_keeps_totals():
    tl = Timeline(bucket_ns=10, max_buckets=4)
    for i in range(16):
        tl.record(i * 10, i)
    assert tl.bucket_ns > 10  # coalesced at least once
    assert tl.count == 16
    stats = tl.stats_between(0, 10_000)
    assert stats["count"] == 16
    assert stats["sum"] == sum(range(16))
    assert stats["min"] == 0 and stats["max"] == 15
    # bucket count respects the cap after coalescing
    assert len(tl.points()) <= 4


def test_value_at_and_delta_between():
    tl = Timeline(bucket_ns=100, max_buckets=16)
    tl.record(50, 3)
    tl.record(250, 10)
    tl.record(450, 12)
    assert tl.value_at(40) == 3  # bucket-granular: bucket 0 starts at 0
    assert tl.value_at(99) == 3
    assert tl.value_at(300) == 10
    assert tl.value_at(1000) == 12
    # monotone delta across a window
    assert tl.delta_between(99, 1000) == 9
    # series born inside the window baselines at zero
    assert tl.delta_between(-1000, -500) == 0
    fresh = Timeline(bucket_ns=100)
    fresh.record(500, 7)
    assert fresh.delta_between(0, 1000) == 7


def test_determinism_same_stream_same_dump():
    def build():
        tl = Timeline(bucket_ns=7, max_buckets=8)
        for i in range(100):
            tl.record(i * 13, (i * 37) % 50)
        return tl.to_dict()

    assert build() == build()


def test_recorder_routes_and_bounds_series():
    rec = TimelineRecorder(bucket_ns=100, max_buckets=8, max_series=2)
    rec.record(("m0", "fleet.shard", "queue.depth"), 10, 1)
    rec.record(("m0", "fleet.shard", "queue.depth"), 20, 2)
    rec.record(("m1", "fleet.shard", "queue.depth"), 10, 5)
    # third distinct series is dropped (bound), counted
    rec.record(("m2", "fleet.shard", "queue.depth"), 10, 9)
    assert rec.dropped_series == 1
    assert rec.get("m0", "fleet.shard", "queue.depth").count == 2
    assert rec.get("m2", "fleet.shard", "queue.depth") is None


def test_recorder_snapshot_is_sorted_and_json_ready():
    import json

    rec = TimelineRecorder(bucket_ns=100)
    rec.record(("b", "layer", "x"), 10, 1)
    rec.record(("a", "layer", "x"), 10, 2)
    snap = rec.snapshot()
    assert [s["machine"] for s in snap["series"]] == ["a", "b"]
    json.dumps(snap)  # must serialize


def test_hub_feeds_timelines_when_enabled():
    from repro.obs import Telemetry

    hub = Telemetry()
    hub.count("m", "layer", "ops")  # before enabling: not recorded
    recorder = hub.enable_timelines()
    assert hub.enable_timelines() is recorder  # idempotent
    hub.count("m", "layer", "ops")
    hub.gauge("m", "layer", "depth", 4)
    assert recorder.get("m", "layer", "ops").last == 2  # running total
    assert recorder.get("m", "layer", "depth").last == 4
    hub.clear()
    # clear() empties but keeps the recorder attached
    assert hub.timelines is recorder and recorder.keys() == []
