"""Bounded, coalescing counter/gauge series (repro.obs.timeline)."""

from repro.obs.timeline import BUCKET_NS, MAX_BUCKETS, Timeline

B = BUCKET_NS


def test_basic_bucket_aggregates():
    tl = Timeline()
    tl.record(10, 5)
    tl.record(20, 9)
    tl.record(B + 50, 2)
    assert tl.stats_between(0, B - 1) == {"min": 5, "max": 9}
    assert tl.peak == 9 and tl.last == 2
    assert tl.samples() == [(20, 9), (B + 50, 2)]
    assert tl.stats_between(5 * B, 9 * B) is None


def test_coalescing_doubles_bucket_width_and_keeps_totals():
    tl = Timeline()
    n = 4 * MAX_BUCKETS
    for i in range(n):
        tl.record(i * B, i)
    assert tl.bucket_ns == 4 * B  # coalesced twice
    # bucket count respects the cap after coalescing
    assert len(tl.samples()) == MAX_BUCKETS
    assert tl.stats_between(0, n * B) == {"min": 0, "max": n - 1}
    # each coalesced bucket keeps its latest update, so the series ends
    # on the final value
    assert tl.samples()[:2] == [(3 * B, 3), (7 * B, 7)]
    assert tl.samples()[-1] == ((n - 1) * B, n - 1)
    assert tl.peak == n - 1 and tl.last == n - 1


def test_samples_end_on_the_final_value_after_a_clock_restart():
    """A second engine's clock starts again at 0: its updates land in
    earlier buckets, and the final value is repeated at the latest
    bucket's timestamp."""
    tl = Timeline()
    tl.record(5 * B, 4)
    tl.record(B, 6)
    assert tl.samples() == [(B, 6), (5 * B, 4), (5 * B, 6)]
    tl.record(7 * B, 6)
    assert tl.samples() == [(B, 6), (5 * B, 4), (7 * B, 6)]


def test_value_at_and_delta_between():
    tl = Timeline()
    tl.record(B // 2, 3)
    tl.record(5 * B // 2, 10)
    tl.record(9 * B // 2, 12)
    assert tl.value_at(B // 4) == 3  # bucket-granular: bucket 0 starts at 0
    assert tl.value_at(B - 1) == 3
    assert tl.value_at(3 * B) == 10
    assert tl.value_at(10 * B) == 12
    # monotone delta across a window
    assert tl.delta_between(B - 1, 10 * B) == 9
    # series born inside the window baselines at zero
    assert tl.delta_between(-10 * B, -5 * B) == 0
    fresh = Timeline()
    fresh.record(5 * B, 7)
    assert fresh.delta_between(0, 10 * B) == 7


def test_determinism_same_stream_same_dump():
    def build():
        tl = Timeline()
        for i in range(3 * MAX_BUCKETS):
            tl.record(i * 13 * B // 7, (i * 37) % 50)
        return tl.bucket_ns, tl.samples()

    assert build() == build()


def test_hub_feeds_a_series_per_counter_and_gauge():
    from repro.obs import Telemetry

    hub = Telemetry()
    hub.count("m", "layer", "ops")
    hub.count("m", "layer", "ops")
    hub.gauge("m", "layer", "depth", 4)
    hub.gauge_max("m", "layer", "hw", 9)
    hub.gauge_max("m", "layer", "hw", 3)  # below the mark: no update
    assert {k[2]: (s.last, s.peak) for k, s in hub.series.items()} == {
        "ops": (2, 2), "depth": (4, 4), "hw": (9, 9)}  # running total
    hub.clear()
    assert hub.series == {}
