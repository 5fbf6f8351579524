"""Unit tests for the telemetry hub: histograms, series, capture."""

import pytest

from repro.obs import Telemetry, capture, current, install, uninstall
from repro.obs.export import _bin_upper, _log2_quantile
from repro.obs.telemetry import MAX_EVENTS, PercentileSketch
from repro.obs.timeline import BUCKET_NS
from repro.sim.ledger import Ledger


def _histogram(*values):
    """The sketch ``Telemetry.observe`` records into, fed *values*."""
    hub = Telemetry()
    for v in values:
        hub.observe("m", "l", "h", v)
    return hub.histograms[("m", "l", "h")]


class TestHistogramBinning:
    """The hub's log2 histogram is the ``bins`` view of its sketch."""

    def test_zero_lands_in_bin_zero(self):
        assert _histogram(0).bins == {0: 1}
        assert _bin_upper(0) == 0

    def test_one_lands_in_bin_one(self):
        assert _histogram(1).bins == {1: 1}
        assert _bin_upper(1) == 1

    def test_two_and_three_share_bin_two(self):
        assert _histogram(2, 3).bins == {2: 2}
        assert _bin_upper(2) == 3

    def test_four_starts_bin_three(self):
        assert _histogram(4).bins == {3: 1}
        assert _bin_upper(3) == 7

    @pytest.mark.parametrize("k", [4, 10, 20, 40])
    def test_power_of_two_edges(self, k):
        h = _histogram((1 << k) - 1,   # top of bin k
                       1 << k)         # bottom of bin k+1
        assert h.bins == {k: 1, k + 1: 1}
        assert _bin_upper(k) == (1 << k) - 1

    def test_bins_project_every_sub_bucket_exactly(self):
        values = list(range(200)) + [(1 << k) + d for k in range(5, 40)
                                     for d in (0, 1, 3 << (k - 3))]
        expected = {}
        for v in values:
            expected[v.bit_length()] = expected.get(v.bit_length(), 0) + 1
        assert _histogram(*values).bins == expected

    def test_negative_clamped_to_zero(self):
        h = _histogram(-5)
        assert h.bins == {0: 1}
        assert h.min == 0 and h.max == 0

    def test_summary_stats(self):
        h = _histogram(1, 2, 3, 100)
        assert h.count == 4
        assert h.sum == 106
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(26.5)

    def test_quantile_upper_bound_of_covering_bin(self):
        h = _histogram(*([3] * 99 + [1000]))  # bins 2 and 10
        assert _log2_quantile(h, 0.5) == 3
        assert _log2_quantile(h, 1.0) == 1023
        assert _log2_quantile(PercentileSketch(), 0.5) == 0

    def test_to_dict_round_trips_through_json(self):
        import json
        hub = Telemetry()
        hub.observe("m", "l", "h", 7)
        d = json.loads(json.dumps(hub.snapshot()["histograms"][0]))
        assert d == {"machine": "m", "layer": "l", "name": "h",
                     "count": 1, "sum": 7, "min": 7, "max": 7,
                     "bins": {"3": 1}}


class _Clock:
    now = 0


class TestSeries:
    def test_small_series_keeps_everything(self):
        hub, clock = Telemetry(), _Clock()
        hub.attach_clock(clock)
        for i in range(10):
            clock.now = i * BUCKET_NS
            hub.count("m", "l", "ops")
        assert hub.series[("m", "l", "ops")].samples() == \
            [(i * BUCKET_NS, i + 1) for i in range(10)]


class TestTelemetry:
    def test_counters_accumulate_and_total_sums_machines(self):
        hub = Telemetry()
        hub.count("mac0", "net.rdma", "reads", 3)
        hub.count("mac0", "net.rdma", "reads")
        hub.count("mac1", "net.rdma", "reads", 10)
        assert hub.counter("mac0", "net.rdma", "reads") == 4
        assert hub.total("net.rdma", "reads") == 14

    def test_gauge_max_only_raises(self):
        hub = Telemetry()
        hub.gauge_max("m", "mem", "hw", 5)
        hub.gauge_max("m", "mem", "hw", 3)
        assert hub.gauges[("m", "mem", "hw")] == 5
        hub.gauge_max("m", "mem", "hw", 9)
        assert hub.gauges[("m", "mem", "hw")] == 9

    def test_layers_cover_all_stores(self):
        hub = Telemetry()
        hub.count("m", "a", "x")
        hub.gauge("m", "b", "y", 1)
        hub.observe("m", "c", "z", 1)
        hub.event("m", "d", "e")
        hub.span("m", "e", "s", 0, 1)
        assert hub.layers() == ["a", "b", "c", "d", "e"]

    def test_event_cap_counts_drops(self):
        hub = Telemetry()
        for i in range(MAX_EVENTS + 3):
            hub.event("m", "l", f"e{i}")
        assert len(hub.events) == MAX_EVENTS
        assert hub.dropped_events == 3
        assert hub.events_seen == MAX_EVENTS + 3

    def test_clock_attaches_idempotently_and_rebinds(self):
        class FakeEngine:
            now = 42

        hub = Telemetry()
        assert hub.now() == 0
        e1 = FakeEngine()
        hub.attach_clock(e1)
        assert hub.now() == 42
        e2 = FakeEngine()
        e2.now = 99
        hub.attach_clock(e2)
        assert hub.now() == 99

    @pytest.mark.parametrize("gap", [0, 25])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_op_with_count_equals_that_many_charged_ops(self, n, gap):
        """``op(count=n, gap_ns=gap)`` after one charge of ``n * cost``,
        the gaps charged after it, leaves the frames — offsets, lengths,
        attributes, nesting — and, committed, the spans of *n* separate
        ``charge`` + ``op`` pairs with *gap* charged between them."""
        seen = []
        for batched in (False, True):
            hub, ledger = Telemetry(), Ledger()
            ledger.charge(40, "mmu")
            outer = hub.op_begin("m", "kernel", "fault", ledger)
            if batched:
                ledger.charge(n * 300, "rdma-read")
                hub.op("m", "net.rdma", "read", ledger, 300, count=n,
                       gap_ns=gap, remote="r", bytes=4096)
                ledger.charge((n - 1) * gap, "mmu")
            else:
                for k in range(n):
                    ledger.charge(k and gap, "mmu")
                    ledger.charge(300, "rdma-read")
                    hub.op("m", "net.rdma", "read", ledger, 300,
                           remote="r", bytes=4096)
            hub.op_end(outer, ledger)
            frames = [dict(f) for f in hub._ops[id(ledger)]["top"]]
            hub.commit_ops(ledger, 1000, ledger.drain(), trace_id="t")
            seen.append((frames, hub.spans))
        assert seen[1] == seen[0]
        reads = seen[1][0][0]["children"]
        assert [(f["start_off"], f["end_off"]) for f in reads] == \
            [(40 + (300 + gap) * k, 340 + (300 + gap) * k) for k in range(n)]


class TestGlobalHub:
    def test_capture_nests_and_restores(self):
        assert current() is None
        outer = Telemetry()
        with capture(outer) as got_outer:
            assert got_outer is outer and current() is outer
            inner = Telemetry()
            with capture(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_install_uninstall(self):
        hub = install()
        assert current() is hub
        assert uninstall() is hub
        assert current() is None

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert current() is None


class TestBoundedMemory:
    def test_default_mode_keeps_oldest_events(self):
        hub = Telemetry()
        for i in range(MAX_EVENTS + 2):
            hub.event("m", "l", f"e{i}")
        assert hub.events[0]["name"] == "e0"
        assert hub.events[-1]["name"] == f"e{MAX_EVENTS - 1}"

    def test_snapshot_reports_drop_counters(self):
        hub = Telemetry()
        for i in range(MAX_EVENTS + 2):
            hub.event("m", "l", "e")
        for i in range(3):
            hub.span("m", "l", "s", 0, 1)
        snap = hub.snapshot()
        assert snap["dropped_events"] == 2
        assert snap["events_seen"] == MAX_EVENTS + 2
        # every span is kept: the span keys report exactly that
        assert snap["dropped_spans"] == 0
        assert snap["spans_seen"] == len(snap["spans"]) == 3

    def test_clear_resets_drop_counters(self):
        hub = Telemetry()
        for i in range(MAX_EVENTS + 1):
            hub.event("m", "l", "a")
        assert hub.dropped_events == 1
        hub.clear()
        assert hub.dropped_events == 0 and hub.events == []

    def test_listeners_see_events_the_cap_drops(self):
        seen = []
        hub = Telemetry()
        hub.add_listener(lambda e: seen.append(e["name"]))
        hub.add_listener(lambda e: None)  # second listener coexists
        for i in range(MAX_EVENTS + 2):
            hub.event("m", "l", f"e{i}")
        assert seen == [f"e{i}" for i in range(MAX_EVENTS + 2)]
        assert len(hub.events) == MAX_EVENTS

    def test_remove_listener_is_idempotent(self):
        seen = []
        listener = seen.append
        hub = Telemetry()
        hub.add_listener(listener)
        hub.add_listener(listener)  # no double delivery
        hub.event("m", "l", "a")
        assert len(seen) == 1
        hub.remove_listener(listener)
        hub.remove_listener(listener)
        hub.event("m", "l", "b")
        assert len(seen) == 1
