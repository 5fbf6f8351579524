"""Fleet monitor unit tests: sketches, windows, burn-rate alerting.

The property test here is the backing for the documented
:data:`~repro.obs.telemetry.SKETCH_RELATIVE_ERROR` bound — percentile
estimates are checked against exact sorted percentiles across several
workload shapes and seeds.
"""

import random

import pytest

from repro.obs import (FleetMonitor, PercentileSketch,
                       SKETCH_RELATIVE_ERROR, Telemetry, WindowedCounter,
                       WindowedSketch)
from repro.obs.telemetry import _LINEAR_MAX
from repro.obs.slo import SLO
from repro.units import ms


def exact_quantile(values, q):
    """The value at rank ``max(1, ceil(q * n))`` — the sketch's target."""
    import math
    ranked = sorted(values)
    rank = min(len(ranked), max(1, math.ceil(q * len(ranked))))
    return ranked[rank - 1]


class TestPercentileSketch:
    def test_linear_region_is_exact(self):
        sketch = PercentileSketch()
        for v in range(_LINEAR_MAX):
            sketch.record(v)
        for v in range(_LINEAR_MAX):
            assert PercentileSketch.bucket_key(v) == v
            assert PercentileSketch.bucket_estimate(v) == v
        assert sketch.count == _LINEAR_MAX
        assert sketch.min == 0 and sketch.max == _LINEAR_MAX - 1

    def test_bucket_keys_are_value_ordered(self):
        keys = [PercentileSketch.bucket_key(v) for v in range(1, 100_000)]
        assert keys == sorted(keys)
        sketch = PercentileSketch()
        for v in range(1, 100_000, 7):
            sketch.record(v)
        assert set(sketch.buckets) == {PercentileSketch.bucket_key(v)
                                       for v in range(1, 100_000, 7)}

    def test_bucket_estimate_stays_inside_bucket(self):
        for v in (32, 33, 100, 1023, 1024, 999_999, 1 << 40):
            key = PercentileSketch.bucket_key(v)
            est = PercentileSketch.bucket_estimate(key)
            assert PercentileSketch.bucket_key(est) == key
            assert abs(est - v) <= SKETCH_RELATIVE_ERROR * v

    def test_negative_values_clamp_to_zero(self):
        sketch = PercentileSketch()
        sketch.record(-7)
        assert sketch.min == 0 and sketch.sum == 0
        assert sketch.quantile(0.5) == 0

    def test_empty_sketch_quantile_is_zero(self):
        assert PercentileSketch().quantile(0.99) == 0

    def test_merge_equals_single_sketch(self):
        rng = random.Random(7)
        values = [rng.randint(0, 10**6) for _ in range(2000)]
        whole = PercentileSketch()
        left, right = PercentileSketch(), PercentileSketch()
        for i, v in enumerate(values):
            whole.record(v)
            (left if i % 2 else right).record(v)
        merged = PercentileSketch.merged([left, right])
        assert merged.buckets == whole.buckets
        assert (merged.count, merged.sum, merged.min, merged.max) == \
            (whole.count, whole.sum, whole.min, whole.max)
        for q in (0.5, 0.9, 0.99, 0.999):
            assert merged.quantile(q) == whole.quantile(q)

    def test_to_dict_is_json_ready(self):
        import json
        sketch = PercentileSketch()
        for v in (1, 10, 100, 1000):
            sketch.record(v)
        d = json.loads(json.dumps(sketch.to_dict()))
        assert d["count"] == 4 and d["min"] == 1 and d["max"] == 1000


# Workload shapes for the accuracy property test: uniform spread, a
# log-normal-ish RPC latency shape, and a bimodal fast-path/slow-path mix
# (the RMMAP-vs-fallback shape the monitor actually sees).
def _uniform(rng):
    return [rng.randint(1, 10**7) for _ in range(5000)]


def _lognormal(rng):
    return [max(1, int(rng.lognormvariate(10, 1.5))) for _ in range(5000)]


def _bimodal(rng):
    return [(rng.randint(500, 2_000) if rng.random() < 0.9
             else rng.randint(1_000_000, 5_000_000))
            for _ in range(5000)]


@pytest.mark.parametrize("mix", [_uniform, _lognormal, _bimodal],
                         ids=["uniform", "lognormal", "bimodal"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quantile_accuracy_property(mix, seed):
    """Estimates stay within SKETCH_RELATIVE_ERROR of exact sorted
    percentiles for every tested quantile, shape and seed."""
    values = mix(random.Random(seed))
    sketch = PercentileSketch()
    for v in values:
        sketch.record(v)
    for q in (0.5, 0.99, 0.999):
        exact = exact_quantile(values, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) <= \
            SKETCH_RELATIVE_ERROR * max(exact, 1), \
            f"q={q}: estimate {estimate} vs exact {exact}"


class TestWindowedSketch:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            WindowedSketch(0)

    def test_old_slices_evicted_lifetime_kept(self):
        ws = WindowedSketch(window_ns=800)
        ws.record(0, 1000)
        ws.record(900, 50)
        window = ws.window(900)
        assert window.count == 1 and window.max == 50
        assert ws.lifetime.count == 2 and ws.lifetime.max == 1000

    def test_eviction_is_pure_function_of_timestamp(self):
        a, b = WindowedSketch(800), WindowedSketch(800)
        a.record(0, 10)
        a.window(10_000)       # extra query must not change results
        a.record(10_000, 20)
        b.record(0, 10)
        b.record(10_000, 20)
        assert a.window(10_000).buckets == b.window(10_000).buckets

    def test_merge_requires_same_geometry(self):
        with pytest.raises(ValueError):
            WindowedSketch(800).merge(WindowedSketch(400))

    def test_merge_combines_slices(self):
        a, b = WindowedSketch(800), WindowedSketch(800)
        a.record(100, 10)
        b.record(100, 20)
        b.record(700, 30)
        a.merge(b)
        window = a.window(700)
        assert window.count == 3
        assert a.lifetime.count == 3


class TestWindowedCounter:
    def test_totals_only_count_window_overlap(self):
        counter = WindowedCounter(span_ns=800, bucket_ns=100)
        counter.record(50, True)
        counter.record(250, False)
        assert counter.totals(100, 150) == (1, 0)
        assert counter.totals(800, 300) == (1, 1)
        # at now=950 the good@50 bucket [0, 100) is behind the window
        assert counter.totals(800, 950) == (0, 1)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            WindowedCounter(0, 1)

    def test_counter_keeps_one_slice_more_than_the_sketch(self):
        """The sketch drops slice ``idx`` once ``idx <= now//slice -
        slices``; the counter once ``idx < (now - span)//bucket``."""
        sketch, counter = WindowedSketch(800), WindowedCounter(800, 100)
        sketch.record(0, 5)
        counter.record(0, True)
        assert sketch.window(799).count == 1
        assert sketch.window(800).count == 0
        assert counter.totals(800, 899) == (1, 0)
        assert counter.totals(800, 900) == (0, 0)

    def test_totals_equal_a_direct_count_over_the_window(self):
        """Every window length, narrow (walked index by index), wide
        (filtered) or the whole span (the running totals), counts the
        records whose slice overlaps ``(now - window, now]``."""
        rng = random.Random(7)
        counter, records, ts = WindowedCounter(800, 100), [], 0
        for _ in range(400):
            ts += rng.choice((0, 7, 30, 100, 450, 2000))
            good = rng.random() < 0.7
            counter.record(ts, good)
            records.append((ts, good))
            for window in (100, 250, 500, 750, 800, 5000):
                lo = (ts - min(window, 800)) // 100
                inside = [g for t, g in records if lo <= t // 100]
                assert counter.totals(window, ts) == (
                    sum(inside), len(inside) - sum(inside))


class TestBurnRateAlerting:
    SLO = SLO(name="avail-90", objective=0.9,
              long_window_ns=800, short_window_ns=100,
              burn_rate_threshold=2.0)
    KEY = ("acme", "wordcount", "rmmap-prefetch")

    def monitor(self):
        return FleetMonitor(slos=[self.SLO])

    def test_fires_and_clears_at_deterministic_timestamps(self):
        mon = self.monitor()
        mon.observe(0, self.KEY, latency_ns=100, ok=True)
        mon.observe(200, self.KEY, latency_ns=None, ok=False)
        assert len(mon.alerts) == 1
        alert = mon.alerts[0]
        assert alert.fired_ns == 200 and alert.active
        # short window still sees the failure at 300 ...
        mon.observe(300, self.KEY, latency_ns=100, ok=True)
        assert alert.active
        # ... but not at 310: the alert clears there, exactly
        mon.observe(310, self.KEY, latency_ns=100, ok=True)
        assert alert.cleared_ns == 310
        assert mon.active_alerts() == []

    def test_long_window_blip_alone_does_not_fire(self):
        """Old failures burn the long window but the short window has
        recovered — the multi-window rule suppresses the alert."""
        mon = self.monitor()
        mon.observe(100, self.KEY, latency_ns=None, ok=False)
        mon.alerts.clear()  # the burst itself fires; study the aftermath
        for ts in range(600, 700, 10):
            mon.observe(ts, self.KEY, latency_ns=100, ok=True)
        assert mon.alerts == []

    def test_same_stream_same_alert_timeline(self):
        def drive(mon):
            for ts in range(0, 1000, 50):
                mon.observe(ts, self.KEY, latency_ns=100,
                            ok=ts % 200 != 0)
            return [(a.fired_ns, a.cleared_ns) for a in mon.alerts]

        assert drive(self.monitor()) == drive(self.monitor())

    def test_latency_slo_counts_slow_successes_as_bad(self):
        slo = SLO(name="lat", objective=0.9, latency_threshold_ns=ms(1),
                  long_window_ns=800, short_window_ns=100,
                  burn_rate_threshold=2.0)
        mon = FleetMonitor(slos=[slo])
        mon.observe(0, self.KEY, latency_ns=100, ok=True)
        mon.observe(200, self.KEY, latency_ns=ms(50), ok=True)  # slow
        assert len(mon.alerts) == 1
        assert mon.alerts[0].slo.name == "lat"


class TestFleetMonitorHubWiring:
    class _Clock:
        now = 0

    def hub_with_clock(self):
        hub = Telemetry()
        clock = self._Clock()
        hub.attach_clock(clock)
        return hub, clock

    def emit(self, hub, clock, ts, name, **attrs):
        clock.now = ts
        hub.event("coordinator", "platform", name, **attrs)

    def test_consumes_invocation_events_per_fleet_key(self):
        hub, clock = self.hub_with_clock()
        mon = FleetMonitor().attach(hub)
        self.emit(hub, clock, 10, "invocation.done", tenant="a",
                  workflow="w", transport="t", latency_ns=500)
        self.emit(hub, clock, 20, "invocation.failed", tenant="b",
                  workflow="w", transport="t", latency_ns=300)
        self.emit(hub, clock, 30, "pod.started")  # ignored
        hub.event("coordinator", "transfer", "invocation.done")  # ignored
        assert mon.observed == 2
        assert mon.keys() == [("a", "w", "t"), ("b", "w", "t")]
        assert mon.availability(("a", "w", "t"), 30) == 1.0
        assert mon.availability(("b", "w", "t"), 30) == 0.0

    def test_alert_transitions_mirrored_onto_hub(self):
        hub, clock = self.hub_with_clock()
        slo = SLO(name="avail", objective=0.9, long_window_ns=800,
                  short_window_ns=100, burn_rate_threshold=2.0)
        mon = FleetMonitor(slos=[slo]).attach(hub)
        self.emit(hub, clock, 0, "invocation.done", tenant="a",
                  workflow="w", transport="t", latency_ns=100)
        self.emit(hub, clock, 200, "invocation.failed", tenant="a",
                  workflow="w", transport="t", latency_ns=100)
        self.emit(hub, clock, 310, "invocation.done", tenant="a",
                  workflow="w", transport="t", latency_ns=100)
        names = [e["name"] for e in hub.events
                 if e["layer"] == "obs.monitor"]
        assert names == ["alert.fired", "alert.cleared"]
        assert hub.counter("cluster", "obs.monitor",
                           "alert.fired.count") == 1
        assert hub.counter("cluster", "obs.monitor",
                           "alert.cleared.count") == 1

    def test_rejections_fold_into_availability(self):
        hub, clock = self.hub_with_clock()
        mon = FleetMonitor().attach(hub)
        key = ("a", "w", "t")
        self.emit(hub, clock, 10, "invocation.done", tenant="a",
                  workflow="w", transport="t", latency_ns=500)
        self.emit(hub, clock, 20, "invocation.rejected", tenant="a",
                  workflow="w", transport="t", reason="rate-limit")
        assert mon.observed == 2
        assert mon.rejected_counts[key] == 1
        # a refused request is unavailable capacity like a failed one
        assert mon.availability(key, 30) == 0.5

    def test_rejection_alone_can_fire_an_availability_alert(self):
        hub, clock = self.hub_with_clock()
        slo = SLO(name="avail", objective=0.9, long_window_ns=800,
                  short_window_ns=100, burn_rate_threshold=2.0)
        mon = FleetMonitor(slos=[slo]).attach(hub)
        self.emit(hub, clock, 0, "invocation.done", tenant="a",
                  workflow="w", transport="t", latency_ns=100)
        self.emit(hub, clock, 200, "invocation.rejected", tenant="a",
                  workflow="w", transport="t", reason="queue-full")
        names = [e["name"] for e in hub.events
                 if e["layer"] == "obs.monitor"]
        assert "alert.fired" in names

    def test_detach_stops_consumption(self):
        hub, clock = self.hub_with_clock()
        mon = FleetMonitor().attach(hub)
        self.emit(hub, clock, 10, "invocation.done", latency_ns=1)
        mon.detach()
        self.emit(hub, clock, 20, "invocation.done", latency_ns=1)
        assert mon.observed == 1

    def test_snapshot_and_render(self):
        mon = FleetMonitor()
        key = ("default", "wordcount", "rmmap-prefetch")
        for ts in range(0, 1000, 100):
            mon.observe(ts, key, latency_ns=ts + 1, ok=True)
        snap = mon.snapshot()
        assert snap["observed"] == 10
        assert snap["series"][0]["workflow"] == "wordcount"
        assert snap["series"][0]["rejections"] == 0
        assert snap["alerts"] == []
        text = mon.render()
        assert "wordcount" in text and "no SLO alerts" in text

    def test_snapshot_counts_rejections_per_key(self):
        mon = FleetMonitor(slos=[])
        key = ("default", "wordcount", "rmmap-prefetch")
        mon.observe(0, key, latency_ns=100, ok=True)
        mon.observe(10, key, latency_ns=0, ok=False, rejected=True)
        mon.observe(20, key, latency_ns=0, ok=False, rejected=True)
        snap = mon.snapshot()
        assert snap["series"][0]["rejections"] == 2
        assert snap["observed"] == 3
