"""Bounded resource-saturation timelines over simulated time.

A :class:`Timeline` is a downsampling time series for one metric: values
land in fixed-width simulated-time buckets holding ``[min, max, sum,
count, last]`` aggregates, and when the bucket count exceeds the cap the
series *coalesces* — adjacent buckets merge pairwise and the bucket
width doubles.  Coalescing depends only on the recorded ``(ts, value)``
stream, never on wall time, so the same seeded run always produces the
same timeline, byte for byte.

A :class:`TimelineRecorder` holds one timeline per ``(machine, layer,
name)`` metric key.  The telemetry hub feeds it from every counter and
gauge update when timelines are enabled
(:meth:`repro.obs.Telemetry.enable_timelines`); the auto-triage engine
(:mod:`repro.obs.triage`) then asks *which resource series crossed its
saturation threshold inside an alert window* — the question the hub's
final-value gauges cannot answer.

Like every ``repro.obs`` surface this is a pure observer: recording
never touches a ledger, the event queue, or the clock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: (machine, layer, name) — mirrors :data:`repro.obs.telemetry.MetricKey`
#: without importing it (this module must stay import-cycle free).
SeriesKey = Tuple[str, str, str]

#: Bucket aggregate layout: [min, max, sum, count, last, last_ts].
_MIN, _MAX, _SUM, _COUNT, _LAST, _LAST_TS = range(6)


class Timeline:
    """One metric's bounded, coalescing simulated-time series.

    ``bucket_ns`` starts at the configured resolution and doubles every
    time the live bucket count would exceed ``max_buckets`` — long runs
    keep a complete (coarser) history instead of a truncated one.
    """

    __slots__ = ("bucket_ns", "max_buckets", "_buckets", "count",
                 "peak", "low", "first_ts", "last_ts", "last")

    def __init__(self, bucket_ns: int = 1_000_000,
                 max_buckets: int = 256):
        if bucket_ns <= 0 or max_buckets < 2:
            raise ValueError("bucket_ns must be positive and "
                             "max_buckets >= 2")
        self.bucket_ns = int(bucket_ns)
        self.max_buckets = int(max_buckets)
        self._buckets: Dict[int, List[int]] = {}
        self.count = 0
        #: lifetime extrema and the most recent sample
        self.peak: Optional[int] = None
        self.low: Optional[int] = None
        self.first_ts: Optional[int] = None
        self.last_ts: Optional[int] = None
        self.last: Optional[int] = None

    def record(self, ts_ns: int, value: int) -> None:
        ts_ns = int(ts_ns)
        value = int(value)
        self.count += 1
        if self.peak is None or value > self.peak:
            self.peak = value
        if self.low is None or value < self.low:
            self.low = value
        if self.first_ts is None:
            self.first_ts = ts_ns
        self.last_ts = ts_ns
        self.last = value
        idx = ts_ns // self.bucket_ns
        slot = self._buckets.get(idx)
        if slot is None:
            if len(self._buckets) >= self.max_buckets:
                self._coalesce()
                idx = ts_ns // self.bucket_ns
                slot = self._buckets.get(idx)
        if slot is None:
            self._buckets[idx] = [value, value, value, 1, value, ts_ns]
            return
        if value < slot[_MIN]:
            slot[_MIN] = value
        if value > slot[_MAX]:
            slot[_MAX] = value
        slot[_SUM] += value
        slot[_COUNT] += 1
        if ts_ns >= slot[_LAST_TS]:
            slot[_LAST] = value
            slot[_LAST_TS] = ts_ns

    def _coalesce(self) -> None:
        """Merge buckets pairwise and double the bucket width."""
        merged: Dict[int, List[int]] = {}
        for idx, slot in self._buckets.items():
            j = idx // 2
            have = merged.get(j)
            if have is None:
                merged[j] = list(slot)
                continue
            if slot[_MIN] < have[_MIN]:
                have[_MIN] = slot[_MIN]
            if slot[_MAX] > have[_MAX]:
                have[_MAX] = slot[_MAX]
            have[_SUM] += slot[_SUM]
            have[_COUNT] += slot[_COUNT]
            if slot[_LAST_TS] > have[_LAST_TS]:
                have[_LAST] = slot[_LAST]
                have[_LAST_TS] = slot[_LAST_TS]
        self._buckets = merged
        self.bucket_ns *= 2

    # -- queries -------------------------------------------------------------

    def _overlapping(self, t0_ns: int, t1_ns: int) -> List[int]:
        """Sorted indices of buckets overlapping ``[t0, t1]``."""
        b = self.bucket_ns
        return sorted(idx for idx in self._buckets
                      if idx * b <= t1_ns and (idx + 1) * b > t0_ns)

    def stats_between(self, t0_ns: int,
                      t1_ns: int) -> Optional[Dict[str, int]]:
        """Aggregate stats over buckets overlapping ``[t0, t1]``, or
        ``None`` when the window holds no samples.  Bucket-granular: a
        bucket straddling the window edge counts whole."""
        idxs = self._overlapping(t0_ns, t1_ns)
        if not idxs:
            return None
        mn = mx = None
        sm = cnt = 0
        last = last_ts = None
        for idx in idxs:
            slot = self._buckets[idx]
            if mn is None or slot[_MIN] < mn:
                mn = slot[_MIN]
            if mx is None or slot[_MAX] > mx:
                mx = slot[_MAX]
            sm += slot[_SUM]
            cnt += slot[_COUNT]
            if last_ts is None or slot[_LAST_TS] >= last_ts:
                last = slot[_LAST]
                last_ts = slot[_LAST_TS]
        return {"min": mn, "max": mx, "sum": sm, "count": cnt,
                "last": last}

    def value_at(self, ts_ns: int) -> Optional[int]:
        """The last recorded value in any bucket starting at or before
        *ts_ns* (bucket-granular, like everything downsampled)."""
        best = None
        b = self.bucket_ns
        for idx in sorted(self._buckets):
            if idx * b > ts_ns:
                break
            best = self._buckets[idx]
        return best[_LAST] if best is not None else None

    def delta_between(self, t0_ns: int, t1_ns: int) -> int:
        """Increase of a monotone series across ``[t0, t1]`` (>= 0).

        The baseline is the last value at or before *t0*; a series born
        inside the window baselines at zero."""
        after = self.value_at(t1_ns)
        if after is None:
            return 0
        before = self.value_at(t0_ns)
        if before is None:
            before = 0
        return max(0, after - before)

    def points(self, t0_ns: Optional[int] = None,
               t1_ns: Optional[int] = None) -> List[Dict[str, Any]]:
        """JSON-ready bucket aggregates in time order (optionally
        restricted to buckets overlapping ``[t0, t1]``)."""
        if t0_ns is None and t1_ns is None:
            idxs = sorted(self._buckets)
        else:
            lo = 0 if t0_ns is None else t0_ns
            hi = (1 << 62) if t1_ns is None else t1_ns
            idxs = self._overlapping(lo, hi)
        out = []
        for idx in idxs:
            slot = self._buckets[idx]
            out.append({
                "start_ns": idx * self.bucket_ns,
                "end_ns": (idx + 1) * self.bucket_ns,
                "min": slot[_MIN], "max": slot[_MAX],
                "mean": round(slot[_SUM] / slot[_COUNT], 6),
                "count": slot[_COUNT], "last": slot[_LAST],
            })
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"bucket_ns": self.bucket_ns, "count": self.count,
                "peak": self.peak, "low": self.low,
                "first_ts": self.first_ts, "last_ts": self.last_ts,
                "last": self.last, "points": self.points()}


class TimelineRecorder:
    """One :class:`Timeline` per metric key, with a series-count bound.

    Attached to a :class:`~repro.obs.Telemetry` hub via
    ``enable_timelines()``; the hub then routes every counter/gauge
    update here.
    """

    __slots__ = ("bucket_ns", "max_buckets", "max_series", "series",
                 "dropped_series")

    def __init__(self, bucket_ns: int = 1_000_000,
                 max_buckets: int = 256, max_series: int = 1024):
        self.bucket_ns = int(bucket_ns)
        self.max_buckets = int(max_buckets)
        self.max_series = int(max_series)
        self.series: Dict[SeriesKey, Timeline] = {}
        self.dropped_series = 0

    def record(self, key: SeriesKey, ts_ns: int, value: int) -> None:
        timeline = self.series.get(key)
        if timeline is None:
            if len(self.series) >= self.max_series:
                self.dropped_series += 1
                return
            timeline = self.series[key] = Timeline(
                bucket_ns=self.bucket_ns, max_buckets=self.max_buckets)
        timeline.record(ts_ns, value)

    def get(self, machine: str, layer: str,
            name: str) -> Optional[Timeline]:
        return self.series.get((machine, layer, name))

    def keys(self) -> List[SeriesKey]:
        return sorted(self.series)

    def clear(self) -> None:
        self.series.clear()
        self.dropped_series = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every timeline, sorted by key."""
        return {
            "dropped_series": self.dropped_series,
            "series": [
                {"machine": m, "layer": lyr, "name": n,
                 **self.series[(m, lyr, n)].to_dict()}
                for (m, lyr, n) in self.keys()],
        }
