"""Bounded counter/gauge series over simulated time.

A :class:`Timeline` is the hub's time series for one metric
(``Telemetry.series``, fed by every counter and gauge update): values
land in fixed-width simulated-time buckets holding ``[min, max, last,
last_ts]`` aggregates, and when the bucket count would exceed
:data:`MAX_BUCKETS` the series *coalesces* — adjacent buckets merge
pairwise and the bucket width doubles.  Coalescing depends only on the
recorded ``(ts, value)`` stream, never on wall time, so the same seeded
run always produces the same timeline, byte for byte.  Every bucket keeps
the last value written into it, so a series always ends on the metric's
final value however long the run.

The Chrome exporter draws one counter sample per bucket; the auto-triage
engine (:mod:`repro.obs.triage`) asks *which resource series crossed its
saturation threshold inside an alert window* — the question the hub's
final-value gauges cannot answer.

Like every ``repro.obs`` surface this is a pure observer: recording
never touches a ledger, the event queue, or the clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Starting bucket width (1 ms of simulated time).
BUCKET_NS = 1_000_000

#: Live buckets per series; one more coalesces (width doubles).
MAX_BUCKETS = 256

#: Bucket aggregate layout: [min, max, last, last_ts].
_MIN, _MAX, _LAST, _LAST_TS = range(4)


class Timeline:
    """One metric's bounded, coalescing simulated-time series.

    ``bucket_ns`` starts at :data:`BUCKET_NS` and doubles every time the
    live bucket count would exceed :data:`MAX_BUCKETS` — long runs keep a
    complete (coarser) history instead of a truncated one.
    """

    __slots__ = ("bucket_ns", "_buckets", "peak", "last")

    def __init__(self):
        self.bucket_ns = BUCKET_NS
        self._buckets: Dict[int, List[int]] = {}
        #: lifetime peak and the most recent sample
        self.peak: Optional[int] = None
        self.last: Optional[int] = None

    def record(self, ts_ns: int, value: int) -> None:
        if self.peak is None or value > self.peak:
            self.peak = value
        self.last = value
        idx = ts_ns // self.bucket_ns
        slot = self._buckets.get(idx)
        if slot is None and len(self._buckets) >= MAX_BUCKETS:
            self._coalesce()
            idx = ts_ns // self.bucket_ns
            slot = self._buckets.get(idx)
        if slot is None:
            self._buckets[idx] = [value, value, value, ts_ns]
            return
        if value < slot[_MIN]:
            slot[_MIN] = value
        if value > slot[_MAX]:
            slot[_MAX] = value
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
            if slot[_LAST_TS] > have[_LAST_TS]:
                have[_LAST] = slot[_LAST]
                have[_LAST_TS] = slot[_LAST_TS]
        self._buckets = merged
        self.bucket_ns *= 2

    # -- queries -------------------------------------------------------------

    def stats_between(self, t0_ns: int,
                      t1_ns: int) -> Optional[Dict[str, int]]:
        """``{"min", "max"}`` over buckets overlapping ``[t0, t1]``, or
        ``None`` when the window holds no samples.  Bucket-granular: a
        bucket straddling the window edge counts whole."""
        b = self.bucket_ns
        slots = [slot for idx, slot in self._buckets.items()
                 if idx * b <= t1_ns and (idx + 1) * b > t0_ns]
        if not slots:
            return None
        return {"min": min(slot[_MIN] for slot in slots),
                "max": max(slot[_MAX] for slot in slots)}

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

    def samples(self) -> List[Tuple[int, int]]:
        """``(ts, value)`` of each bucket's last update, in time order.
        After several engines (each clock starts at 0) the latest bucket
        can hold an earlier engine's update: the final value then
        follows at that bucket's timestamp."""
        out = [(self._buckets[idx][_LAST_TS], self._buckets[idx][_LAST])
               for idx in sorted(self._buckets)]
        if out and out[-1][1] != self.last:
            out.append((out[-1][0], self.last))
        return out
