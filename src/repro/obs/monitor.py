"""Fleet-scale monitoring over the telemetry hub, in simulated time.

The profiler (:mod:`repro.obs.profile`) explains one invocation after the
fact; this module watches a whole fleet run *while it happens* — a
thousand-request Fig 12 load test, a chaos drill — and keeps the
distributional view the paper's headline results are made of:

* :class:`PercentileSketch` — a mergeable log2-bucket quantile sketch
  (16 linear sub-buckets per power of two, HdrHistogram-style) whose
  estimates carry a *tested* relative-error bound
  (:data:`SKETCH_RELATIVE_ERROR`, 3.125 %) against exact sorted
  percentiles;
* :class:`WindowedSketch` / :class:`WindowedCounter` — sliding windows
  over simulated nanoseconds, sliced into ring buckets so eviction is a
  pure function of the simulated clock;
* :class:`FleetMonitor` — subscribes to the hub's event stream
  (``Telemetry.add_listener``), keeps per-``(tenant, workflow,
  transport)`` latency sketches and request/error rates, and evaluates
  :class:`~repro.obs.slo.SLO` objectives with multi-window burn-rate
  alerting.  Alert transitions fire *inside* simulated time: the firing
  timestamp is the simulated instant of the observation that tripped the
  budget, so the same seed produces the same alert timeline, byte for
  byte.

Like every other ``repro.obs`` surface the monitor is a pure observer:
it never touches a ledger, the event queue, or the clock, so a run is
bit-identical with monitoring on or off.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.slo import SLO, DEFAULT_SLOS
from repro.obs.telemetry import Telemetry

#: Linear sub-buckets per power-of-two range.  With ``K`` sub-buckets the
#: mid-point estimate of any bucket is within ``1 / (2 K)`` of every value
#: the bucket covers, so quantile estimates carry that relative-error
#: bound (values below ``2 K`` are bucketed exactly — zero error).
SKETCH_SUBBUCKETS = 16

#: The documented (and property-tested) relative error bound of
#: :meth:`PercentileSketch.quantile` vs the exact sorted percentile.
SKETCH_RELATIVE_ERROR = 1.0 / (2 * SKETCH_SUBBUCKETS)

#: Key every fleet series is labeled by.
FleetKey = Tuple[str, str, str]  # (tenant, workflow, transport)

#: Ring slices per sliding window (sketches, counters, exemplars).
WINDOW_SLICES = 8

#: Worst / failed exemplar trace ids kept per window slice and fleet key.
EXEMPLAR_K = 3

_SUB_SHIFT = SKETCH_SUBBUCKETS.bit_length() - 1  # log2(K)
_LINEAR_MAX = 2 * SKETCH_SUBBUCKETS  # values < this are bucketed exactly


class PercentileSketch:
    """A mergeable quantile sketch over non-negative integers.

    Values below ``2 * SKETCH_SUBBUCKETS`` occupy exact linear buckets;
    larger values land in one of ``SKETCH_SUBBUCKETS`` equal-width
    sub-buckets of their power-of-two range ``[2^(e-1), 2^e)``.  Bucket
    keys are integers whose order equals value order, so quantile
    extraction is one sorted walk.  Everything is integer arithmetic —
    recording, merging and querying are exact and deterministic.
    """

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    @staticmethod
    def bucket_key(value: int) -> int:
        """The (value-ordered) bucket key covering *value*."""
        v = int(value)
        if v < 0:
            v = 0
        if v < _LINEAR_MAX:
            return v
        e = v.bit_length()  # v in [2^(e-1), 2^e)
        sub = (v - (1 << (e - 1))) >> (e - 1 - _SUB_SHIFT)
        return (e << _SUB_SHIFT) | sub

    @staticmethod
    def bucket_estimate(key: int) -> int:
        """The mid-point estimate for bucket *key* (exact when linear)."""
        if key < _LINEAR_MAX:
            return key
        e = key >> _SUB_SHIFT
        sub = key & (SKETCH_SUBBUCKETS - 1)
        width = 1 << (e - 1 - _SUB_SHIFT)
        lo = (1 << (e - 1)) + sub * width
        return lo + width // 2

    def record(self, value: int) -> None:
        v = max(0, int(value))
        key = self.bucket_key(v)
        self.buckets[key] = self.buckets.get(key, 0) + 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def merge(self, other: "PercentileSketch") -> "PercentileSketch":
        """Fold *other* into this sketch (the mergeability contract)."""
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def merged(cls, sketches: Iterable["PercentileSketch"]
               ) -> "PercentileSketch":
        out = cls()
        for sketch in sketches:
            out.merge(sketch)
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Estimate the value at rank ``max(1, ceil(q * count))``.

        The exact value at that rank lies inside the returned bucket, so
        ``|estimate - exact| <= SKETCH_RELATIVE_ERROR * exact`` whenever
        the exact value is outside the (error-free) linear region.
        """
        if not self.count:
            return 0
        target = min(self.count, max(1, math.ceil(q * self.count)))
        seen = 0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen >= target:
                return self.bucket_estimate(key)
        return self.bucket_estimate(max(self.buckets))

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "p50": self.quantile(0.50), "p99": self.quantile(0.99),
                "p999": self.quantile(0.999)}


class WindowedSketch:
    """A sliding-window percentile sketch over simulated time.

    The window is sliced into ``slices`` ring buckets of
    ``window_ns / slices`` nanoseconds; each slice holds one
    :class:`PercentileSketch`.  Recording and querying evict slices older
    than the window *as a pure function of the supplied timestamp*, so
    the same event stream always yields the same estimates.
    """

    __slots__ = ("window_ns", "slices", "slice_ns", "_ring", "_min_idx",
                 "lifetime")

    def __init__(self, window_ns: int, slices: int = WINDOW_SLICES):
        if window_ns <= 0 or slices <= 0:
            raise ValueError("window_ns and slices must be positive")
        self.window_ns = int(window_ns)
        self.slices = int(slices)
        self.slice_ns = max(1, self.window_ns // self.slices)
        self._ring: Dict[int, PercentileSketch] = {}
        #: lower bound on every live ring index — eviction advances this
        #: pointer instead of scanning the whole ring per record
        self._min_idx = -(1 << 62)
        #: lifetime sketch (never evicted) — the whole-run distribution
        self.lifetime = PercentileSketch()

    def _evict(self, now_ns: int) -> None:
        floor = now_ns // self.slice_ns - self.slices
        if floor < self._min_idx:
            return
        ring = self._ring
        if not ring:
            self._min_idx = floor + 1
            return
        if floor + 1 - self._min_idx > len(ring):
            # sparse jump (idle stream): filter live keys instead of
            # walking the gap index by index
            for idx in [i for i in ring if i <= floor]:
                del ring[idx]
        else:
            pop = ring.pop
            for idx in range(self._min_idx, floor + 1):
                pop(idx, None)
        self._min_idx = floor + 1

    def record(self, ts_ns: int, value: int) -> None:
        self._evict(ts_ns)
        idx = ts_ns // self.slice_ns
        sketch = self._ring.get(idx)
        if sketch is None:
            sketch = self._ring[idx] = PercentileSketch()
            if idx < self._min_idx:
                self._min_idx = idx
        sketch.record(value)
        self.lifetime.record(value)

    def window(self, now_ns: int) -> PercentileSketch:
        """The merged sketch of all live slices at *now_ns*."""
        self._evict(now_ns)
        return PercentileSketch.merged(
            self._ring[i] for i in sorted(self._ring))

    def quantile(self, q: float, now_ns: int) -> int:
        return self.window(now_ns).quantile(q)

    def merge(self, other: "WindowedSketch") -> "WindowedSketch":
        """Slice-wise merge (both windows must agree on geometry)."""
        if (other.window_ns, other.slices) != (self.window_ns,
                                               self.slices):
            raise ValueError("cannot merge windows of different geometry")
        for idx, sketch in other._ring.items():
            mine = self._ring.get(idx)
            if mine is None:
                mine = self._ring[idx] = PercentileSketch()
                if idx < self._min_idx:
                    self._min_idx = idx
            mine.merge(sketch)
        self.lifetime.merge(other.lifetime)
        return self


class WindowedCounter:
    """Sliding-window good/bad counts over simulated time.

    Backed by ring buckets of ``bucket_ns``; :meth:`totals` sums the
    buckets inside ``(now - window, now]``.  One counter serves every
    window length up to ``span_ns`` (the burn-rate evaluator reads two
    windows from the same counter).

    Bookkeeping is incremental: running (good, bad) sums over the live
    span make full-window queries O(1), eviction advances a minimum-index
    pointer instead of scanning every bucket, and sub-span windows sum a
    contiguous index range (``window / bucket_ns`` lookups) rather than
    iterating the whole ring.  The answers are bit-identical to the
    original full-scan implementation — a bucket ``[idx*B, (idx+1)*B)``
    overlaps ``(lo, now]`` exactly when ``lo//B <= idx <= now//B``.
    """

    __slots__ = ("span_ns", "bucket_ns", "_buckets", "_min_idx",
                 "_max_idx", "_good", "_bad")

    def __init__(self, span_ns: int, bucket_ns: int):
        if span_ns <= 0 or bucket_ns <= 0:
            raise ValueError("span_ns and bucket_ns must be positive")
        self.span_ns = int(span_ns)
        self.bucket_ns = int(bucket_ns)
        self._buckets: Dict[int, List[int]] = {}  # idx -> [good, bad]
        self._min_idx = -(1 << 62)
        self._max_idx = -(1 << 62)
        # running totals over the live (un-evicted) buckets
        self._good = 0
        self._bad = 0

    def _evict(self, now_ns: int) -> None:
        floor = (now_ns - self.span_ns) // self.bucket_ns
        if floor <= self._min_idx:
            return
        buckets = self._buckets
        if not buckets:
            self._min_idx = floor
            return
        if floor - self._min_idx > len(buckets):
            # sparse jump (idle stream): filter live keys instead of
            # walking the gap index by index
            for idx in [i for i in buckets if i < floor]:
                good, bad = buckets.pop(idx)
                self._good -= good
                self._bad -= bad
        else:
            pop = buckets.pop
            for idx in range(self._min_idx, floor):
                slot = pop(idx, None)
                if slot is not None:
                    self._good -= slot[0]
                    self._bad -= slot[1]
        self._min_idx = floor

    def record(self, ts_ns: int, good: bool) -> None:
        self._evict(ts_ns)
        idx = ts_ns // self.bucket_ns
        slot = self._buckets.get(idx)
        if slot is None:
            slot = self._buckets[idx] = [0, 0]
            if idx > self._max_idx:
                self._max_idx = idx
            if idx < self._min_idx:
                self._min_idx = idx
        if good:
            slot[0] += 1
            self._good += 1
        else:
            slot[1] += 1
            self._bad += 1

    def totals(self, window_ns: int, now_ns: int) -> Tuple[int, int]:
        """(good, bad) inside ``(now - window, now]``."""
        self._evict(now_ns)
        buckets = self._buckets
        if not buckets:
            return 0, 0
        lo = now_ns - min(int(window_ns), self.span_ns)
        bucket_ns = self.bucket_ns
        idx_min = lo // bucket_ns
        idx_max = now_ns // bucket_ns
        if idx_min <= self._min_idx and idx_max >= self._max_idx:
            return self._good, self._bad  # every live bucket qualifies
        lo_i = idx_min if idx_min > self._min_idx else self._min_idx
        hi_i = idx_max if idx_max < self._max_idx else self._max_idx
        good = bad = 0
        if hi_i - lo_i + 1 < len(buckets):
            get = buckets.get
            for idx in range(lo_i, hi_i + 1):
                slot = get(idx)
                if slot is not None:
                    good += slot[0]
                    bad += slot[1]
        else:
            for idx, (g, b) in buckets.items():
                if idx_min <= idx <= idx_max:
                    good += g
                    bad += b
        return good, bad


class ExemplarReservoir:
    """Worst-k / median-band / failure exemplar trace ids, windowed.

    The sliding window mirrors :class:`WindowedSketch`'s ring-slice
    geometry; each live slice retains

    * the ``k`` **worst** latencies seen in the slice (with their trace
      ids and completion timestamps),
    * one **median-band** sample — the completion whose latency landed
      closest to the running lifetime p50, within ``band`` of it (the
      healthy baseline a triage diff compares the tail against), and
    * the last ``k`` **failed** invocations' trace ids.

    Retention is a pure function of the observation stream — same seed,
    same exemplars.
    """

    __slots__ = ("window_ns", "slice_ns", "slices", "k", "band",
                 "_ring", "_min_idx", "_p50", "_since_refresh")

    #: Refresh the cached lifetime-p50 hint every N observations (a
    #: sketch quantile walk per observation would dominate hot paths).
    P50_REFRESH_EVERY = 16

    def __init__(self, window_ns: int, slices: int = WINDOW_SLICES,
                 k: int = EXEMPLAR_K, band: float = 0.25):
        if window_ns <= 0 or slices <= 0 or k <= 0:
            raise ValueError("window_ns, slices and k must be positive")
        self.window_ns = int(window_ns)
        self.slices = int(slices)
        self.slice_ns = max(1, self.window_ns // self.slices)
        self.k = int(k)
        self.band = float(band)
        # idx -> {"worst": [(latency, ts, trace_id) desc],
        #         "median": (dist, ts, trace_id, latency) | None,
        #         "failed": [(ts, trace_id)]}
        self._ring: Dict[int, Dict[str, Any]] = {}
        self._min_idx = -(1 << 62)
        self._p50 = 0
        self._since_refresh = 0

    def _evict(self, now_ns: int) -> None:
        floor = now_ns // self.slice_ns - self.slices
        if floor < self._min_idx:
            return
        ring = self._ring
        for idx in [i for i in ring if i <= floor]:
            del ring[idx]
        self._min_idx = floor + 1

    def _slice(self, ts_ns: int) -> Dict[str, Any]:
        self._evict(ts_ns)
        idx = ts_ns // self.slice_ns
        slot = self._ring.get(idx)
        if slot is None:
            slot = self._ring[idx] = {"worst": [], "median": None,
                                      "failed": []}
            if idx < self._min_idx:
                self._min_idx = idx
        return slot

    def record(self, ts_ns: int, latency_ns: int, trace_id: str,
               lifetime: PercentileSketch) -> None:
        """Offer one completion."""
        if self._since_refresh == 0 and lifetime.count:
            self._p50 = lifetime.quantile(0.5)
        self._since_refresh = (self._since_refresh + 1) \
            % self.P50_REFRESH_EVERY
        slot = self._slice(ts_ns)
        worst = slot["worst"]
        if len(worst) < self.k or latency_ns > worst[-1][0]:
            worst.append((latency_ns, ts_ns, trace_id))
            worst.sort(key=lambda e: (-e[0], e[1], e[2]))
            del worst[self.k:]
        p50 = self._p50
        if p50 > 0 and abs(latency_ns - p50) <= self.band * p50:
            dist = abs(latency_ns - p50)
            median = slot["median"]
            if median is None or dist < median[0]:
                slot["median"] = (dist, ts_ns, trace_id, latency_ns)

    def note_failure(self, ts_ns: int, trace_id: str) -> None:
        """Offer one failed invocation."""
        slot = self._slice(ts_ns)
        failed = slot["failed"]
        failed.append((ts_ns, trace_id))
        if len(failed) > self.k:
            del failed[0]

    # -- read-back -----------------------------------------------------------

    def worst(self, now_ns: int) -> List[Dict[str, Any]]:
        """The k worst live-window exemplars, slowest first."""
        self._evict(now_ns)
        merged = [e for idx in sorted(self._ring)
                  for e in self._ring[idx]["worst"]]
        merged.sort(key=lambda e: (-e[0], e[1], e[2]))
        return [{"trace_id": tid, "latency_ns": lat, "ts_ns": ts}
                for lat, ts, tid in merged[:self.k]]

    def median(self, now_ns: int) -> Optional[Dict[str, Any]]:
        """The live-window sample closest to the running p50."""
        self._evict(now_ns)
        best = None
        for idx in sorted(self._ring):
            cand = self._ring[idx]["median"]
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
        if best is None:
            return None
        dist, ts, tid, lat = best
        return {"trace_id": tid, "latency_ns": lat, "ts_ns": ts}

    def failed(self, now_ns: int) -> List[Dict[str, Any]]:
        """The most recent failed-invocation exemplars, newest first."""
        self._evict(now_ns)
        merged = [e for idx in sorted(self._ring)
                  for e in self._ring[idx]["failed"]]
        merged.sort(key=lambda e: (-e[0], e[1]))
        return [{"trace_id": tid, "ts_ns": ts}
                for ts, tid in merged[:self.k]]

    def snapshot(self, now_ns: int) -> Dict[str, Any]:
        return {"worst": self.worst(now_ns),
                "median": self.median(now_ns),
                "failed": self.failed(now_ns)}


class Alert:
    """One burn-rate alert instance: an SLO breached for one fleet key."""

    __slots__ = ("slo", "key", "fired_ns", "cleared_ns",
                 "burn_long", "burn_short")

    def __init__(self, slo: SLO, key: FleetKey, fired_ns: int,
                 burn_long: float, burn_short: float):
        self.slo = slo
        self.key = key
        self.fired_ns = fired_ns
        self.cleared_ns: Optional[int] = None
        self.burn_long = burn_long
        self.burn_short = burn_short

    @property
    def active(self) -> bool:
        return self.cleared_ns is None

    def to_dict(self) -> Dict[str, Any]:
        tenant, workflow, transport = self.key
        return {"slo": self.slo.name, "tenant": tenant,
                "workflow": workflow, "transport": transport,
                "fired_ns": self.fired_ns, "cleared_ns": self.cleared_ns,
                "burn_long": round(self.burn_long, 6),
                "burn_short": round(self.burn_short, 6)}


class _SloState:
    """Per-(key, slo) burn-rate evaluation state."""

    __slots__ = ("counter", "alert")

    def __init__(self, slo: SLO):
        # one counter serves both windows; bucket at 1/8 short window so
        # the short burn rate has usable resolution
        self.counter = WindowedCounter(
            span_ns=slo.long_window_ns,
            bucket_ns=max(1, slo.short_window_ns // 8))
        self.alert: Optional[Alert] = None


#: Layer under which the monitor files its own metrics and alert events.
MONITOR_LAYER = "obs.monitor"


class FleetMonitor:
    """Streaming SLO monitor over a :class:`Telemetry` hub.

    Attach with :meth:`attach` (or construct and pass to
    ``repro.api.run(monitor=...)`` / ``run_chaos_workflow(monitor=...)``)
    and the monitor consumes the coordinator's ``invocation.done`` /
    ``invocation.failed`` / ``invocation.rejected`` events as they are
    recorded, maintaining:

    * a :class:`WindowedSketch` of end-to-end latency per
      ``(tenant, workflow, transport)``;
    * request / error rates over the same sliding window;
    * burn-rate alert state per (key, SLO), with transitions appended to
      :attr:`alerts` and mirrored onto the hub as
      ``obs.monitor`` ``alert.fired`` / ``alert.cleared`` events.
    """

    def __init__(self, slos: Optional[Iterable[SLO]] = None):
        self.slos: List[SLO] = list(DEFAULT_SLOS if slos is None
                                    else slos)
        # series window: the longest SLO window (so the series and the
        # alerts describe the same horizon)
        self.window_ns = max(
            [s.long_window_ns for s in self.slos] or [1_000_000_000])
        self.latency: Dict[FleetKey, WindowedSketch] = {}
        self.requests: Dict[FleetKey, WindowedCounter] = {}
        #: per-key exemplar reservoirs (worst-k / median-band / failed)
        self.exemplars: Dict[FleetKey, ExemplarReservoir] = {}
        #: lifetime admission rejections per key (also counted as *bad*
        #: in the windowed series, so availability folds them in)
        self.rejected_counts: Dict[FleetKey, int] = {}
        self.alerts: List[Alert] = []
        self.observed = 0
        #: simulated timestamp of the latest observation — the natural
        #: "now" for end-of-run snapshots/renders
        self.last_ts = 0
        self._slo_state: Dict[Tuple[FleetKey, str], _SloState] = {}
        #: per-key [(slo, state), ...] — resolved once per fleet key so
        #: the per-event hot path skips the tuple-keyed dict lookups
        self._key_states: Dict[FleetKey, List[Tuple[SLO, _SloState]]] = {}
        self._hub: Optional[Telemetry] = None

    # -- hub wiring ----------------------------------------------------------

    def attach(self, hub: Telemetry) -> "FleetMonitor":
        self._hub = hub
        hub.add_listener(self._on_event)
        return self

    def detach(self) -> None:
        if self._hub is not None:
            self._hub.remove_listener(self._on_event)
            self._hub = None

    def _on_event(self, event: Dict[str, Any]) -> None:
        if event["layer"] != "platform" \
                or event["name"] not in ("invocation.done",
                                         "invocation.failed",
                                         "invocation.rejected"):
            return
        attrs = event["attributes"]
        key = (attrs.get("tenant", "default"),
               attrs.get("workflow", "?"),
               attrs.get("transport", "?"))
        self.observe(event["ts"], key,
                     latency_ns=attrs.get("latency_ns"),
                     ok=event["name"] == "invocation.done",
                     rejected=event["name"] == "invocation.rejected",
                     trace_id=attrs.get("trace_id"))

    # -- ingestion -----------------------------------------------------------

    def observe(self, ts_ns: int, key: FleetKey,
                latency_ns: Optional[int], ok: bool,
                rejected: bool = False,
                trace_id: Optional[str] = None) -> None:
        """Feed one finished (or admission-rejected) invocation.

        Rejections count as *bad* in every window and SLO — a refused
        request burns availability budget exactly like a failed one — but
        are tallied separately so snapshots can tell refusals from
        failures.

        When *trace_id* is supplied, the invocation is offered to the
        key's :class:`ExemplarReservoir`.
        """
        self.observed += 1
        if rejected:
            self.rejected_counts[key] = \
                self.rejected_counts.get(key, 0) + 1
        if ts_ns > self.last_ts:
            self.last_ts = ts_ns
        sketch = self.latency.get(key)
        if sketch is None:
            sketch = self.latency[key] = WindowedSketch(self.window_ns)
        counter = self.requests.get(key)
        if counter is None:
            counter = self.requests[key] = WindowedCounter(
                self.window_ns,
                max(1, self.window_ns // (8 * WINDOW_SLICES)))
        counter.record(ts_ns, ok)
        if ok and latency_ns is not None:
            sketch.record(ts_ns, int(latency_ns))
        if trace_id is not None:
            reservoir = self.exemplars.get(key)
            if reservoir is None:
                reservoir = self.exemplars[key] = ExemplarReservoir(
                    self.window_ns)
            if ok and latency_ns is not None:
                reservoir.record(ts_ns, int(latency_ns), trace_id,
                                 sketch.lifetime)
            elif not rejected:
                reservoir.note_failure(ts_ns, trace_id)
        states = self._key_states.get(key)
        if states is None:
            states = self._key_states[key] = [
                (slo, self._slo_state.setdefault((key, slo.name),
                                                 _SloState(slo)))
                for slo in self.slos]
        for slo, state in states:
            self._evaluate(slo, state, key, ts_ns, latency_ns, ok)

    # -- burn-rate evaluation ------------------------------------------------

    def _evaluate(self, slo: SLO, state: _SloState, key: FleetKey,
                  ts_ns: int, latency_ns: Optional[int],
                  ok: bool) -> None:
        state.counter.record(ts_ns, slo.is_good(latency_ns, ok))
        burn_long = self._burn(state, slo, slo.long_window_ns, ts_ns)
        burn_short = self._burn(state, slo, slo.short_window_ns, ts_ns)
        firing = state.alert is not None and state.alert.active
        if not firing and burn_long >= slo.burn_rate_threshold \
                and burn_short >= slo.burn_rate_threshold:
            alert = Alert(slo, key, ts_ns, burn_long, burn_short)
            state.alert = alert
            self.alerts.append(alert)
            self._emit(key, "alert.fired", alert)
        elif firing and burn_short < slo.burn_rate_threshold:
            state.alert.cleared_ns = ts_ns
            self._emit(key, "alert.cleared", state.alert)

    @staticmethod
    def _burn(state: _SloState, slo: SLO, window_ns: int,
              now_ns: int) -> float:
        good, bad = state.counter.totals(window_ns, now_ns)
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / slo.error_budget

    def _emit(self, key: FleetKey, name: str, alert: Alert) -> None:
        if self._hub is None:
            return
        tenant, workflow, transport = key
        self._hub.count("cluster", MONITOR_LAYER, f"{name}.count")
        self._hub.event("cluster", MONITOR_LAYER, name,
                        slo=alert.slo.name, tenant=tenant,
                        workflow=workflow, transport=transport,
                        burn_long=round(alert.burn_long, 6),
                        burn_short=round(alert.burn_short, 6))

    # -- read-back -----------------------------------------------------------

    def keys(self) -> List[FleetKey]:
        return sorted(self.latency)

    def active_alerts(self) -> List[Alert]:
        return [a for a in self.alerts if a.active]

    def exemplars_for(self, key: FleetKey,
                      now_ns: Optional[int] = None
                      ) -> Optional[Dict[str, Any]]:
        """Live-window exemplars for *key* (worst / median / failed), or
        ``None`` when the key never carried a trace id."""
        reservoir = self.exemplars.get(key)
        if reservoir is None:
            return None
        return reservoir.snapshot(self.last_ts if now_ns is None
                                  else now_ns)

    def quantile(self, key: FleetKey, q: float, now_ns: int) -> int:
        sketch = self.latency.get(key)
        return sketch.quantile(q, now_ns) if sketch is not None else 0

    def rate_per_s(self, key: FleetKey, now_ns: int) -> float:
        """Completed+failed invocations per simulated second, windowed."""
        counter = self.requests.get(key)
        if counter is None:
            return 0.0
        good, bad = counter.totals(self.window_ns, now_ns)
        return (good + bad) * 1e9 / self.window_ns

    def availability(self, key: FleetKey, now_ns: int) -> float:
        counter = self.requests.get(key)
        if counter is None:
            return 1.0
        good, bad = counter.totals(self.window_ns, now_ns)
        return good / (good + bad) if good + bad else 1.0

    def snapshot(self, now_ns: Optional[int] = None) -> Dict[str, Any]:
        """A JSON-ready view of every fleet series and the alert log
        (at *now_ns*, default: the latest observation)."""
        now_ns = self.last_ts if now_ns is None else now_ns
        series = []
        for key in self.keys():
            tenant, workflow, transport = key
            window = self.latency[key].window(now_ns)
            good, bad = self.requests[key].totals(self.window_ns, now_ns)
            series.append({
                "tenant": tenant, "workflow": workflow,
                "transport": transport,
                "window_ns": self.window_ns,
                "requests": good + bad, "failures": bad,
                "rejections": self.rejected_counts.get(key, 0),
                "availability": round(self.availability(key, now_ns), 6),
                "rate_per_s": round(self.rate_per_s(key, now_ns), 6),
                "latency": window.to_dict(),
                "latency_lifetime": self.latency[key].lifetime.to_dict(),
            })
        return {
            "observed": self.observed,
            "slos": [s.to_dict() for s in self.slos],
            "series": series,
            "alerts": [a.to_dict() for a in self.alerts],
        }

    def render(self, now_ns: Optional[int] = None) -> str:
        """The monitor state as ranked text tables."""
        from repro.analysis.report import Table

        now_ns = self.last_ts if now_ns is None else now_ns
        lines = []
        table = Table(
            f"Fleet monitor @ {now_ns / 1e6:.3f} ms simulated "
            f"({self.observed} invocations observed)",
            ["tenant", "workflow", "transport", "req", "avail",
             "p50_ms", "p99_ms"])
        for key in self.keys():
            tenant, workflow, transport = key
            good, bad = self.requests[key].totals(self.window_ns, now_ns)
            table.add_row(
                tenant, workflow, transport, good + bad,
                f"{100 * self.availability(key, now_ns):.2f}%",
                f"{self.quantile(key, 0.5, now_ns) / 1e6:.3f}",
                f"{self.quantile(key, 0.99, now_ns) / 1e6:.3f}")
        lines.append(table.render())
        if self.alerts:
            alert_table = Table("SLO alerts", ["slo", "key", "fired_ns",
                                               "cleared_ns"])
            for alert in self.alerts:
                alert_table.add_row(
                    alert.slo.name, "/".join(alert.key), alert.fired_ns,
                    alert.cleared_ns if alert.cleared_ns is not None
                    else "ACTIVE")
            lines.append(alert_table.render())
        else:
            lines.append("no SLO alerts fired")
        return "\n".join(lines)
