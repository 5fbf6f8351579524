"""Fleet-scale monitoring over the telemetry hub, in simulated time.

The profiler (:mod:`repro.obs.profile`) explains one invocation after the
fact; this module watches a whole fleet run *while it happens* — a
thousand-request Fig 12 load test, a chaos drill — and keeps the
distributional view the paper's headline results are made of:

* :class:`WindowedSketch` / :class:`WindowedCounter` /
  :class:`ExemplarReservoir` — sliding windows over simulated
  nanoseconds, each one :class:`SlicedRing` of per-slice payloads so
  eviction is a pure function of the simulated clock.  The sketch is the
  hub's own :class:`~repro.obs.telemetry.PercentileSketch`, whose
  estimates carry a *tested* relative-error bound
  (:data:`~repro.obs.telemetry.SKETCH_RELATIVE_ERROR`, 3.125 %) against
  exact sorted percentiles;
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

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.slo import SLO, DEFAULT_SLOS
from repro.obs.telemetry import PercentileSketch, Telemetry

#: Key every fleet series is labeled by.
FleetKey = Tuple[str, str, str]  # (tenant, workflow, transport)

#: Ring slices per sliding window (sketches, exemplars).
WINDOW_SLICES = 8

#: Worst / failed exemplar trace ids kept per window slice and fleet key.
EXEMPLAR_K = 3

#: Median-band half-width, as a fraction of the running p50.
EXEMPLAR_BAND = 0.25


class SlicedRing:
    """Simulated time cut into slices, each holding one payload.

    Slice ``idx`` covers ``[idx * slice_ns, (idx + 1) * slice_ns)`` and
    is live at *now* while ``idx >= (now - lag_ns) // slice_ns``.  The
    payload is whatever the owning window keeps per slice — a
    :class:`PercentileSketch`, a ``[good, bad]`` pair, an exemplar slot.
    Eviction is a pure function of the supplied timestamps, so the same
    event stream always yields the same live slices.
    """

    __slots__ = ("slice_ns", "lag_ns", "slots", "min_idx", "max_idx")

    def __init__(self, slice_ns: int, lag_ns: int):
        self.slice_ns = slice_ns
        self.lag_ns = lag_ns
        self.slots: Dict[int, Any] = {}
        #: lower bound on every live index — eviction advances this
        #: pointer instead of scanning the whole ring per record
        self.min_idx = -(1 << 62)
        #: upper bound on every live index (the newest slice made)
        self.max_idx = -(1 << 62)

    @classmethod
    def window(cls, window_ns: int) -> "SlicedRing":
        """The :data:`WINDOW_SLICES` newest slices of a *window_ns*
        sliding window."""
        slice_ns = max(1, window_ns // WINDOW_SLICES)
        return cls(slice_ns, (WINDOW_SLICES - 1) * slice_ns)

    def evict(self, now_ns: int) -> List[Any]:
        """Drop every slice no longer live at *now_ns*; return their
        payloads."""
        lo = (now_ns - self.lag_ns) // self.slice_ns
        if lo <= self.min_idx:
            return []
        slots = self.slots
        if lo - self.min_idx > len(slots):
            # sparse jump (idle stream): filter live keys instead of
            # walking the gap index by index
            dead = [idx for idx in slots if idx < lo]
        else:
            dead = [idx for idx in range(self.min_idx, lo) if idx in slots]
        self.min_idx = lo
        return [slots.pop(idx) for idx in dead]

    def slot(self, ts_ns: int, factory: Callable[[], Any]) -> Any:
        """The payload of *ts_ns*'s slice, made by *factory* when new."""
        idx = ts_ns // self.slice_ns
        payload = self.slots.get(idx)
        if payload is None:
            payload = self.slots[idx] = factory()
            if idx < self.min_idx:
                self.min_idx = idx
            if idx > self.max_idx:
                self.max_idx = idx
        return payload

    def between(self, t0_ns: int, t1_ns: int) -> Optional[List[Any]]:
        """The payloads of the slices ``t0//B <= idx <= t1//B`` (those
        overlapping ``[t0, t1]``), or ``None`` when that is every live
        slice; a narrow range is walked index by index."""
        slots = self.slots
        lo, hi = t0_ns // self.slice_ns, t1_ns // self.slice_ns
        if lo <= self.min_idx and hi >= self.max_idx:
            return None
        lo_i, hi_i = max(lo, self.min_idx), min(hi, self.max_idx)
        if hi_i - lo_i + 1 < len(slots):
            return [payload for payload in map(slots.get,
                                               range(lo_i, hi_i + 1))
                    if payload is not None]
        return [payload for idx, payload in slots.items()
                if lo <= idx <= hi]

    def live(self, now_ns: int) -> List[Any]:
        """The payloads live at *now_ns*, oldest slice first."""
        self.evict(now_ns)
        return [self.slots[idx] for idx in sorted(self.slots)]


class WindowedSketch:
    """A sliding-window percentile sketch over simulated time.

    The window is sliced into :data:`WINDOW_SLICES` ring slices of
    ``window_ns / WINDOW_SLICES`` nanoseconds; each slice holds one
    :class:`PercentileSketch`.  Recording and querying evict slices older
    than the window *as a pure function of the supplied timestamp*, so
    the same event stream always yields the same estimates.
    """

    __slots__ = ("window_ns", "_ring", "lifetime")

    def __init__(self, window_ns: int):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.window_ns = int(window_ns)
        self._ring = SlicedRing.window(self.window_ns)
        #: lifetime sketch (never evicted) — the whole-run distribution
        self.lifetime = PercentileSketch()

    def record(self, ts_ns: int, value: int) -> None:
        self._ring.evict(ts_ns)
        self._ring.slot(ts_ns, PercentileSketch).record(value)
        self.lifetime.record(value)

    def window(self, now_ns: int) -> PercentileSketch:
        """The merged sketch of all live slices at *now_ns*."""
        return PercentileSketch.merged(self._ring.live(now_ns))

    def quantile(self, q: float, now_ns: int) -> int:
        return self.window(now_ns).quantile(q)

    def merge(self, other: "WindowedSketch") -> "WindowedSketch":
        """Slice-wise merge (both windows must span the same time)."""
        if other.window_ns != self.window_ns:
            raise ValueError("cannot merge windows of different geometry")
        ring = self._ring
        for idx, sketch in other._ring.slots.items():
            ring.slot(idx * ring.slice_ns, PercentileSketch).merge(sketch)
        self.lifetime.merge(other.lifetime)
        return self


class WindowedCounter:
    """Sliding-window good/bad counts over simulated time.

    Backed by ring slices of ``bucket_ns``; :meth:`totals` sums the
    slices inside ``(now - window, now]``.  One counter serves every
    window length up to ``span_ns`` (the burn-rate evaluator reads two
    windows from the same counter).

    Bookkeeping is incremental: running (good, bad) sums over the live
    span make full-window queries O(1), and sub-span windows sum only
    the slices :meth:`SlicedRing.between` picks.
    """

    __slots__ = ("span_ns", "_ring", "_good", "_bad")

    def __init__(self, span_ns: int, bucket_ns: int):
        if span_ns <= 0 or bucket_ns <= 0:
            raise ValueError("span_ns and bucket_ns must be positive")
        self.span_ns = int(span_ns)
        self._ring = SlicedRing(int(bucket_ns), self.span_ns)
        # running totals over the live (un-evicted) slices
        self._good = 0
        self._bad = 0

    def _expire(self, now_ns: int) -> None:
        """Evict what fell out of the span, and its running totals."""
        for good, bad in self._ring.evict(now_ns):
            self._good -= good
            self._bad -= bad

    def record(self, ts_ns: int, good: bool) -> None:
        self._expire(ts_ns)
        slot = self._ring.slot(ts_ns, lambda: [0, 0])
        if good:
            slot[0] += 1
            self._good += 1
        else:
            slot[1] += 1
            self._bad += 1

    def totals(self, window_ns: int, now_ns: int) -> Tuple[int, int]:
        """(good, bad) inside ``(now - window, now]``."""
        self._expire(now_ns)
        lo = now_ns - min(int(window_ns), self.span_ns)
        live = self._ring.between(lo, now_ns)
        if live is None:
            return self._good, self._bad  # every live slice qualifies
        good = bad = 0
        for g, b in live:
            good += g
            bad += b
        return good, bad


class ExemplarReservoir:
    """Worst-k / median-band / failure exemplar trace ids, windowed.

    The sliding window has :class:`WindowedSketch`'s ring-slice
    geometry; each live slice retains

    * the :data:`EXEMPLAR_K` **worst** latencies seen in the slice (with
      their trace ids and completion timestamps),
    * one **median-band** sample — the completion whose latency landed
      closest to the running lifetime p50, within :data:`EXEMPLAR_BAND`
      of it (the healthy baseline a triage diff compares the tail
      against), and
    * the last :data:`EXEMPLAR_K` **failed** invocations' trace ids.

    Retention is a pure function of the observation stream — same seed,
    same exemplars.
    """

    __slots__ = ("_ring", "_p50", "_since_refresh")

    #: Refresh the cached lifetime-p50 hint every N observations (a
    #: sketch quantile walk per observation would dominate hot paths).
    P50_REFRESH_EVERY = 16

    def __init__(self, window_ns: int):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        # idx -> {"worst": [(latency, ts, trace_id) desc],
        #         "median": (dist, ts, trace_id, latency) | None,
        #         "failed": [(ts, trace_id)]}
        self._ring = SlicedRing.window(int(window_ns))
        self._p50 = 0
        self._since_refresh = 0

    def _slice(self, ts_ns: int) -> Dict[str, Any]:
        self._ring.evict(ts_ns)
        return self._ring.slot(
            ts_ns, lambda: {"worst": [], "median": None, "failed": []})

    def record(self, ts_ns: int, latency_ns: int, trace_id: str,
               lifetime: PercentileSketch) -> None:
        """Offer one completion."""
        if self._since_refresh == 0 and lifetime.count:
            self._p50 = lifetime.quantile(0.5)
        self._since_refresh = (self._since_refresh + 1) \
            % self.P50_REFRESH_EVERY
        slot = self._slice(ts_ns)
        worst = slot["worst"]
        if len(worst) < EXEMPLAR_K or latency_ns > worst[-1][0]:
            worst.append((latency_ns, ts_ns, trace_id))
            worst.sort(key=lambda e: (-e[0], e[1], e[2]))
            del worst[EXEMPLAR_K:]
        p50 = self._p50
        if p50 > 0 and abs(latency_ns - p50) <= EXEMPLAR_BAND * p50:
            dist = abs(latency_ns - p50)
            median = slot["median"]
            if median is None or dist < median[0]:
                slot["median"] = (dist, ts_ns, trace_id, latency_ns)

    def note_failure(self, ts_ns: int, trace_id: str) -> None:
        """Offer one failed invocation."""
        slot = self._slice(ts_ns)
        failed = slot["failed"]
        failed.append((ts_ns, trace_id))
        if len(failed) > EXEMPLAR_K:
            del failed[0]

    # -- read-back -----------------------------------------------------------

    def worst(self, now_ns: int) -> List[Dict[str, Any]]:
        """The k worst live-window exemplars, slowest first."""
        merged = [e for slot in self._ring.live(now_ns)
                  for e in slot["worst"]]
        merged.sort(key=lambda e: (-e[0], e[1], e[2]))
        return [{"trace_id": tid, "latency_ns": lat, "ts_ns": ts}
                for lat, ts, tid in merged[:EXEMPLAR_K]]

    def median(self, now_ns: int) -> Optional[Dict[str, Any]]:
        """The live-window sample closest to the running p50."""
        best = None
        for slot in self._ring.live(now_ns):
            cand = slot["median"]
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
        if best is None:
            return None
        dist, ts, tid, lat = best
        return {"trace_id": tid, "latency_ns": lat, "ts_ns": ts}

    def failed(self, now_ns: int) -> List[Dict[str, Any]]:
        """The most recent failed-invocation exemplars, newest first."""
        merged = [e for slot in self._ring.live(now_ns)
                  for e in slot["failed"]]
        merged.sort(key=lambda e: (-e[0], e[1]))
        return [{"trace_id": tid, "ts_ns": ts}
                for ts, tid in merged[:EXEMPLAR_K]]

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
        #: per-key [(slo, burn-rate state), ...], one per SLO
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
                (slo, _SloState(slo)) for slo in self.slos]
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
