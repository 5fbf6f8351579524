"""The cross-layer telemetry hub.

A :class:`Telemetry` hub collects counters, gauges, log-binned histograms,
structured events and finished spans from every layer of the simulated
stack, keyed by ``(machine, layer, name)``.  It is a pure *clock
observer*: no hub operation ever charges a ledger or advances simulated
time, so an instrumented run produces byte-identical Fig 11 T/N/R totals.

Instrumentation points follow one pattern::

    from repro.obs import current as obs_hub
    ...
    hub = obs_hub()
    if hub is not None:
        hub.count(machine, "net.rdma", "reads")

With no hub installed (the default) the cost is one global read and a
``None`` check.  Installation is process-global and explicit —
:func:`install` / :func:`uninstall`, or the :func:`capture` context
manager — mirroring how tracing is opt-in.

Determinism: every recorded value derives from the simulated clock and the
seeded simulation — no layer reads the host clock into the hub — so same
seed ⇒ identical :meth:`Telemetry.snapshot`.

Causal spans: every span carries ``span_id`` / ``parent_id`` /
``trace_id`` fields so a run's spans form one rooted tree that
:mod:`repro.obs.profile` can walk.  Substrate layers (kernel, net) run
synchronously and *charge* ledgers rather than advancing the clock, so
their spans are recorded as deferred *ops* — offsets into the ledger's
pending charge — and materialize into absolute intervals when the
enclosing simulation process drains that ledger (:meth:`Telemetry.op`,
:meth:`Telemetry.commit_ops`).  Like every other hub operation the op
path never touches a ledger or the event queue.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (machine, layer, name) — the key every metric is filed under.
MetricKey = Tuple[str, str, str]

#: Stored-event cap: past it the newest event is dropped (and counted in
#: ``dropped_events``); listeners still see every event.
MAX_EVENTS = 20_000

#: Samples each decimated counter/gauge series keeps (see :class:`_Series`).
SERIES_CAP = 512


class Histogram:
    """A log2-binned histogram over non-negative integers (ns domain).

    Bin ``b`` holds values whose bit length is ``b``: bin 0 is exactly 0,
    bin 1 is {1}, bin 2 is [2, 3], bin ``b`` is [2**(b-1), 2**b - 1].
    Integer-only arithmetic keeps recording exact and deterministic.

    Storage is a preallocated flat array indexed by bit length (64 bins
    cover every int64 nanosecond value), so :meth:`record` is two integer
    ops and an array store — no dict hashing, no allocation.  ``bins``
    stays the sparse-dict view the exporters and tests consume.
    """

    __slots__ = ("_bins", "count", "sum", "min", "max")

    #: int64 ns values have bit_length <= 63; the array grows on demand
    #: for anything wider.
    _PREALLOC = 64

    def __init__(self):
        self._bins: List[int] = [0] * self._PREALLOC
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        v = int(value)
        if v < 0:
            v = 0
        b = v.bit_length()
        bins = self._bins
        if b >= len(bins):
            bins.extend([0] * (b + 1 - len(bins)))
        bins[b] += 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def bins(self) -> Dict[int, int]:
        """Sparse ``{bit_length: count}`` view of the non-empty bins."""
        return {b: n for b, n in enumerate(self._bins) if n}

    @staticmethod
    def bin_bounds(b: int) -> Tuple[int, int]:
        """Inclusive [lo, hi] value range of bin *b*."""
        if b <= 0:
            return (0, 0)
        return (1 << (b - 1), (1 << b) - 1)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Approximate quantile: the upper bound of the covering bin."""
        if not self.count:
            return 0
        target = max(1, int(q * self.count + 0.999999))
        bins = self.bins
        seen = 0
        for b in sorted(bins):
            seen += bins[b]
            if seen >= target:
                return self.bin_bounds(b)[1]
        return self.bin_bounds(max(bins))[1]

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "bins": {str(b): n for b, n in sorted(self.bins.items())}}


class _Series:
    """A decimated (ts, value) time series for one counter/gauge.

    Keeps at most *cap* samples: when full, every other sample is dropped
    and the sampling stride doubles.  Decimation depends only on the
    number of updates, never on wall time, so it is deterministic.
    """

    __slots__ = ("samples", "stride", "cap", "_updates")

    def __init__(self, cap: int = SERIES_CAP):
        self.samples: List[Tuple[int, int]] = []
        self.stride = 1
        self.cap = cap
        self._updates = 0

    def add(self, ts: int, value: int) -> None:
        self._updates += 1
        if self._updates % self.stride:
            return
        self.samples.append((ts, value))
        if len(self.samples) >= self.cap:
            self.samples = self.samples[::2]
            self.stride *= 2


class Telemetry:
    """Hub carrying all telemetry of one (or several sequential) runs.

    All mutating methods are cheap and allocation-light; none touches a
    ledger or the event queue.  ``clock`` is attached by the simulation
    engine (see :meth:`attach_clock`); before any engine exists it reads 0.

    Every span is stored.  Stored events stop at :data:`MAX_EVENTS`
    (drop-newest, counted in ``dropped_events``); listeners and the
    counters/gauges/histograms see everything regardless.
    """

    __slots__ = ("counters", "gauges", "histograms", "events", "spans",
                 "series", "dropped_events", "records", "events_seen",
                 "timelines", "lineage", "_clock", "_clock_owner",
                 "_next_span_id", "_listeners", "_ops")

    def __init__(self):
        self.counters: Dict[MetricKey, int] = {}
        self.gauges: Dict[MetricKey, int] = {}
        self.histograms: Dict[MetricKey, Histogram] = {}
        self.events: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.series: Dict[MetricKey, _Series] = {}
        self.dropped_events = 0
        #: total recording calls (counters+gauges+histograms+events+spans)
        #: — the numerator of the bench harness's hub records/sec metric
        self.records = 0
        #: exact event total, including events the cap dropped
        self.events_seen = 0
        #: optional bounded resource-saturation series recorder
        #: (:class:`repro.obs.timeline.TimelineRecorder`); ``None`` until
        #: :meth:`enable_timelines` — the counter/gauge hot paths pay one
        #: attribute check when disabled.
        self.timelines = None
        #: optional page-provenance tracker
        #: (:class:`repro.obs.lineage.LineageTracker`); ``None`` until
        #: :meth:`enable_lineage` — instrumentation sites pay one
        #: attribute check when disabled.
        self.lineage = None
        self._clock: Callable[[], int] = lambda: 0
        self._clock_owner: Optional[object] = None
        self._next_span_id = 1
        # live streaming consumers (e.g. repro.obs.monitor.FleetMonitor):
        # called with every event dict, including ones the storage cap
        # drops, so monitoring long runs never loses samples
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []
        # deferred ops, keyed by id(ledger); the entry pins the ledger
        # object so the id cannot be recycled while ops are pending
        self._ops: Dict[int, Dict[str, Any]] = {}

    # -- clock ---------------------------------------------------------------

    def attach_clock(self, engine) -> None:
        """Follow *engine*'s simulated clock (idempotent per engine).

        Experiments that build several engines sequentially re-attach as
        each engine starts running; timestamps always come from the engine
        currently driving the simulation.
        """
        if self._clock_owner is engine:
            return
        self._clock_owner = engine
        self._clock = lambda: engine.now

    def now(self) -> int:
        return self._clock()

    # -- recording -----------------------------------------------------------

    def count(self, machine: str, layer: str, name: str,
              value: int = 1) -> None:
        """Add *value* to a monotonically growing counter."""
        key = (machine, layer, name)
        counters = self.counters
        total = counters.get(key, 0) + int(value)
        counters[key] = total
        self.records += 1
        ts = self._clock()
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _Series()
        series.add(ts, total)
        if self.timelines is not None:
            self.timelines.record(key, ts, total)

    def gauge(self, machine: str, layer: str, name: str,
              value: int) -> None:
        """Set a point-in-time gauge."""
        key = (machine, layer, name)
        value = int(value)
        self.gauges[key] = value
        self.records += 1
        ts = self._clock()
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _Series()
        series.add(ts, value)
        if self.timelines is not None:
            self.timelines.record(key, ts, value)

    def gauge_max(self, machine: str, layer: str, name: str,
                  value: int) -> None:
        """Raise a high-water-mark gauge (no-op when below the mark)."""
        key = (machine, layer, name)
        value = int(value)
        self.records += 1
        if value > self.gauges.get(key, -(1 << 62)):
            self.gauges[key] = value
            self._sample(key, value)
            if self.timelines is not None:
                self.timelines.record(key, self._clock(), value)

    def observe(self, machine: str, layer: str, name: str,
                value: int) -> None:
        """Record *value* into a log-binned histogram."""
        key = (machine, layer, name)
        self.records += 1
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.record(value)

    def add_listener(self,
                     listener: Callable[[Dict[str, Any]], None]) -> None:
        """Stream every future event dict to *listener*.

        Listeners must be pure observers (no ledger, no clock, no event
        queue); they see events even when the storage cap drops them.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(
            self, listener: Callable[[Dict[str, Any]], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def event(self, machine: str, layer: str, name: str,
              **attributes: Any) -> None:
        """Record one timestamped structured event.

        Listeners always see every event; the stored copy is dropped
        once :data:`MAX_EVENTS` are held.
        """
        self.records += 1
        self.events_seen += 1
        record = {"ts": self._clock(), "machine": machine,
                  "layer": layer, "name": name,
                  "attributes": attributes}
        for listener in self._listeners:
            listener(record)
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        self.events.append(record)

    def new_span_id(self) -> int:
        """Mint a process-unique, deterministic span id."""
        sid = self._next_span_id
        self._next_span_id += 1
        return sid

    def span(self, machine: str, layer: str, name: str, start_ns: int,
             end_ns: int, span_id: Optional[int] = None,
             parent_id: Optional[int] = None,
             trace_id: Optional[str] = None,
             **attributes: Any) -> int:
        """Record one finished interval.

        ``span_id`` defaults to a fresh id; ``parent_id`` links the span
        into its causal parent and ``trace_id`` names the rooted tree it
        belongs to (one tree per workflow invocation).  Returns the
        span's id so callers can parent children under it.
        """
        self.records += 1
        if span_id is None:
            span_id = self.new_span_id()
        self.spans.append({"machine": machine, "layer": layer,
                           "name": name, "start_ns": int(start_ns),
                           "end_ns": int(end_ns), "span_id": span_id,
                           "parent_id": parent_id, "trace_id": trace_id,
                           "attributes": attributes})
        return span_id

    # -- saturation timelines & lineage ---------------------------------------

    def enable_timelines(self):
        """Attach (or return) the resource-saturation timeline recorder.

        Every subsequent counter/gauge update also lands in a bounded
        :class:`~repro.obs.timeline.Timeline` keyed by the metric key —
        the input of :mod:`repro.obs.triage`'s saturation correlation.
        Idempotent; returns the recorder.
        """
        if self.timelines is None:
            from repro.obs.timeline import TimelineRecorder
            self.timelines = TimelineRecorder()
        return self.timelines

    def enable_lineage(self):
        """Attach (or return) the page-provenance lineage tracker.

        Every subsequent state transfer is tracked page by page —
        registration, remote mapping, pulls, CoW divergence, consumer
        access — feeding :meth:`repro.obs.lineage.LineageTracker.report`.
        Idempotent; returns the tracker.  Pure observer: enabling lineage
        never perturbs the simulation.
        """
        if self.lineage is None:
            from repro.obs.lineage import LineageTracker
            self.lineage = LineageTracker(hub=self)
        return self.lineage

    # -- deferred ops (substrate layers) -------------------------------------

    def _op_state(self, ledger) -> Dict[str, Any]:
        state = self._ops.get(id(ledger))
        if state is None:
            state = self._ops[id(ledger)] = {"ledger": ledger,
                                             "stack": [], "top": []}
        return state

    def op_begin(self, machine: str, layer: str, name: str, ledger,
                 **attributes: Any) -> Dict[str, Any]:
        """Open a deferred op spanning *ledger* charges until ``op_end``.

        The op's extent is recorded as ``[pending-at-begin,
        pending-at-end]`` offsets into the ledger's undrained charge;
        nested ``op``/``op_begin`` calls against the same ledger become
        children.  Pair with :meth:`op_end` in a ``finally`` block.
        """
        state = self._op_state(ledger)
        frame = {"machine": machine, "layer": layer, "name": name,
                 "start_off": ledger.pending, "end_off": None,
                 "attributes": attributes, "children": []}
        state["stack"].append(frame)
        return frame

    def op_end(self, frame: Dict[str, Any], ledger) -> None:
        """Close a deferred op opened by :meth:`op_begin`."""
        state = self._op_state(ledger)
        frame["end_off"] = ledger.pending
        stack = state["stack"]
        if any(f is frame for f in stack):
            while stack[-1] is not frame:  # close leaked nested frames
                self.op_end(stack[-1], ledger)
            stack.pop()
        parent = stack[-1] if stack else None
        target = parent["children"] if parent is not None else state["top"]
        target.append(frame)

    def op(self, machine: str, layer: str, name: str, ledger,
           cost_ns: int, count: int = 1, gap_ns: int = 0,
           **attributes: Any) -> None:
        """Record *count* leaf ops of *cost_ns* each, *gap_ns* apart, the
        first starting where the pending charge stood before their sum
        (call immediately after the ``ledger.charge`` of it); with no gap
        they lie back to back and end at the pending charge."""
        state = self._op_state(ledger)
        stack = state["stack"]
        target = stack[-1]["children"] if stack else state["top"]
        cost_ns = int(cost_ns)
        end = ledger.pending - (count - 1) * cost_ns
        for _ in range(count):
            target.append({"machine": machine, "layer": layer, "name": name,
                           "start_off": max(0, end - cost_ns),
                           "end_off": end, "attributes": attributes,
                           "children": []})
            end += cost_ns + gap_ns

    def commit_ops(self, ledger, start_ns: int, window_ns: int,
                   parent_id: Optional[int] = None,
                   trace_id: Optional[str] = None) -> None:
        """Materialize *ledger*'s pending ops into absolute spans.

        Call right after ``ns = ledger.drain()`` with the drain instant
        and the drained ``window_ns``: an op at offsets ``[a, b]``
        becomes a span over ``[start_ns + a, start_ns + b]``.  Ops whose
        offsets fall outside the window (stale survivors of an
        uncommitted drain) are clipped or dropped.
        """
        state = self._ops.pop(id(ledger), None)
        if state is None:
            return
        for frame in state["stack"]:  # leaked frames: close at window end
            if frame["end_off"] is None:
                frame["end_off"] = window_ns
        roots = state["top"] + state["stack"]

        def emit(frame: Dict[str, Any], parent: Optional[int]) -> None:
            start = min(frame["start_off"], window_ns)
            end = min(frame["end_off"], window_ns)
            if start >= window_ns and end - start <= 0 and window_ns > 0:
                return  # entirely outside the drained window
            sid = self.span(frame["machine"], frame["layer"],
                            frame["name"], start_ns + start,
                            start_ns + end, parent_id=parent,
                            trace_id=trace_id, **frame["attributes"])
            for child in frame["children"]:
                emit(child, sid)

        for frame in roots:
            emit(frame, parent_id)

    def discard_ops(self, ledger) -> None:
        """Drop *ledger*'s pending ops (failed attempt / retry path)."""
        self._ops.pop(id(ledger), None)

    def _sample(self, key: MetricKey, value: int) -> None:
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _Series()
        series.add(self._clock(), value)

    # -- introspection -------------------------------------------------------

    def layers(self) -> List[str]:
        """Distinct layers that recorded anything."""
        seen = {k[1] for k in self.counters}
        seen.update(k[1] for k in self.gauges)
        seen.update(k[1] for k in self.histograms)
        seen.update(e["layer"] for e in self.events)
        seen.update(s["layer"] for s in self.spans)
        return sorted(seen)

    def counter(self, machine: str, layer: str, name: str) -> int:
        return self.counters.get((machine, layer, name), 0)

    def total(self, layer: str, name: str) -> int:
        """Sum one counter name across machines within a layer."""
        return sum(v for (_m, lyr, n), v in self.counters.items()
                   if lyr == layer and n == name)

    def iter_metrics(self) -> Iterator[Tuple[str, MetricKey, Any]]:
        """(kind, key, value) over counters, gauges and histograms."""
        for key in sorted(self.counters):
            yield "counter", key, self.counters[key]
        for key in sorted(self.gauges):
            yield "gauge", key, self.gauges[key]
        for key in sorted(self.histograms):
            yield "histogram", key, self.histograms[key]

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready dict of everything the hub holds."""
        return {
            "counters": [
                {"machine": m, "layer": lyr, "name": n, "value": v}
                for (m, lyr, n), v in sorted(self.counters.items())],
            "gauges": [
                {"machine": m, "layer": lyr, "name": n, "value": v}
                for (m, lyr, n), v in sorted(self.gauges.items())],
            "histograms": [
                {"machine": m, "layer": lyr, "name": n,
                 **self.histograms[(m, lyr, n)].to_dict()}
                for (m, lyr, n) in sorted(self.histograms)],
            "events": list(self.events),
            "spans": list(self.spans),
            "dropped_events": self.dropped_events,
            # spans are never dropped; the keys keep the export shape
            "dropped_spans": 0,
            "events_seen": self.events_seen,
            "spans_seen": len(self.spans),
        }

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.events.clear()
        self.spans.clear()
        self.series.clear()
        self.dropped_events = 0
        self.records = 0
        self.events_seen = 0
        if self.timelines is not None:
            self.timelines.clear()
        if self.lineage is not None:
            self.lineage.clear()
        self._ops.clear()
        self._next_span_id = 1


# -- the process-global current hub -------------------------------------------

_current: Optional[Telemetry] = None


def current() -> Optional[Telemetry]:
    """The installed hub, or None (the no-telemetry fast path)."""
    return _current


def install(hub: Optional[Telemetry] = None) -> Telemetry:
    """Make *hub* (or a fresh one) the process-global current hub."""
    global _current
    _current = hub if hub is not None else Telemetry()
    return _current


def uninstall() -> Optional[Telemetry]:
    """Remove and return the current hub."""
    global _current
    hub, _current = _current, None
    return hub


@contextmanager
def capture(hub: Optional[Telemetry] = None):
    """Install *hub* for the duration of a ``with`` block.

    Re-entrant and exception-safe: the previously installed hub
    (whatever it was — an outer ``capture``, an explicit :func:`install`,
    or nothing) is restored in a ``finally``, so a façade run inside a
    CLI-wide capture reuses or shadows the outer hub without clobbering
    it, and no hub can leak past the block even when the body raises or
    itself calls :func:`install` / :func:`uninstall`.  Nesting the *same*
    hub is fine (fleet runs that drive chaos drills do exactly that);
    each level restores its own predecessor on the way out.
    """
    global _current
    previous = _current
    active = hub if hub is not None else Telemetry()
    _current = active
    try:
        yield active
    finally:
        # unconditional restore: even if the body installed a different
        # hub (or uninstalled ours), the pre-capture state comes back
        _current = previous
