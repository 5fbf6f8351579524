"""The cross-layer telemetry hub.

A :class:`Telemetry` hub collects counters, gauges, quantile sketches,
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

import math
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.obs.timeline import Timeline

#: (machine, layer, name) — the key every metric is filed under.
MetricKey = Tuple[str, str, str]

#: Stored-event cap: past it the newest event is dropped (and counted in
#: ``dropped_events``); listeners still see every event.
MAX_EVENTS = 20_000

#: Linear sub-buckets per power-of-two range.  With ``K`` sub-buckets the
#: mid-point estimate of any bucket is within ``1 / (2 K)`` of every value
#: the bucket covers, so quantile estimates carry that relative-error
#: bound (values below ``2 K`` are bucketed exactly — zero error).
SKETCH_SUBBUCKETS = 16

#: The documented (and property-tested) relative error bound of
#: :meth:`PercentileSketch.quantile` vs the exact sorted percentile.
SKETCH_RELATIVE_ERROR = 1.0 / (2 * SKETCH_SUBBUCKETS)

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

    Every sub-bucket lies inside one power-of-two range, so the log2
    histogram the hub exports (:attr:`bins`) is an exact projection of
    the same buckets.
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
        """The (value-ordered) bucket key covering *value*: the value
        itself below ``_LINEAR_MAX``, else ``e << _SUB_SHIFT | sub`` for
        ``value`` in sub-bucket ``sub`` of ``[2^(e-1), 2^e)``."""
        v = max(0, int(value))
        if v < _LINEAR_MAX:
            return v
        shift = v.bit_length() - 1 - _SUB_SHIFT  # v >> shift is K + sub
        return ((shift + _SUB_SHIFT) << _SUB_SHIFT) + (v >> shift)

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
        v = int(value)
        if v < 0:
            v = 0
        if v < _LINEAR_MAX:  # bucket_key, inlined on the hub's hot path
            key = v
        else:
            shift = v.bit_length() - 1 - _SUB_SHIFT
            key = ((shift + _SUB_SHIFT) << _SUB_SHIFT) + (v >> shift)
        buckets = self.buckets
        buckets[key] = buckets.get(key, 0) + 1
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

    @property
    def bins(self) -> Dict[int, int]:
        """The log2 view ``{bit_length: count}`` over non-empty bins:
        bin 0 is exactly 0, bin ``b`` is ``[2**(b-1), 2**b - 1]``."""
        out: Dict[int, int] = {}
        for key in sorted(self.buckets):
            b = key.bit_length() if key < _LINEAR_MAX else key >> _SUB_SHIFT
            out[b] = out.get(b, 0) + self.buckets[key]
        return out

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
                 "lineage", "_clock", "_clock_owner", "_next_span_id",
                 "_listeners", "_ops")

    def __init__(self):
        self.counters: Dict[MetricKey, int] = {}
        self.gauges: Dict[MetricKey, int] = {}
        self.histograms: Dict[MetricKey, PercentileSketch] = {}
        self.events: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        #: every counter/gauge update over simulated time, one
        #: :class:`~repro.obs.timeline.Timeline` per key — the Chrome
        #: counter tracks and the input of triage's saturation scan
        self.series: Dict[MetricKey, Timeline] = {}
        self.dropped_events = 0
        #: total recording calls (counters+gauges+histograms+events+spans)
        #: — the numerator of the bench harness's hub records/sec metric
        self.records = 0
        #: exact event total, including events the cap dropped
        self.events_seen = 0
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
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = Timeline()
        series.record(self._clock(), total)

    def gauge(self, machine: str, layer: str, name: str,
              value: int) -> None:
        """Set a point-in-time gauge."""
        key = (machine, layer, name)
        value = int(value)
        self.gauges[key] = value
        self.records += 1
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = Timeline()
        series.record(self._clock(), value)

    def gauge_max(self, machine: str, layer: str, name: str,
                  value: int) -> None:
        """Raise a high-water-mark gauge (no-op when below the mark)."""
        key = (machine, layer, name)
        value = int(value)
        self.records += 1
        if value > self.gauges.get(key, -(1 << 62)):
            self.gauges[key] = value
            series = self.series.get(key)
            if series is None:
                series = self.series[key] = Timeline()
            series.record(self._clock(), value)

    def observe(self, machine: str, layer: str, name: str,
                value: int) -> None:
        """Record *value* into a quantile sketch."""
        key = (machine, layer, name)
        self.records += 1
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = PercentileSketch()
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

    # -- lineage ------------------------------------------------------------

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
                {"machine": m, "layer": lyr, "name": n, "count": h.count,
                 "sum": h.sum, "min": h.min, "max": h.max,
                 "bins": {str(b): c for b, c in h.bins.items()}}
                for (m, lyr, n), h in sorted(self.histograms.items())],
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
