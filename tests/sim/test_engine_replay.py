"""Paired replay: the bucketed engine against the per-event heapq oracle.

``repro.sim.engine.Engine`` replaced the classic one-heap-entry-per-event
scheduler with time buckets plus a heap of distinct timestamps.  The
optimization contract is *bit-identical replay*: same event timeline,
same final clock, same deterministic telemetry snapshot.  This suite
keeps the original heapq loop alive as :class:`ReferenceEngine` and runs
the full figure matrix — 4 workloads × 3 transports, chaos off and on —
at seed 0 through both engines, comparing everything the hub observed.
"""

from contextlib import nullcontext
from heapq import heappop, heappush
from itertools import product

import pytest

import repro.fleet.runner as fleet_runner
import repro.platform.cluster as cluster_mod
from repro.api import run
from repro.sim.engine import _KIND_NAMES, _RESUME, _TRIGGER, Engine, Timeout
from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry, capture, current

SCALE = 0.02
WORKLOADS = ("finra", "ml-prediction", "ml-training", "wordcount")
TRANSPORTS = ("messaging", "storage-rdma", "rmmap-prefetch")


class ReferenceEngine(Engine):
    """The pre-optimization scheduler: one ``(at, seq, item)`` heap entry
    per event, popped one at a time, with a plain and an observed loop.
    Kept verbatim (modulo the shared item tuples) as the replay oracle."""

    __slots__ = ("_queue", "_seq")

    def __init__(self):
        super().__init__()
        self._queue = []
        self._seq = 0

    def _push(self, at, item):
        self._seq += 1
        heappush(self._queue, (at, self._seq, item))

    def run(self, until=None):
        hub = current()
        if hub is None:
            return self._run_plain(until)
        return self._run_observed(hub, until)

    def _run_plain(self, until):
        while self._queue:
            at, _seq, item = self._queue[0]
            if until is not None and at > until:
                self._now = until
                return self._now
            heappop(self._queue)
            if at < self._now:  # pragma: no cover - defensive
                raise SimulationError("time went backwards")
            self._now = at
            kind = item[0]
            if kind == _RESUME:
                if not item[1]._triggered:
                    self._step_process(item[1], item[2], item[3])
            elif kind == _TRIGGER:
                if not item[1]._triggered:
                    item[1].succeed(item[2])
            else:
                item[1]()
        return self._now

    def _run_observed(self, hub, until):
        hub.attach_clock(self)
        sim0 = self._now
        dispatched = [0, 0, 0]
        depth_hw = 0
        try:
            while self._queue:
                depth = len(self._queue)
                if depth > depth_hw:
                    depth_hw = depth
                at, _seq, item = self._queue[0]
                if until is not None and at > until:
                    self._now = until
                    return self._now
                heappop(self._queue)
                if at < self._now:  # pragma: no cover - defensive
                    raise SimulationError("time went backwards")
                self._now = at
                kind = item[0]
                dispatched[kind] += 1
                if kind == _RESUME:
                    if not item[1]._triggered:
                        self._step_process(item[1], item[2], item[3])
                elif kind == _TRIGGER:
                    if not item[1]._triggered:
                        item[1].succeed(item[2])
                else:
                    item[1]()
            return self._now
        finally:
            if self._spawned:
                hub.count("sim", "sim.engine", "processes.spawned",
                          self._spawned)
                self._spawned = 0
            total = 0
            for kind, n in enumerate(dispatched):
                if n:
                    hub.count("sim", "sim.engine",
                              f"events.{_KIND_NAMES[kind]}", n)
                    total += n
            if total:
                hub.count("sim", "sim.engine", "events.dispatched", total)
            hub.gauge_max("sim", "sim.engine", "queue.depth.hw", depth_hw)
            sim_ns = self._now - sim0
            if sim_ns > 0:
                hub.count("sim", "sim.engine", "sim.advanced.ns", sim_ns)


def _facade_pair(monkeypatch, workload, transport, chaos):
    """Run the same facade call under both engines; return both results
    with their stripped snapshots."""
    out = {}
    for label, engine_cls in (("optimized", Engine),
                              ("reference", ReferenceEngine)):
        monkeypatch.setattr(cluster_mod, "Engine", engine_cls)
        kwargs = dict(seed=0, scale=SCALE, telemetry=True)
        if chaos:
            kwargs["chaos"] = {"requests": 2, "n_machines": 4}
        result = run(workload, transport=transport, **kwargs)
        out[label] = (result,
                      result.telemetry.snapshot())
    return out


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_replays_identically(monkeypatch, workload, transport):
    pair = _facade_pair(monkeypatch, workload, transport, chaos=False)
    opt, opt_snap = pair["optimized"]
    ref, ref_snap = pair["reference"]
    assert opt.latency_ns == ref.latency_ns
    assert opt_snap == ref_snap


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_chaos_replays_identically(monkeypatch, workload, transport):
    pair = _facade_pair(monkeypatch, workload, transport, chaos=True)
    opt, opt_snap = pair["optimized"]
    ref, ref_snap = pair["reference"]
    assert (opt.chaos_report.fingerprint()
            == ref.chaos_report.fingerprint())
    assert opt_snap == ref_snap


def test_fleet_replays_identically(monkeypatch):
    """The open-loop fleet path (its own Engine() instantiation site):
    identical FleetResult JSON and final clock under both engines."""
    from repro.fleet.runner import run_fleet, smoke_spec

    outputs = {}
    for label, engine_cls in (("optimized", Engine),
                              ("reference", ReferenceEngine)):
        monkeypatch.setattr(fleet_runner, "Engine", engine_cls)
        spec = smoke_spec()
        spec.duration_s = 2.0
        result = run_fleet(spec)
        outputs[label] = (result.sim_end_ns, result.to_json())
    assert outputs["optimized"] == outputs["reference"]


def test_event_timeline_streams_identically(monkeypatch):
    """Beyond end-state snapshots: the *live* event stream (every hub
    event, in order, with timestamps) matches between engines."""
    from repro import obs

    timelines = {}
    for label, engine_cls in (("optimized", Engine),
                              ("reference", ReferenceEngine)):
        monkeypatch.setattr(cluster_mod, "Engine", engine_cls)
        hub = obs.Telemetry()
        seen = []
        hub.add_listener(lambda e, seen=seen: seen.append(
            (e["ts"], e["machine"], e["layer"], e["name"])))
        run("wordcount", transport="rmmap-prefetch", seed=0, scale=SCALE,
            telemetry=hub)
        timelines[label] = seen
    assert timelines["optimized"] == timelines["reference"]
    assert timelines["optimized"], "no events observed"


@pytest.mark.parametrize("observed", list(product((False, True), repeat=4)))
def test_plain_and_observed_runs_count_as_the_reference(observed):
    """One engine spawns, runs part way, spawns and runs to the end, each
    step with or without a hub: the hub sees the spawns made under it and
    the dispatches, depth and time of the runs made under it."""
    def worker(engine, hops):
        for _ in range(hops):
            yield Timeout(7)
        if hops > 1:
            yield engine.spawn(worker(engine, hops - 1))

    seen = {}
    for engine_cls in (Engine, ReferenceEngine):
        engine, hub = engine_cls(), Telemetry()
        steps = (lambda: engine.spawn(worker(engine, 3)),
                 lambda: engine.run(until=10),  # leaves the rest queued
                 lambda: engine.spawn(worker(engine, 2)),
                 engine.run)
        for step, under_hub in zip(steps, observed):
            with capture(hub) if under_hub else nullcontext():
                step()
        seen[engine_cls] = (engine.now, hub.counters, hub.gauges)
    assert seen[Engine] == seen[ReferenceEngine]
    # a spawn counts if made under the hub, once a later run is observed;
    # the first run spawns nothing before it stops, the last spawns three
    first, middle, second, last = observed
    expected = (first and (middle or last)) + (second and last) + 3 * last
    assert seen[Engine][1].get(("sim", "sim.engine", "processes.spawned"),
                               0) == expected
