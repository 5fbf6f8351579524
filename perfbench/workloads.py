"""The six benchmark workloads.

Each workload turns a seed into inputs, warms the program's caches and
computes reference outputs in :meth:`Workload.setup`, and then exposes
*cells*: named units of timed work the harness runs round-robin.  A cell
run returns a :class:`Unit` — how many ops it held, their simulated
latencies, how many failed their correctness check, a signature that
must repeat exactly when the same cell runs again, and exact counts for
the per-layer report.

Only public functions of ``repro`` are called; the program sees nothing
of the seed but the inputs generated from it.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from perfbench import stats

MB = 1 << 20

#: §2.4 of the paper: sub-objects, serialize ms, deserialize ms, 4 MB copy ms
PAPER_SECTION24 = {"sub_objects": 401_839, "serialize_ms": 10.0,
                   "deserialize_ms": 12.0, "copy_4mb_ms": 2.5}

WORKFLOWS = ("finra", "ml-training", "ml-prediction", "wordcount")


@dataclass
class Unit:
    """What one run of one cell produced."""

    ops: int
    #: host seconds spent inside the program's own calls (checks excluded)
    host_s: float
    #: simulated latency of each op (empty when only a summary exists)
    sim_ns: List[int]
    failed: int = 0
    #: simulated time the ops occupied — the throughput denominator of
    #: the workloads with more than one simulated client
    sim_busy_ns: int = 0
    #: must be equal on every run of the same cell (determinism check)
    signature: Any = None
    #: exact per-layer counts, summed over a pass
    counts: Dict[str, float] = field(default_factory=dict)
    #: simulated metrics the unit could only get as a summary (the
    #: fleet's latency sketch), by metric name
    sim: Dict[str, float] = field(default_factory=dict)


def _add(counts: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        counts[key] = counts.get(key, 0) + value


def hub_counts(hub) -> Dict[str, float]:
    """Exact counts a telemetry hub (and its lineage tracker) collected
    while one unit ran."""
    out: Dict[str, float] = {
        "mem.faults": hub.total("mem", "faults"),
        "mem.cow_breaks": hub.total("mem", "cow.breaks"),
        "mem.resident_pages": sum(
            v for (_m, layer, name), v in hub.gauges.items()
            if layer == "mem" and name == "resident.pages.hw"),
        "net.rdma.reads_posted": hub.total("net.rdma", "reads"),
        "net.rdma.bytes_read": hub.total("net.rdma", "bytes"),
        "_events": hub.total("sim.engine", "events.dispatched"),
        "_records": hub.records,
    }
    if hub.lineage is not None:
        report = hub.lineage.report()
        out["_bytes_moved"] = report["totals"]["bytes_moved"]
        out["_bytes_touched"] = report["totals"]["bytes_touched"]
        edges = report["edges"].values()
        paged = [e for e in edges if "pages" in e]
        out["kernel.pager.remote_faults"] = sum(
            e["pages"]["demand"] + e["pages"]["shared"] for e in paged)
        out["_pages_prefetched"] = sum(
            e["pages"]["prefetch"] for e in paged)
        out["_pages_prefetched_unused"] = sum(
            e["prefetch_waste"]["pages"] for e in paged)
        out["transfer.wire_bytes"] = sum(
            e.get("bytes_payload", 0) + e.get("metadata_bytes", 0)
            for e in edges)
    return out


def record_counts(record) -> Dict[str, float]:
    """Exact counts carried by one ``InvocationRecord``."""
    stages = record.stage_totals()
    path = record.critical_path_totals()
    transfer = path["transform"] + path["network"] + path["reconstruct"]
    cold = sum(1 for f in record.functions if f.cold_start)
    return {
        "transfer.sim_transform_ms": stages["transform"] / 1e6,
        "transfer.sim_network_ms": stages["network"] / 1e6,
        "transfer.sim_reconstruct_ms": stages["reconstruct"] / 1e6,
        "platform.sim_platform_ms": record.platform_ns / 1e6,
        "platform.sim_compute_ms": record.compute_ns / 1e6,
        "platform.cold_starts": cold,
        "platform.warm_starts": len(record.functions) - cold,
        # fig3_transfer_share: (T+N+R) over compute + (T+N+R), both
        # along the critical path
        "_path_transfer_ns": transfer,
        "_path_busy_ns": path["compute"] + transfer,
    }


class Workload:
    """Base class; see the module docstring."""

    name = ""
    #: a simulated-latency percentile needs pooled per-op samples
    sim_percentiles = False
    #: the program installs a telemetry hub itself on every run, so there
    #: is no separate observed pass (and no overhead ratio)
    brings_own_hub = False
    #: the probe loops (``probes.py``) time the layers' primitives on
    #: inputs of their own, so one workload's traced run reports them
    runs_probes = False

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        #: signatures already known from set-up, by cell
        self.signatures: Dict[Hashable, Any] = {}
        #: workload-level metrics fixed in set-up (e.g. paper_err_pct)
        self.fixed_metrics: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cells(self) -> List[Hashable]:
        raise NotImplementedError

    def prepare(self, cell: Hashable) -> Any:
        """Untimed preparation of one cell run."""
        return None

    def run(self, cell: Hashable, prepared: Any, hub=None,
            tracer=None) -> Unit:
        """The timed work.  With *hub*, the run is observed by that
        telemetry hub and its counts are folded into the unit."""
        raise NotImplementedError

    def sim_metrics(self, units: List[Unit]) -> Dict[str, float]:
        """Simulated-clock metrics of one full pass."""
        latencies = [ns / 1e6 for u in units for ns in u.sim_ns]
        out = {"sim_ms_mean": sum(latencies) / len(latencies)}
        if self.sim_percentiles:
            summary = stats.latency_summary(latencies)
            for label in ("p50", "p90", "p99"):
                if label in summary:
                    out[f"sim_ms_{label}"] = summary[label]
        return out


# --------------------------------------------------------------- workflows

class _WorkflowCells(Workload):
    """The four evaluated workflows through ``repro.api.run``."""

    transports: Tuple[str, ...] = ()
    scale = 0.05
    #: ``--quick``: toy payloads, and only the two workflows that need
    #: no trained model (fitting one costs a second per process)
    quick_params = {
        "finra": {"n_rows": 120},
        "wordcount": {"n_bytes": 16 << 10},
    }

    @property
    def workflows(self) -> Tuple[str, ...]:
        return tuple(self.quick_params) if self.quick else WORKFLOWS

    def _params(self, workflow: str) -> Dict[str, Any]:
        params: Dict[str, Any] = {"seed": self.seed}
        if self.quick:
            params.update(self.quick_params[workflow])
        return params

    def _invoke(self, workflow: str, transport: str, **observe):
        from repro.api import run
        return run(workflow, transport=transport, seed=0, scale=self.scale,
                   params=self._params(workflow), **observe)

    @staticmethod
    def _signature(record) -> Tuple:
        return (record.latency_ns,
                tuple(sorted(record.stage_totals().items())))

    def setup(self) -> None:
        # One untimed pass over messaging fills the trained-model and
        # dataset caches and yields the reference results: the paper's
        # claim is the same values on every transport.
        self.reference: Dict[str, Any] = {}
        for workflow in self.workflows:
            record = self._invoke(workflow, "messaging").record
            self.reference[workflow] = record.result
            self.signatures[(workflow, "messaging")] = \
                self._signature(record)

    def cells(self) -> List[Hashable]:
        return [(w, t) for w in self.workflows for t in self.transports]

    def run(self, cell, prepared, hub=None, tracer=None) -> Unit:
        workflow, transport = cell
        start = time.perf_counter()
        if hub is None:
            result = self._invoke(workflow, transport)
        else:
            result = self._invoke(workflow, transport, telemetry=hub,
                                  lineage=True, profile=True)
            with tracer.span("obs.report"):
                result.critical_path()
                result.lineage()
        host_s = time.perf_counter() - start
        record = result.record
        unit = Unit(ops=1, host_s=host_s, sim_ns=[record.latency_ns],
                    failed=int(record.result != self.reference[workflow]),
                    signature=self._signature(record),
                    counts=record_counts(record))
        if hub is not None:
            _add(unit.counts, hub_counts(hub))
        return unit


class WfRmmap(_WorkflowCells):
    name = "wf-rmmap"
    transports = ("rmmap", "rmmap-prefetch")


class WfSerialize(_WorkflowCells):
    name = "wf-serialize"
    transports = ("messaging", "storage-rdma")


# -------------------------------------------------------------- xfer-micro

def micro_payloads(seed: int, scale: float) -> Dict[str, Any]:
    """The nine Fig 11a payload shapes at *scale*, with every generated
    part drawn from *seed* (``fig11a_values`` itself takes no seed)."""
    import numpy as np

    from repro.bench.config import scaled
    from repro.bench.figures_micro import synthetic_model
    from repro.runtime.values import ImageValue, NdArrayValue
    from repro.workloads.data import make_book_text, make_trades

    rng = np.random.default_rng(seed)
    text = make_book_text(n_bytes=scaled(13 * MB, scale), seed=seed)
    rows = scaled(7000, scale)
    side = max(64, int(scaled(int(5.3 * MB), scale) ** 0.5))
    return {
        "int": int(rng.integers(1, 1 << 40)),
        "str": text,
        "list(str)": text.split(" ")[:scaled(200_000, scale)],
        "dict": {"l1": {"l2": {"l3": {"l4": {"l5": {
            "leaf": int(rng.integers(1 << 20)), "tag": "deep"}}}}}},
        "numpy ndarray": NdArrayValue(rng.random((rows, 785))),
        "list(int)": [int(v) for v in rng.integers(
            0, 1 << 40, size=scaled(400_000, scale))],
        "pandas dataframe": make_trades(scaled(25_000, scale), seed=seed),
        "Pillow Image": ImageValue(
            side, side, rng.integers(0, 256, size=side * side,
                                     dtype=np.uint8).tobytes()),
        "ML model": synthetic_model(
            scaled(int(8.6 * MB), scale, minimum=64 << 10)),
    }


def breakdown_counts(breakdown) -> Dict[str, float]:
    return {"transfer.sim_transform_ms": breakdown.transform_ns / 1e6,
            "transfer.sim_network_ms": breakdown.network_ns / 1e6,
            "transfer.sim_reconstruct_ms": breakdown.reconstruct_ns / 1e6}


class XferMicro(Workload):
    name = "xfer-micro"

    def setup(self) -> None:
        from repro.bench.figures_micro import section24_calibration
        from repro.transfer import list_transports

        self.values = micro_payloads(self.seed,
                                     0.002 if self.quick else 0.1)
        self.transport_names = list_transports()
        if not self.quick:
            # simulated cost against the paper's own §2.4 numbers; does
            # not depend on the seed, so it is measured once here
            measured = section24_calibration()
            self.fixed_metrics["paper_err_pct"] = 100 * sum(
                abs(measured[k] - ref) / ref
                for k, ref in PAPER_SECTION24.items()
            ) / len(PAPER_SECTION24)

    def cells(self) -> List[Hashable]:
        return [(v, t) for v in self.values for t in self.transport_names]

    def run(self, cell, prepared, hub=None, tracer=None) -> Unit:
        from repro import obs
        from repro.bench.figures_micro import _TYPE_LIBS
        from repro.bench.microbench import make_pair, measure_transfer
        from repro.transfer import get_transport

        value_name, transport = cell
        value = self.values[value_name]
        start = time.perf_counter()
        with obs.capture(hub) if hub is not None else nullcontext():
            _engine, producer, consumer = make_pair(
                resident_lib_bytes=_TYPE_LIBS[value_name])
            result = measure_transfer(get_transport(transport), producer,
                                      consumer, value)
        host_s = time.perf_counter() - start
        breakdown = result.breakdown
        unit = Unit(ops=1, host_s=host_s, sim_ns=[breakdown.e2e_ns],
                    failed=int(result.value != value),
                    signature=(breakdown.transform_ns, breakdown.network_ns,
                               breakdown.reconstruct_ns, result.wire_bytes),
                    counts=breakdown_counts(breakdown))
        unit.counts["transfer.objects"] = result.object_count
        if hub is not None:
            _add(unit.counts, hub_counts(hub))
        return unit


# -------------------------------------------------------------- cow-update

class CowUpdate(Workload):
    """Writes beside reads, teardown beside build-up, on one reused pair."""

    name = "cow-update"
    # the shortest traced run, and the workload the primitives the
    # probes time (write, CoW break, free, gc) matter to most
    runs_probes = True

    def setup(self) -> None:
        from repro.bench.microbench import make_pair
        from repro.transfer import get_transport
        from repro.workloads.data import make_trades

        n_dict, n_rows, n_text, n_fresh = \
            (400, 150, 8 << 10, 80) if self.quick \
            else (20_000, 5_000, 256 << 10, 2_000)
        rng = random.Random(self.seed)
        self.value = [
            {f"k{i}": rng.randrange(1 << 40) for i in range(n_dict)},
            make_trades(n_rows, seed=self.seed),
            "".join(rng.choices("abcdefghijklmnop", k=n_text)),
        ]
        self.fresh = {f"f{i}": rng.random() for i in range(n_fresh)}
        self.overwrite = bytes(rng.randrange(65, 91) for _ in range(64))
        _engine, self.producer, self.consumer = make_pair()
        self.transport = get_transport("rmmap")
        # the first epoch faults every heap page in; later epochs reuse
        # them, so it is the warm-up and fixes the frame baseline
        self.frames: Optional[Tuple[int, int]] = None
        self._epoch()
        self.frames = self._frames()

    def _frames(self) -> Tuple[int, int]:
        return (self.producer.machine.physical.used_frames,
                self.consumer.machine.physical.used_frames)

    def cells(self) -> List[Hashable]:
        return ["epoch"]

    def run(self, cell, prepared, hub=None, tracer=None) -> Unit:
        from repro import obs
        with obs.capture(hub) if hub is not None else nullcontext():
            unit = self._epoch()
        if hub is not None:
            _add(unit.counts, hub_counts(hub))
        return unit

    def _epoch(self) -> Unit:
        from repro.runtime.objects import HEADER_SIZE

        producer, consumer = self.producer, self.consumer
        pmeter, cmeter = producer.meter(), consumer.meter()
        begin = time.perf_counter()
        root = producer.heap.box(self.value)
        producer.heap.add_root(root)
        token = self.transport.send(producer, root)
        handle = self.transport.receive(consumer, token)
        # the producer keeps running: overwrite the str's payload pages
        # in place and allocate beside the registered state
        text_addr = producer.heap.children(root)[2]
        start, total = producer.heap.object_span(text_addr)
        payload = (self.overwrite * ((total - HEADER_SIZE) // 64 + 1)
                   )[:total - HEADER_SIZE]
        producer.space.write(start + HEADER_SIZE, payload)
        fresh_root = producer.heap.box(self.fresh)
        producer.heap.add_root(fresh_root)
        seen = handle.load()
        written = producer.heap.load(text_addr)
        handle.release()
        self.transport.cleanup(producer, token)
        producer.heap.remove_root(root)
        producer.heap.remove_root(fresh_root)
        producer.heap.gc()
        consumer.heap.gc()
        host_s = time.perf_counter() - begin
        breakdown = pmeter.delta()
        breakdown.add(cmeter.delta())
        # the consumer must see the pre-write snapshot, the producer its
        # own write, and no frame may outlive the epoch
        ok = (seen == self.value
              and written == payload.decode("ascii")
              and self.frames in (None, self._frames()))
        # the op includes the writes, so its simulated time keeps the
        # CoW-break ("access") charges that T+N+R leaves out
        sim_ns = breakdown.e2e_ns + breakdown.access_ns
        counts = breakdown_counts(breakdown)
        counts["transfer.objects"] = token.object_count
        return Unit(ops=1, host_s=host_s, sim_ns=[sim_ns],
                    failed=int(not ok),
                    signature=(breakdown.transform_ns, breakdown.network_ns,
                               breakdown.reconstruct_ns,
                               breakdown.access_ns),
                    counts=counts)


# ----------------------------------------------------------- platform-load

class PlatformLoad(Workload):
    """Steady-state serving: closed loop in simulated time (Fig 12)."""

    name = "platform-load"
    sim_percentiles = True
    transports = ("messaging", "rmmap")
    width = 4

    def setup(self) -> None:
        self.clients, self.requests = (2, 2) if self.quick else (8, 8)
        self.params = {"n_images": 32 if self.quick else 128,
                       "predict_width": self.width,
                       "n_trees": 8 if self.quick else 16,
                       "seed": self.seed}
        # reference result: one full-size invocation over messaging
        # (also trains and caches the serving model)
        platform = self._platform("messaging")
        self.reference = platform.run_once("ml-prediction",
                                           self.params).result
        # construction and pre-warming are set-up: the first pass runs
        # on platforms built here
        self._ready = {t: self._platform(t) for t in self.transports}

    def _platform(self, transport: str):
        from repro.bench.figures_workflow import _light_params
        from repro.platform.cluster import ServerlessPlatform
        from repro.transfer import get_transport
        from repro.workloads.ml_prediction import build_ml_prediction

        platform = ServerlessPlatform(n_machines=4,
                                      containers_per_machine=8)
        platform.deploy(build_ml_prediction(width=self.width),
                        get_transport(transport))
        platform.prewarm("ml-prediction", _light_params(self.params))
        return platform

    def cells(self) -> List[Hashable]:
        return list(self.transports)

    def prepare(self, cell):
        # every run starts from a freshly pre-warmed platform, so that a
        # repeat is the same op and must give the same simulated numbers
        return self._ready.pop(cell, None) or self._platform(cell)

    def run(self, cell, platform, hub=None, tracer=None) -> Unit:
        from repro import obs
        start_ns = platform.engine.now
        begin = time.perf_counter()
        with obs.capture(hub) if hub is not None else nullcontext():
            records = platform.run_closed_loop(
                "ml-prediction", clients=self.clients,
                requests_per_client=self.requests, params=self.params)
        host_s = time.perf_counter() - begin
        latencies = [r.latency_ns for r in records]
        unit = Unit(ops=len(records), host_s=host_s, sim_ns=latencies,
                    sim_busy_ns=platform.engine.now - start_ns,
                    failed=sum(1 for r in records
                               if r.result != self.reference),
                    signature=tuple(latencies))
        for record in records:
            _add(unit.counts, record_counts(record))
        if hub is not None:
            _add(unit.counts, hub_counts(hub))
        return unit

    def sim_metrics(self, units: List[Unit]) -> Dict[str, float]:
        out = super().sim_metrics(units)
        # Fig 12: completed invocations per simulated second of makespan
        out["sim_throughput_per_s"] = (
            sum(u.ops for u in units)
            / (sum(u.sim_busy_ns for u in units) / 1e9))
        if len(units) != len(self.transports):
            return out  # a transport's whole unit failed; pooled only
        for transport, unit in zip(self.transports, units):
            summary = stats.latency_summary([ns / 1e6 for ns in unit.sim_ns])
            # 64 samples leave fewer than ten beyond p90: median only
            out[f"platform.sim_ms_p50.{transport}"] = summary["p50"]
            out[f"platform.sim_throughput_per_s.{transport}"] = \
                unit.ops / (unit.sim_busy_ns / 1e9)
        return out


# -------------------------------------------------------------- fleet-open

class FleetOpen(Workload):
    """Open loop in simulated time: engine + fleet + the always-on hub."""

    name = "fleet-open"
    brings_own_hub = True

    def setup(self) -> None:
        from repro.fleet import FleetSpec, default_tenants
        self.spec = FleetSpec(tenants=default_tenants(8), n_shards=4,
                              duration_s=2.0 if self.quick else 40.0,
                              seed=self.seed)

    def cells(self) -> List[Hashable]:
        return ["fleet"]

    def run(self, cell, prepared, hub=None, tracer=None) -> Unit:
        from repro.api import run_fleet
        from repro.obs import PercentileSketch

        begin = time.perf_counter()
        result = run_fleet(self.spec)
        host_s = time.perf_counter() - begin
        totals = result.totals
        monitor = result.monitor
        sketch = PercentileSketch.merged(
            monitor.latency[key].lifetime for key in monitor.keys())
        sim = {"sim_ms_mean": sketch.mean / 1e6}
        for q in (0.5,) + stats.TAIL_PERCENTILES:
            if q == 0.5 or stats.percentile_allowed(sketch.count, q):
                sim[f"sim_ms_{stats.percentile_label(q)}"] = \
                    sketch.quantile(q) / 1e6
        waits = sorted(
            s["end_ns"] - s["start_ns"] for s in result.telemetry.spans
            if s["name"] == "queue.wait")
        served = totals["completed"] + totals["failed"]
        # an invocation that never queued waited 0 ns
        rank = max(1, -(-99 * served // 100)) - (served - len(waits))
        counts = {
            "fleet.offered": totals["arrivals"],
            "fleet.admitted": totals["submitted"],
            "fleet.rejected": totals["rejected"],
            "fleet.cold_starts": sum(
                s.get("autoscaler", {}).get("scale_ups", 0)
                for s in result.shards),
            "fleet.sim_queue_wait_ms_p99":
                waits[rank - 1] / 1e6 if rank >= 1 else 0.0,
            "_events": result.wall["events"],
            "_records": result.wall["records"],
        }
        return Unit(ops=served, host_s=host_s, sim_ns=[],
                    sim_busy_ns=int(self.spec.duration_s * 1e9),
                    failed=totals["failed"],
                    signature=hashlib.sha256(
                        result.to_json().encode("utf-8")).hexdigest(),
                    counts=counts, sim=sim)

    def sim_metrics(self, units: List[Unit]) -> Dict[str, float]:
        out = dict(units[0].sim)
        out["sim_throughput_per_s"] = (
            sum(u.ops - u.failed for u in units)
            / (sum(u.sim_busy_ns for u in units) / 1e9))
        return out


WORKLOADS = {cls.name: cls for cls in (WfRmmap, WfSerialize, XferMicro,
                                       CowUpdate, PlatformLoad, FleetOpen)}
