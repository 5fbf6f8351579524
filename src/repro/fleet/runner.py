"""The fleet runner: traffic + shards + monitoring → one FleetResult.

:func:`run_fleet` is the top of the fleet stack.  It builds one
deterministic engine, spawns one open-loop client process per tenant
(each drawing from its own named rng streams, so fleet composition never
perturbs a tenant's sequences), routes every arrival through the sharded
coordinator's admission/placement/queueing layers, and folds the
:class:`~repro.obs.monitor.FleetMonitor`'s windowed view plus the
coordinator's exact lifetime counters into a :class:`FleetResult`.

**Serving fidelity.**  A full platform invocation costs seconds of host
wall time, so million-invocation fleets serve from a
:class:`ServiceProfile`: per-``(workload, transport)`` base service
times with seeded lognormal jitter.  The static profile encodes the
paper's transport ordering (rmmap-prefetch fastest, storage slowest);
:meth:`ServiceProfile.calibrated` measures the real bases through
:func:`repro.api.run` — a handful of full-fidelity invocations anchor
the fleet's service times to the actual simulated stack.

**Determinism.**  ``FleetResult.to_json()`` is byte-identical across
same-seed runs: every timestamp and every sample derives from the
seeded rng tree and the engine's tie-break order; the host-side
``FleetResult.wall`` figures are never serialized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro import obs
from repro.api import BaseRunResult as _BaseRunResult
from repro.fleet.admission import AdmissionController
from repro.fleet.shard import AUTOSCALE_INTERVAL_NS, ShardedCoordinator
from repro.fork.policy import SCALE_UP_KINDS, ScaleUpConfig
from repro.fleet.traffic import TenantSpec, default_tenants
from repro.obs.monitor import FleetMonitor
from repro.obs.telemetry import PercentileSketch
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import SeededRng, make_rng

#: FleetResult serialization schema tag.
RESULT_SCHEMA = "fleet-result/v2"

_SECOND_NS = 1_000_000_000

#: Extra simulated seconds after the arrival horizon so inflight
#: invocations can finish before the run is cut off.
DRAIN_S = 2.0

#: Static per-workload base service times (ns) — sized so the default
#: SLO guardrails (5 ms e2e) separate fast transports from slow ones.
DEFAULT_BASE_NS: Dict[str, int] = {
    "finra": 4_000_000,
    "ml-prediction": 2_500_000,
    "ml-training": 8_000_000,
    "wordcount": 1_500_000,
}

#: Relative transport cost — the paper's Fig 14 ordering: rmmap variants
#: beat messaging/naos, storage trails everything.
DEFAULT_TRANSPORT_FACTOR: Dict[str, float] = {
    "messaging": 1.0,
    "messaging-compressed": 0.8,
    "storage": 1.6,
    "storage-rdma": 0.9,
    "rmmap": 0.55,
    "rmmap-prefetch": 0.5,
    "naos": 0.7,
    "adaptive": 0.6,
}


class ServiceProfile:
    """Per-``(workload, transport)`` service-time model for replay serving.

    ``sample`` multiplies the pair's base time by a seeded lognormal
    jitter factor (median 1.0), drawing exactly one variate per call so
    admission outcomes can never shift a tenant's service stream.
    """

    def __init__(self, base_ns: Optional[Dict[str, int]] = None,
                 transport_factor: Optional[Dict[str, float]] = None,
                 pair_ns: Optional[Dict[Tuple[str, str], int]] = None,
                 sigma: float = 0.25, kind: str = "static"):
        self.base_ns = dict(DEFAULT_BASE_NS if base_ns is None
                            else base_ns)
        self.transport_factor = dict(
            DEFAULT_TRANSPORT_FACTOR if transport_factor is None
            else transport_factor)
        #: exact per-pair overrides (populated by :meth:`calibrated`)
        self.pair_ns = dict(pair_ns or {})
        self.sigma = float(sigma)
        self.kind = kind

    def mean_ns(self, workload: str, transport: str) -> int:
        """The pair's base (median) service time, jitter excluded."""
        exact = self.pair_ns.get((workload, transport))
        if exact is not None:
            return int(exact)
        base = self.base_ns.get(workload, 2_000_000)
        return int(base * self.transport_factor.get(transport, 1.0))

    def sample(self, rng: SeededRng, workload: str,
               transport: str) -> int:
        """One jittered service time (>= 1 ns); one rng draw per call."""
        jitter = rng.py.lognormvariate(0.0, self.sigma)
        return max(1, int(self.mean_ns(workload, transport) * jitter))

    @classmethod
    def calibrated(cls, pairs: Sequence[Tuple[str, str]], *,
                   seed: int = 0, scale: float = 0.02,
                   sigma: float = 0.25) -> "ServiceProfile":
        """Measure each pair's base through one real platform run.

        Each distinct ``(workload, transport)`` pair costs one full
        :func:`repro.api.run` invocation (seconds of wall time), so
        calibrate the handful of pairs a fleet actually serves, not the
        full cross product.
        """
        from repro.api import run as api_run
        pair_ns: Dict[Tuple[str, str], int] = {}
        for workload, transport in sorted(set(pairs)):
            result = api_run(workload, transport=transport, seed=seed,
                             scale=scale)
            pair_ns[(workload, transport)] = result.latency_ns
        return cls(pair_ns=pair_ns, sigma=sigma, kind="calibrated")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "sigma": self.sigma,
            "base_ns": dict(sorted(self.base_ns.items())),
            "transport_factor": dict(
                sorted(self.transport_factor.items())),
            "pair_ns": {f"{w}/{t}": ns for (w, t), ns
                        in sorted(self.pair_ns.items())},
        }


@dataclass
class FleetSpec:
    """Everything one fleet run needs, seed included."""

    tenants: List[TenantSpec]
    seed: int = 0
    duration_s: float = 10.0
    n_shards: int = 4
    pods_per_shard: int = 2
    queue_limit: int = 64
    min_pods: int = 1
    max_pods: int = 16
    cold_start_ms: float = 50.0
    profile: ServiceProfile = field(default_factory=ServiceProfile)
    #: how shards add pods on scale-up (see :mod:`repro.fork`)
    scale_up: ScaleUpConfig = ScaleUpConfig()
    #: ``(at_s, shard_id)`` chaos points: kill that shard at that instant
    shard_failures: List[Tuple[float, str]] = field(default_factory=list)
    slos: Optional[Sequence[Any]] = None  # default: obs.slo.DEFAULT_SLOS
    #: track page-provenance lineage (repro.obs.lineage) on the hub;
    #: excluded from to_dict() — telemetry is a pure observer, so the
    #: FleetResult JSON is byte-identical with lineage on or off
    lineage: bool = False

    def expected_invocations(self) -> int:
        """Rough offered load: sum of mean rates times the horizon."""
        return int(sum(t.arrivals.mean_rate_rps() for t in self.tenants)
                   * self.duration_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "drain_s": DRAIN_S,
            "n_shards": self.n_shards,
            "pods_per_shard": self.pods_per_shard,
            "queue_limit": self.queue_limit,
            "autoscale": True,
            "min_pods": self.min_pods,
            "max_pods": self.max_pods,
            "cold_start_ms": self.cold_start_ms,
            "autoscale_interval_ms": AUTOSCALE_INTERVAL_NS / 1e6,
            "profile": self.profile.to_dict(),
            "shard_failures": [[at_s, sid]
                               for at_s, sid in self.shard_failures],
            "tenants": [t.to_dict() for t in self.tenants],
            "scale_up": self.scale_up.to_dict(),
        }


def smoke_spec(seed: int = 0) -> FleetSpec:
    """The bounded CI fleet: ~10^3 invocations, 2 shards, 3 tenants,
    6 simulated seconds."""
    return FleetSpec(tenants=default_tenants(3, base_rate_rps=60.0),
                     seed=seed, n_shards=2, duration_s=6.0)


@dataclass
class FleetResult(_BaseRunResult):
    """One fleet run's complete outcome (JSON-stable at a fixed seed).

    Shares the uniform result surface of :class:`repro.api.RunResult`
    (``.to_json()`` / ``.write_trace()`` / ``.write_flamegraph()``) via
    the common base class.
    """

    spec: FleetSpec
    seed: int
    sim_end_ns: int
    totals: Dict[str, Any]
    tenants: List[Dict[str, Any]]
    shards: List[Dict[str, Any]]
    admission: Dict[str, Any]
    alerts: List[Dict[str, Any]]
    #: host wall-clock throughput — shown by render(), never serialized
    #: (wall time is not seed-deterministic)
    wall: Dict[str, Any] = field(default_factory=dict)
    monitor: Optional[FleetMonitor] = None
    #: the hub that observed the run (write_trace/write_flamegraph input)
    telemetry: Optional[obs.Telemetry] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RESULT_SCHEMA,
            "seed": self.seed,
            "sim_end_ns": self.sim_end_ns,
            "spec": self.spec.to_dict(),
            "totals": self.totals,
            "admission": self.admission,
            "tenants": self.tenants,
            "shards": self.shards,
            "alerts": self.alerts,
        }

    def tenant(self, name: str) -> Dict[str, Any]:
        for entry in self.tenants:
            if entry["tenant"] == name:
                return entry
        raise KeyError(name)

    def render(self) -> str:
        """Ranked text tables: totals, per-tenant SLO view, shards."""
        from repro.analysis.report import Table

        lines = [
            f"fleet run: seed={self.seed} "
            f"sim={self.sim_end_ns / 1e9:.3f}s "
            f"arrivals={self.totals['arrivals']} "
            f"completed={self.totals['completed']} "
            f"failed={self.totals['failed']} "
            f"rejected={self.totals['rejected']}"]
        if self.wall:
            lines.append(
                f"wall: {self.wall['elapsed_s']:.2f}s, "
                f"{self.wall['invocations_per_sec']:.0f} inv/s, "
                f"{self.wall['events_per_sec']:.0f} events/s")
        tenant_table = Table(
            "per-tenant fleet view",
            ["tenant", "shard", "arrivals", "done", "rejected",
             "avail", "p50_ms", "p99_ms"])
        for entry in self.tenants:
            tenant_table.add_row(
                entry["tenant"], entry["shard"] or "-",
                entry["arrivals"], entry["completed"],
                entry["rejected"],
                f"{100 * entry['availability']:.2f}%",
                f"{entry['p50_ms']:.3f}", f"{entry['p99_ms']:.3f}")
        lines.append(tenant_table.render())
        shard_table = Table(
            "shards",
            ["shard", "alive", "pods", "peak", "done", "failed",
             "util", "peak_q"])
        for entry in self.shards:
            shard_table.add_row(
                entry["shard"], "yes" if entry["alive"] else "DEAD",
                entry["pods"], entry["peak_pods"], entry["completed"],
                entry["failed"], f"{100 * entry['utilization']:.1f}%",
                entry["peak_queue"])
        lines.append(shard_table.render())
        if self.alerts:
            alert_table = Table("SLO alerts", ["slo", "tenant",
                                               "workflow", "transport",
                                               "fired_ns", "cleared_ns"])
            for alert in self.alerts:
                alert_table.add_row(
                    alert["slo"], alert["tenant"], alert["workflow"],
                    alert["transport"], alert["fired_ns"],
                    alert["cleared_ns"] if alert["cleared_ns"]
                    is not None else "ACTIVE")
            lines.append(alert_table.render())
        else:
            lines.append("no SLO alerts fired")
        return "\n".join(lines)


def _tenant_client(engine: Engine, coord: ShardedCoordinator,
                   tenant: TenantSpec, root: SeededRng,
                   profile: ServiceProfile, end_ns: int) -> Generator:
    """One open-loop client: arrivals never wait for completions.

    Three named rng streams per tenant — ``(name, "arrivals")``,
    ``(name, "mix")``, ``(name, "service")`` — each a pure function of
    ``(seed, tenant, purpose)``, so adding or removing any other tenant
    leaves this tenant's entire timeline untouched.  The service draw
    happens unconditionally before submit, so rejections can't shift the
    stream either.
    """
    rng_arrivals = root.stream(tenant.name, "arrivals")
    rng_mix = root.stream(tenant.name, "mix")
    rng_service = root.stream(tenant.name, "service")
    for at_ns in tenant.arrivals.arrivals(rng_arrivals, 0, end_ns):
        delay = at_ns - engine.now
        if delay > 0:
            yield Timeout(delay)
        workload, transport = tenant.mix.pick(rng_mix)
        service_ns = profile.sample(rng_service, workload, transport)
        coord.submit(tenant.name, workload, transport, service_ns)


def run_fleet(spec: FleetSpec,
              hub: Optional[obs.Telemetry] = None,
              monitor: Optional[FleetMonitor] = None) -> FleetResult:
    """Run one fleet to completion and return its :class:`FleetResult`.

    Pass an existing *hub* / *monitor* to share telemetry with a larger
    harness; by default each run gets a fresh hub and a fresh
    :class:`FleetMonitor` (returned on ``FleetResult.monitor``).
    """
    if not spec.tenants:
        raise ValueError("a fleet needs at least one tenant")
    wall0 = time.perf_counter()
    if hub is None:
        hub = obs.Telemetry()
    if spec.lineage:
        hub.enable_lineage()
    mon = monitor if monitor is not None else FleetMonitor(slos=spec.slos)
    mon.attach(hub)
    try:
        with obs.capture(hub):
            engine = Engine()
            root = make_rng(spec.seed)
            admission = AdmissionController()
            for tenant in spec.tenants:
                if tenant.admission_rps is not None:
                    admission.configure(tenant.name, tenant.admission_rps,
                                        tenant.admission_burst)
            coord = ShardedCoordinator(
                engine,
                n_shards=spec.n_shards,
                pods_per_shard=spec.pods_per_shard,
                queue_limit=spec.queue_limit,
                admission=admission,
                min_pods=spec.min_pods,
                max_pods=spec.max_pods,
                cold_start_ns=int(spec.cold_start_ms * 1e6),
                scale_up=spec.scale_up).start()
            end_ns = int(spec.duration_s * _SECOND_NS)
            for tenant in spec.tenants:
                engine.spawn(
                    _tenant_client(engine, coord, tenant, root,
                                   spec.profile, end_ns),
                    name=f"client[{tenant.name}]")
            for at_s, shard_id in spec.shard_failures:
                engine.call_at(
                    int(at_s * _SECOND_NS),
                    (lambda sid: lambda: coord.fail_shard(sid))(shard_id))
            sim_end = engine.run(until=end_ns + int(DRAIN_S * _SECOND_NS))
    finally:
        mon.detach()
    wall_s = time.perf_counter() - wall0
    return _collect_result(spec, coord, mon, hub, sim_end, wall_s)


def _collect_result(spec: FleetSpec, coord: ShardedCoordinator,
                    mon: FleetMonitor, hub: obs.Telemetry,
                    sim_end_ns: int, wall_s: float) -> FleetResult:
    admission = coord.admission
    rejected_by_tenant = admission.rejected_by_tenant()
    placements = (coord.ring.assignments(
        [t.name for t in spec.tenants]) if len(coord.ring) else {})
    tenants: List[Dict[str, Any]] = []
    for tenant in sorted(spec.tenants, key=lambda t: t.name):
        submitted, completed, failed = coord.tenant_counts.get(
            tenant.name, [0, 0, 0])
        rejected = rejected_by_tenant.get(tenant.name, 0)
        arrivals = submitted + rejected
        served = completed + failed
        # availability folds rejections into the denominator: a refused
        # request is unavailable capacity exactly like a failed one
        denominator = completed + failed + rejected
        sketch = PercentileSketch.merged(
            mon.latency[key].lifetime for key in mon.keys()
            if key[0] == tenant.name)
        tenants.append({
            "tenant": tenant.name,
            "shard": placements.get(tenant.name),
            "arrivals": arrivals,
            "submitted": submitted,
            "completed": completed,
            "failed": failed,
            "rejected": rejected,
            "inflight_at_end": submitted - served,
            "availability": round(
                completed / denominator, 6) if denominator else 1.0,
            "p50_ms": round(sketch.quantile(0.50) / 1e6, 6),
            "p99_ms": round(sketch.quantile(0.99) / 1e6, 6),
            "mean_rate_rps": round(tenant.arrivals.mean_rate_rps(), 6),
        })
    stats = coord.stats(sim_end_ns)
    shards = list(coord.shards.values())
    totals = {
        "arrivals": coord.submitted + admission.rejected,
        "submitted": coord.submitted,
        "completed": coord.completed,
        "failed": coord.failed,
        "rejected": admission.rejected,
        "inflight_at_end": (coord.submitted - coord.completed
                            - coord.failed),
        "observed": mon.observed,
        "starts": {mode: sum(s.starts[mode] for s in shards)
                   for mode in sorted(SCALE_UP_KINDS)},
        "frames": {
            "resident": sum(s.resident_frames() for s in shards),
            "peak": sum(s.peak_frames for s in shards),
            "mean": round(sum(s.mean_frames(sim_end_ns)
                              for s in shards), 2),
        },
    }
    events = hub.counter("sim", "sim.engine", "events.dispatched")
    invocations = coord.completed + coord.failed
    records = hub.records
    wall = {
        "elapsed_s": round(wall_s, 3),
        "events": events,
        "invocations": invocations,
        "records": records,
        "events_per_sec": round(events / wall_s, 3) if wall_s else 0.0,
        "invocations_per_sec": round(invocations / wall_s, 3)
        if wall_s else 0.0,
    }
    return FleetResult(
        spec=spec, seed=spec.seed, sim_end_ns=sim_end_ns,
        totals=totals, tenants=tenants, shards=stats["shards"],
        admission=stats["admission"],
        alerts=[a.to_dict() for a in mon.alerts],
        wall=wall, monitor=mon, telemetry=hub)
