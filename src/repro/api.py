"""The run façade: one call from workload name to results.

Every entry point into the repro — CLI experiments, examples, notebooks,
chaos drills — ultimately does the same dance: build a seeded platform,
deploy a workflow bound to a transport, pre-warm, invoke, and collect the
record.  :func:`run` is that dance behind one signature, with telemetry
(:mod:`repro.obs`) and chaos (:mod:`repro.chaos`) as opt-in knobs:

>>> from repro.api import run
>>> result = run("wordcount", transport="rmmap-prefetch", scale=0.05,
...              telemetry=True)
>>> result.latency_ms
13.5...
>>> sorted(result.telemetry.layers())
['kernel', 'mem', 'net.rdma', 'net.rpc', 'platform', 'sim.engine']

The non-chaos path reproduces the bench harness
(:func:`repro.bench.figures_workflow.run_workflow_once`) exactly at
``seed=0``: same platform shape, same pre-warm, same ledger charges — so
figures computed either way agree to the nanosecond.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro import obs
from repro.platform.coordinator import InvocationRecord
from repro.transfer.base import StateTransport
from repro.transfer.registry import get_transport


def workloads() -> list:
    """Names accepted as :func:`run`'s *workload* argument, sorted."""
    from repro.bench.figures_workflow import workflow_configs
    return sorted(workflow_configs(1.0))


class BaseRunResult:
    """Shared result surface of :class:`RunResult` and
    :class:`~repro.fleet.runner.FleetResult`.

    Uniform contract: ``.to_dict()`` / ``.to_json()`` give the
    JSON-stable view, ``.write_trace(path)`` exports the run's Chrome
    trace and ``.write_flamegraph(path)`` its folded stacks — both
    requiring the run to have collected telemetry.
    """

    #: subclasses store their hub here (None when telemetry was off)
    telemetry: Optional["obs.Telemetry"]

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def _require_telemetry(self) -> "obs.Telemetry":
        if self.telemetry is None:
            raise ValueError(
                "telemetry was not collected for this run; pass "
                "telemetry=True (or profile=True) to the façade")
        return self.telemetry

    def flamegraph(self) -> str:
        """Folded flamegraph stacks (``layer/name;... self_ns`` lines,
        loadable by inferno / flamegraph.pl / speedscope).  Merges every
        causal trace the hub holds."""
        hub = self._require_telemetry()
        merged: Dict[Tuple[str, ...], int] = {}
        for tid in obs.trace_ids(hub):
            folded = obs.folded_stacks(obs.build_span_tree(hub,
                                                           trace_id=tid))
            for stack, ns in obs.parse_folded(folded).items():
                merged[stack] = merged.get(stack, 0) + ns
        return "\n".join(f"{';'.join(stack)} {ns}"
                         for stack, ns in sorted(merged.items())) \
            + ("\n" if merged else "")

    def write_flamegraph(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.flamegraph())

    def write_trace(self, path: str) -> None:
        """Export the run's Chrome trace (requires telemetry); monitor
        alert transitions ride along as instant events."""
        obs.write_chrome_trace(self._require_telemetry(), path,
                               monitor=getattr(self, "monitor", None))

    def triage(self) -> Dict[str, Any]:
        """Auto-triage every monitor alert into a ranked root-cause
        report (see :func:`repro.obs.triage.triage_report`); requires
        both telemetry and a monitor on this result."""
        hub = self._require_telemetry()
        monitor = getattr(self, "monitor", None)
        if monitor is None:
            raise ValueError(
                "no monitor observed this run; pass monitor=True (or "
                "use run_fleet, which always attaches one)")
        return obs.triage_report(hub, monitor)

    def lineage(self) -> Dict[str, Any]:
        """The run's page-provenance lineage report (see
        :meth:`repro.obs.lineage.LineageTracker.report`): per-edge byte
        movement, transfer amplification, prefetch waste, duplicate
        pulls and per-object attribution.  Requires the run to have
        tracked lineage (``lineage=True`` on the façade)."""
        hub = self._require_telemetry()
        if hub.lineage is None:
            raise ValueError(
                "lineage was not tracked for this run; pass lineage=True "
                "to the façade (or call hub.enable_lineage() before the "
                "run)")
        return hub.lineage.report()


@dataclass
class RunResult(BaseRunResult):
    """Everything one :func:`run` call produced."""

    workload: str
    transport: str
    seed: int
    record: Optional[InvocationRecord] = None
    telemetry: Optional["obs.Telemetry"] = None
    chaos_report: Any = None
    monitor: Optional["obs.FleetMonitor"] = None
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency_ns(self) -> int:
        if self.record is None:
            raise ValueError("chaos runs report latency via chaos_report")
        return self.record.latency_ns

    @property
    def latency_ms(self) -> float:
        return self.latency_ns / 1e6

    def stage_totals(self) -> Dict[str, int]:
        """Fig 11 transform / network / reconstruct totals (ns)."""
        if self.record is None:
            raise ValueError("chaos runs do not keep a single record")
        return self.record.stage_totals()

    @property
    def trace_id(self) -> str:
        """The measured invocation's causal-trace id (prewarm invocations
        carry their own id and never pollute the profiled tree)."""
        if self.record is None:
            raise ValueError("chaos runs do not keep a single record")
        return (f"{self.record.workflow}#{self.record.request_id}"
                f"@{self.transport}")

    def _require_telemetry(self) -> "obs.Telemetry":
        if self.telemetry is None:
            raise ValueError("run(..., telemetry=True) to profile a run")
        return self.telemetry

    def span_tree(self) -> "obs.SpanNode":
        """The measured invocation's rooted causal span tree."""
        return obs.build_span_tree(self._require_telemetry(),
                                   trace_id=self.trace_id)

    def critical_path(self) -> Dict[str, Any]:
        """The ranked bottleneck report (see
        :func:`repro.obs.profile.critical_path_report`): critical-path
        segments partitioning the end-to-end interval, per-location
        ranking, and whole-tree self/wait attribution."""
        return obs.critical_path_report(self._require_telemetry(),
                                        trace_id=self.trace_id)

    def flamegraph(self) -> str:
        """Folded flamegraph stacks of the *measured* invocation
        (``layer/name;... self_ns`` lines, loadable by inferno /
        flamegraph.pl / speedscope)."""
        return obs.folded_stacks(self.span_tree())

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-stable view of this run (no hub internals)."""
        out: Dict[str, Any] = {
            "workload": self.workload,
            "transport": self.transport,
            "seed": self.seed,
        }
        if self.record is not None:
            out["latency_ns"] = self.record.latency_ns
            out["stage_totals"] = self.record.stage_totals()
        if self.chaos_report is not None:
            out["chaos"] = self.chaos_report.to_dict()
        return out

    def diff(self, other: "RunResult") -> Dict[str, Any]:
        """Root-cause *other* against this run (this run is the
        baseline): align the two causal span trees by location path and
        rank per-node self-time deltas.  Render the result with
        :func:`repro.obs.render_diff`.  Both runs need
        ``telemetry=True``."""
        return obs.diff_traces(self.span_tree(), other.span_tree())


def _resolve_transport(transport: Union[str, StateTransport]
                       ) -> StateTransport:
    if isinstance(transport, str):
        return get_transport(transport)
    return transport


def _resolve_hub(telemetry) -> Optional["obs.Telemetry"]:
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        return obs.Telemetry()
    return telemetry


def _resolve_monitor(monitor) -> Optional["obs.FleetMonitor"]:
    if monitor is None or monitor is False:
        return None
    if monitor is True:
        return obs.FleetMonitor()
    return monitor


def run(workload: str,
        *, transport: Union[str, StateTransport] = "rmmap",
        seed: int = 0, scale: Optional[float] = None,
        chaos: Optional[Dict[str, Any]] = None,
        telemetry: Union[None, bool, "obs.Telemetry"] = None,
        monitor: Union[None, bool, "obs.FleetMonitor"] = None,
        profile: bool = False, lineage: bool = False,
        params: Optional[Dict[str, Any]] = None,
        n_machines: Optional[int] = None) -> RunResult:
    """Run one workflow invocation end to end and return the results.

    *workload* is a name from :func:`workloads` (``finra``,
    ``ml-training``, ``ml-prediction``, ``wordcount``).  *transport* is a
    registry name (see :func:`repro.transfer.list_transports`) or a
    ready-made :class:`StateTransport`; it is keyword-only.
    *scale* shrinks the paper-scale inputs (default: the
    ``REPRO_BENCH_SCALE`` environment variable); *params* overrides
    individual workload knobs on top of the scaled defaults.
    *n_machines* sizes the cluster (default: 10, or the chaos runner's
    6 under ``chaos=``).
    ``profile=True`` collects the causal span profile (it simply implies
    a telemetry hub — spans ride on it).

    ``telemetry=True`` (or an existing :class:`~repro.obs.Telemetry`)
    collects cross-layer counters, histograms and spans for the duration
    of the run — the hub comes back on ``RunResult.telemetry`` and
    ``RunResult.write_trace(path)`` exports it for ``chrome://tracing`` /
    Perfetto.  Telemetry observes the clock only: ledger charges and
    Fig 11 stage totals are bit-identical with it on or off.

    ``chaos={...}`` runs the workload under a seeded fault schedule
    instead (kwargs forwarded to
    :func:`repro.chaos.runner.run_chaos_workflow`, e.g. ``requests``,
    ``schedule``, ``policy``); the report lands on
    ``RunResult.chaos_report``.  A chaos run uses the workload's default
    inputs, so it refuses *params*; *workload*, *seed* and *scale* go to
    run() itself, never in the dict.

    ``monitor=True`` (or an existing :class:`~repro.obs.FleetMonitor`)
    attaches streaming SLO monitoring to the hub for the duration of the
    run (implies telemetry); windowed latency/rate series and any
    burn-rate alerts come back on ``RunResult.monitor``.  The monitor is
    a listener on the hub — like the hub itself it never perturbs
    simulated time.

    ``lineage=True`` tracks page-provenance lineage for every state
    transfer (implies telemetry): which bytes moved, over which
    transport, for which object, and how many were wasted.  The report
    comes back via ``RunResult.lineage()``.  Lineage is a pure observer
    like the hub: the run is bit-identical with it on or off.
    """
    from repro.bench.figures_workflow import (_light_params,
                                              workflow_configs)

    if (profile or lineage) and (telemetry is None or telemetry is False):
        telemetry = True
    if chaos is not None and params:
        raise ValueError("chaos runs use the workload's default params; "
                         "pass params= or chaos=, not both")
    clash = sorted({"workload", "seed", "scale"} & set(chaos or ()))
    if clash:
        raise ValueError(f"chaos[{clash[0]!r}] is run()'s own argument; "
                         f"pass {clash[0]}= to run() instead")

    configs = workflow_configs(scale)
    if workload not in configs:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"pick one of {sorted(configs)}")
    builder, defaults = configs[workload]
    merged = dict(defaults)
    if params:
        merged.update(params)

    hub = _resolve_hub(telemetry)
    mon = _resolve_monitor(monitor)
    if mon is not None and hub is None:
        hub = obs.Telemetry()
    if lineage:
        hub.enable_lineage()
    if mon is not None:
        mon.attach(hub)
    scope = obs.capture(hub) if hub is not None \
        else contextlib.nullcontext()
    try:
        if chaos is not None:
            from repro.chaos.runner import run_chaos_workflow
            transport_obj = _resolve_transport(transport)
            kwargs = dict(chaos)
            kwargs.setdefault("transport_factory", lambda: transport_obj)
            if n_machines is not None:
                if kwargs.get("n_machines", n_machines) != n_machines:
                    raise ValueError("n_machines= and chaos['n_machines'] "
                                     "disagree")
                kwargs["n_machines"] = n_machines
            with scope:
                report = run_chaos_workflow(workload=workload, seed=seed,
                                            scale=scale, **kwargs)
            return RunResult(workload=workload,
                             transport=transport_obj.name,
                             seed=seed, telemetry=hub,
                             chaos_report=report, monitor=mon,
                             params=merged)

        from repro.platform.cluster import ServerlessPlatform
        from repro.sim.rng import make_rng

        transport_obj = _resolve_transport(transport)
        with scope:
            platform = ServerlessPlatform(
                n_machines=10 if n_machines is None else n_machines,
                rng=make_rng(seed))
            workflow = builder()
            platform.deploy(workflow, transport_obj)
            platform.prewarm(workflow.name, _light_params(merged))
            record = platform.run_once(workflow.name, merged)
        if hub is not None:
            obs.rollup_record(hub, record)
        return RunResult(workload=workload, transport=transport_obj.name,
                         seed=seed, record=record, telemetry=hub,
                         monitor=mon, params=merged)
    finally:
        if mon is not None:
            mon.detach()


def run_fleet(spec=None, *, seed: int = 0, tenants=None,
              n_shards: Optional[int] = None,
              duration_s: Optional[float] = None,
              smoke: bool = False, scale_up: Optional[str] = None,
              telemetry: Union[None, bool, "obs.Telemetry"] = None,
              monitor: Union[None, bool, "obs.FleetMonitor"] = None,
              lineage: bool = False, **kwargs):
    """Run a multi-tenant fleet simulation and return a
    :class:`~repro.fleet.runner.FleetResult`.

    Either pass a ready-made :class:`~repro.fleet.runner.FleetSpec` as
    *spec*, or let this façade assemble one: ``smoke=True`` gives the
    small CI configuration (:func:`~repro.fleet.runner.smoke_spec`),
    which takes only *seed* and *scale_up* and refuses every sizing
    argument; otherwise *tenants* (default:
    :func:`~repro.fleet.traffic.default_tenants` of eight), *n_shards*
    (default 4), *duration_s* (default 10) and any other
    :class:`FleetSpec` field via ``**kwargs``.  ``telemetry`` /
    ``monitor`` share an existing hub or monitor with the run (fresh
    ones are created by default).  Same spec + same seed →
    byte-identical ``FleetResult.to_json()``.
    """
    from repro.fleet import (FleetSpec, ScaleUpConfig, default_tenants,
                             run_fleet as _run_fleet, smoke_spec)

    given = sorted(list(kwargs) + [
        name for name, value in (("tenants", tenants),
                                 ("n_shards", n_shards),
                                 ("duration_s", duration_s))
        if value is not None])
    if spec is not None:
        if given or smoke or scale_up is not None:
            raise ValueError("pass either a FleetSpec or assembly kwargs, "
                             "not both")
    elif smoke:
        if given:
            raise ValueError("smoke=True runs the fixed smoke spec and "
                             f"would ignore {', '.join(given)}")
        spec = smoke_spec(seed=seed)
    else:
        spec = FleetSpec(
            tenants=default_tenants(8) if tenants is None else tenants,
            seed=seed, n_shards=4 if n_shards is None else n_shards,
            duration_s=10.0 if duration_s is None else duration_s,
            **kwargs)
    if scale_up is not None:
        spec.scale_up = ScaleUpConfig.from_kind(scale_up)
    hub = _resolve_hub(telemetry)
    mon = _resolve_monitor(monitor)
    if lineage:
        spec = dataclasses.replace(spec, lineage=True)
    return _run_fleet(spec, hub=hub, monitor=mon)
