"""Chaos runs: Fig-14 workflows under an armed fault schedule.

One call builds a fresh seeded platform, deploys a workflow with the
resilience policy, starts per-machine lease scanners, arms the fault
schedule, drives a client that tolerates per-invocation failures, lets
the lease scanners reclaim any orphans, and folds everything into a
:class:`~repro.analysis.chaos.ChaosReport` — including the ledger-verified
frame-leak audit that is the run's acceptance bar.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional

from repro.analysis.chaos import (ChaosReport, audit_leaked_frames,
                                  latency_stats_ms)
from repro.chaos.injector import FaultInjector
from repro.chaos.policies import ResiliencePolicy
from repro.chaos.schedule import FaultSchedule, random_schedule
from repro.errors import SimulationError
from repro.sim.engine import Timeout
from repro.sim.rng import SeededRng
from repro.transfer.registry import get_transport
from repro.transfer.rmmap import RmmapTransport
from repro.units import ms, seconds

#: Lease knobs for chaos runs: short enough that orphan reclamation
#: happens within the simulated run (the production 15-minute default
#: would outlive the whole experiment).
CHAOS_LEASE_NS = ms(400)
CHAOS_GRACE_NS = ms(100)
CHAOS_SCAN_INTERVAL_NS = ms(50)

#: Safety bound on simulated time per run (deadlock tripwire).
MAX_SIM_NS = seconds(600)


def default_transport() -> RmmapTransport:
    """RMMAP with prefetch and the two-sided degradation path enabled."""
    return get_transport("rmmap-prefetch", rpc_fallback=True)


def run_chaos_workflow(workload: str = "ml-prediction", *,
                       seed: int = 0,
                       requests: int = 6,
                       n_machines: int = 6,
                       schedule: Optional[FaultSchedule] = None,
                       transport_factory: Optional[Callable] = None,
                       policy: Optional[ResiliencePolicy] = None,
                       scale: Optional[float] = None,
                       monitor=None) -> ChaosReport:
    """Run *requests* invocations of one Fig-14 workflow under faults.

    Without an explicit ``schedule``, a seeded mixed schedule (machine
    crash + restart, link flaps, QP break, latency spike, OOM kill,
    coordinator crash) is derived from the run seed and spread over the
    client's issue window, so ``(workload, seed)`` fully determines the
    run — same seed, same ChaosReport fingerprint.  ``schedule`` may also
    be a callable ``(macs, start_ns, horizon_ns) -> FaultSchedule`` for
    targeted scenarios.

    ``monitor`` (a :class:`~repro.obs.FleetMonitor`) attaches streaming
    SLO monitoring for the duration: it listens on the installed
    telemetry hub (one is captured for the run if none is installed), so
    injected faults show up as burn-rate alerts at deterministic
    simulated timestamps.  Monitoring is a pure observer — the
    ChaosReport fingerprint is identical with it on or off.  Every
    argument but *workload* is keyword-only.
    """
    from repro import obs

    hub = obs.current()
    if hub is None and monitor is not None:
        hub = obs.Telemetry()
    with contextlib.ExitStack() as stack:
        if hub is not None:
            stack.enter_context(obs.capture(hub))
        if monitor is not None:
            monitor.attach(hub)
            stack.callback(monitor.detach)
        return _run_chaos(
            workload, seed=seed, requests=requests, n_machines=n_machines,
            schedule=schedule, transport_factory=transport_factory,
            policy=policy, scale=scale)


def _run_chaos(workload: str, *, seed, requests, n_machines, schedule,
               transport_factory, policy, scale) -> ChaosReport:
    from repro.bench.figures_workflow import (_light_params,
                                              workflow_configs)
    from repro.platform.cluster import ServerlessPlatform

    configs = workflow_configs(scale)
    if workload not in configs:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"pick one of {sorted(configs)}")
    builder, params = configs[workload]
    rng = SeededRng(seed)

    platform = ServerlessPlatform(n_machines=n_machines, rng=rng.fork(1))
    engine = platform.engine
    if policy is None:
        policy = ResiliencePolicy(rng=rng.fork(2))
    transport = (transport_factory() if transport_factory is not None
                 else default_transport())
    workflow = builder()
    coordinator = platform.deploy(workflow, transport, resilience=policy)
    platform.prewarm(workflow.name, _light_params(params))
    coordinator.stats.events.clear()  # prewarm noise is not chaos signal

    # measure one clean invocation to size the issue window, then derive
    # the fault schedule across it
    probe = platform.run_once(workflow.name, params)
    gap_ns = max(ms(1), probe.latency_ns // 2)
    start_ns = engine.now
    horizon_ns = max(ms(10), requests * gap_ns + probe.latency_ns)
    macs = [m.mac_addr for m in platform.machines]
    if schedule is None:
        schedule = random_schedule(macs, rng.fork(3),
                                   horizon_ns=horizon_ns, start_ns=start_ns)
    elif callable(schedule):
        # targeted scenarios (tests, demos): the factory sees the actual
        # issue window, so faults can be placed mid-flight precisely
        schedule = schedule(macs, start_ns, horizon_ns)
    injector = FaultInjector.for_platform(platform).arm(schedule)

    # one lease scanner per machine: the decentralized reclamation
    # fallback that survives coordinator loss (Section 4.2).  Spawned
    # after the probe — they never exit, so an unbounded engine.run()
    # (as run_once uses) would spin forever once they exist.
    reclaimed: List[str] = []

    def on_reclaim(mac: str, fids: List[str]) -> None:
        reclaimed.append(f"{engine.now} lease-reclaim {mac} "
                         f"{len(fids)} registrations")

    scanners = [engine.spawn(
        machine.kernel.lease_scanner(CHAOS_SCAN_INTERVAL_NS,
                                     CHAOS_LEASE_NS, CHAOS_GRACE_NS,
                                     on_reclaim=on_reclaim),
        name=f"lease-scan@{machine.mac_addr}")
        for machine in platform.machines]

    report = ChaosReport(workflow=workflow.name, seed=seed,
                         transport=transport.name,
                         invocations=requests,
                         faults_injected=schedule.describe())

    latencies: List[int] = []
    failures: List[str] = []

    def watch(proc):
        try:
            record = yield proc
            latencies.append(record.latency_ns)
            report.completed += 1
        except Exception as err:  # noqa: BLE001 - availability accounting
            failures.append(f"{engine.now} invocation lost to "
                            f"{type(err).__name__}")
            report.failed += 1

    def client():
        watchers = []
        for _ in range(requests):
            watchers.append(engine.spawn(
                watch(coordinator.invoke(params)), name="watch"))
            yield Timeout(gap_ns)
        for watcher in watchers:
            yield watcher

    client_proc = engine.spawn(client(), name="chaos-client")
    while not client_proc.triggered:
        before = engine.now
        engine.run(until=engine.now + seconds(1))
        if engine.now == before:
            raise SimulationError("chaos client deadlocked "
                                  "(event queue drained)")
        if engine.now >= MAX_SIM_NS:
            raise SimulationError("chaos run exceeded simulated-time "
                                  "budget; likely deadlocked")

    # let the lease scanners sweep any orphans, then retire them
    engine.run(until=engine.now + CHAOS_LEASE_NS + CHAOS_GRACE_NS
               + 3 * CHAOS_SCAN_INTERVAL_NS)
    for scanner in scanners:
        scanner.interrupt()
    engine.run(until=engine.now)

    stats = coordinator.stats
    report.retries = stats.retries
    report.fallbacks = stats.fallbacks
    report.reexecutions = stats.reexecutions
    report.failovers = stats.failovers
    report.breaker_trips = stats.breaker_trips

    containers = platform.scheduler.pooled_containers()
    leaks = audit_leaked_frames(platform.machines, containers)
    report.leaked_frames = sum(leaks.values())
    report.live_registrations = sum(
        sum(1 for reg in machine.kernel.registry.all()
            if not reg.deregistered)
        for machine in platform.machines if machine.alive)

    lat = latency_stats_ms(latencies)
    report.mean_latency_ms = lat["mean"]
    report.p99_latency_ms = lat["p99"]

    trace = injector.trace + stats.events + reclaimed + failures
    trace.sort(key=lambda line: (int(line.split(" ", 1)[0]), line))
    report.event_trace = trace
    return report
