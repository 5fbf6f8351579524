"""Acceptance: fleet monitoring over chaos runs.

The tentpole contract, end to end: a seeded machine-crash chaos scenario
trips the latency SLO alert at a deterministic simulated timestamp and
clears it once recovery restores fast completions — while the monitor
stays a pure observer, so the same run with monitoring disabled is
bit-identical (completion timeline, final simulated clock, and the full
deterministic hub snapshot, which carries every ledger-derived total).
"""

import pytest

from repro import obs
from repro.bench.figures_workflow import _light_params, workflow_configs
from repro.chaos.faults import MachineCrash
from repro.chaos.injector import FaultInjector
from repro.chaos.policies import ResiliencePolicy
from repro.chaos.runner import default_transport, run_chaos_workflow
from repro.chaos.schedule import FaultSchedule
from repro.obs.monitor import MONITOR_LAYER
from repro.obs.slo import SLO
from repro.platform.cluster import ServerlessPlatform
from repro.sim.rng import SeededRng
from repro.units import ms

SCALE = 0.02

#: Guardrails sized to this workload: warm ml-prediction completes in
#: ~14 ms simulated, crash-wake completions take ~900 ms.
TEST_SLOS = (
    SLO(name="latency-guard", objective=0.9, latency_threshold_ns=ms(50),
        long_window_ns=ms(800), short_window_ns=ms(100),
        burn_rate_threshold=2.0),
    SLO(name="availability-guard", objective=0.9,
        long_window_ns=ms(800), short_window_ns=ms(100),
        burn_rate_threshold=2.0),
)


def crash_scenario(monitor=None):
    """Paced warm invocations around a seeded mac0 crash (+fast restart).

    Returns ``(timeline, final_now, stripped_hub_snapshot)`` where the
    timeline is ``[(completion_ns, latency_ns), ...]`` and the snapshot
    has the monitor's own ``obs.monitor`` entries removed — everything
    left must be identical with or without the monitor attached.
    """
    builder, params = workflow_configs(SCALE)["ml-prediction"]
    rng = SeededRng(1)
    with obs.capture() as hub:
        platform = ServerlessPlatform(n_machines=4, rng=rng.fork(1))
        engine = platform.engine
        workflow = builder()
        platform.deploy(workflow, default_transport(),
                        resilience=ResiliencePolicy(rng=rng.fork(2)))
        platform.prewarm(workflow.name, _light_params(params))
        # steady-state monitoring starts after warmup, like production
        if monitor is not None:
            monitor.attach(hub)
        try:
            timeline = []
            for _ in range(3):
                record = platform.run_once(workflow.name, params)
                timeline.append((engine.now, record.latency_ns))
            FaultInjector.for_platform(platform).arm(FaultSchedule(
                [MachineCrash(at_ns=engine.now + ms(5), machine="mac0",
                              restart_after_ns=ms(30))]))
            for _ in range(12):
                record = platform.run_once(workflow.name, params)
                timeline.append((engine.now, record.latency_ns))
        finally:
            if monitor is not None:
                monitor.detach()
        return timeline, engine.now, _stripped(hub.snapshot())


def _stripped(snapshot):
    return {key: [entry for entry in snapshot[key]
                  if entry.get("layer") != MONITOR_LAYER]
            for key in ("counters", "gauges", "histograms", "events",
                        "spans")}


@pytest.fixture(scope="module")
def monitored():
    monitor = obs.FleetMonitor(slos=TEST_SLOS)
    return monitor, crash_scenario(monitor)


@pytest.fixture(scope="module")
def unmonitored():
    return crash_scenario()


class TestAlertLifecycle:
    def test_crash_trips_latency_alert_at_the_slow_completion(
            self, monitored):
        monitor, (timeline, _, _) = monitored
        slow = [(ts, lat) for ts, lat in timeline if lat > ms(50)]
        assert slow, "the crash should have slowed an invocation"
        fired = [a for a in monitor.alerts
                 if a.slo.name == "latency-guard"]
        assert len(fired) == 1
        assert fired[0].fired_ns == slow[0][0]

    def test_alert_clears_after_recovery(self, monitored):
        monitor, (timeline, final_now, _) = monitored
        alert = next(a for a in monitor.alerts
                     if a.slo.name == "latency-guard")
        assert alert.cleared_ns is not None
        assert alert.fired_ns < alert.cleared_ns <= final_now
        # cleared at a fast completion, once the slow one aged out of
        # the short burn window
        assert alert.cleared_ns in [ts for ts, lat in timeline
                                    if lat <= ms(50)]
        assert monitor.active_alerts() == []

    def test_availability_slo_stays_quiet(self, monitored):
        monitor, _ = monitored
        assert not any(a.slo.name == "availability-guard"
                       for a in monitor.alerts)

    def test_alert_timeline_is_deterministic(self, monitored):
        monitor, _ = monitored
        rerun = obs.FleetMonitor(slos=TEST_SLOS)
        crash_scenario(rerun)
        assert [(a.slo.name, a.fired_ns, a.cleared_ns)
                for a in rerun.alerts] == \
            [(a.slo.name, a.fired_ns, a.cleared_ns)
             for a in monitor.alerts]


class TestPureObserver:
    def test_monitored_run_is_bit_identical(self, monitored,
                                            unmonitored):
        _, (timeline_on, now_on, hub_on) = monitored
        timeline_off, now_off, hub_off = unmonitored
        assert timeline_on == timeline_off
        assert now_on == now_off
        assert hub_on == hub_off

    def test_chaos_report_fingerprint_unchanged_by_monitoring(self):
        def sched(macs, start, horizon):
            return FaultSchedule(
                [MachineCrash(at_ns=start + horizon // 3,
                              machine=macs[0],
                              restart_after_ns=ms(50))])

        kwargs = dict(seed=1, requests=4, n_machines=4, scale=SCALE,
                      schedule=sched)
        monitor = obs.FleetMonitor()
        with_mon = run_chaos_workflow("ml-prediction",
                                      monitor=monitor, **kwargs)
        without = run_chaos_workflow("ml-prediction", **kwargs)
        assert with_mon.fingerprint() == without.fingerprint()
        assert monitor.observed > 0
