"""Targeted recovery scenarios: one fault class at a time.

Each test runs the Fig-14 ML-prediction workflow through
:func:`run_chaos_workflow` with an explicit single-fault schedule placed
mid-window, and asserts the recovery ladder absorbed it: every invocation
completes, and the frame audit finds no leaked memory.
"""

import pytest

from repro.chaos.faults import LinkFlap, MachineCrash, OomKill
from repro.chaos.runner import run_chaos_workflow
from repro.chaos.schedule import FaultSchedule
from repro.units import ms

SCALE = 0.02


def run(schedule_factory, requests=2, seed=1):
    return run_chaos_workflow("ml-prediction", seed=seed,
                              requests=requests, n_machines=4,
                              schedule=schedule_factory, scale=SCALE)


def test_no_faults_full_availability():
    report = run(lambda macs, start, horizon: FaultSchedule([]))
    assert report.availability == 1.0
    assert report.leaked_frames == 0
    assert report.live_registrations == 0
    assert report.retries == 0


def test_oom_kill_retried_without_leaks():
    report = run(lambda macs, start, horizon: FaultSchedule(
        [OomKill(at_ns=start + horizon // 3)]), requests=3)
    assert report.availability == 1.0
    assert report.leaked_frames == 0
    assert report.live_registrations == 0


def test_machine_crash_with_restart_recovers():
    report = run(lambda macs, start, horizon: FaultSchedule(
        [MachineCrash(at_ns=start + horizon // 3, machine=macs[0],
                      restart_after_ns=ms(50))]), requests=3)
    assert report.availability == 1.0
    assert report.leaked_frames == 0
    # the crash destroyed in-flight work: the ladder had to do something
    assert report.retries + report.reexecutions >= 1


def test_machine_crash_without_restart_reexecutes_elsewhere():
    report = run(lambda macs, start, horizon: FaultSchedule(
        [MachineCrash(at_ns=start + horizon // 3, machine=macs[0])]),
        requests=3)
    assert report.availability == 1.0
    assert report.leaked_frames == 0


def test_link_flap_rides_out_on_retry():
    report = run(lambda macs, start, horizon: FaultSchedule(
        [LinkFlap(at_ns=start + horizon // 3, machine=macs[0],
                  down_ns=ms(2))]), requests=2)
    assert report.availability == 1.0
    assert report.leaked_frames == 0


def test_fail_stop_without_policy_still_works_fault_free():
    # resilience off + empty schedule: the chaos runner degenerates to a
    # plain Fig-14 run (the seed behaviour is the policy=None default
    # everywhere else; here we only assert the runner plumbing)
    report = run_chaos_workflow(
        "ml-prediction", seed=0, requests=2, n_machines=4,
        schedule=lambda macs, start, horizon: FaultSchedule([]),
        scale=SCALE)
    assert report.completed == 2


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        run_chaos_workflow("not-a-workload")


def test_knobs_are_keyword_only():
    with pytest.raises(TypeError):
        run_chaos_workflow("wordcount", 0)
