"""``obs.capture`` re-entrancy and exception-safety audit.

The optimized engine/telemetry fast paths short-circuit on the global
current-hub check, so a leaked installation would silently instrument
(or fail to instrument) every later run.  These tests pin the contract:
whatever happens inside a ``capture`` block — nested captures, chaos
runs inside fleet runs, raised exceptions, even explicit ``install`` /
``uninstall`` calls — the pre-capture state is restored on exit.
"""

import pytest

from repro import obs
from repro.api import run
from repro.chaos.runner import run_chaos_workflow

SCALE = 0.02


@pytest.fixture(autouse=True)
def _no_leaked_hub():
    assert obs.current() is None, "a previous test leaked a hub"
    yield
    assert obs.current() is None, "this test leaked a hub"


class TestNesting:
    def test_nested_capture_restores_each_level(self):
        outer, inner = obs.Telemetry(), obs.Telemetry()
        with obs.capture(outer):
            assert obs.current() is outer
            with obs.capture(inner):
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None

    def test_same_hub_nests(self):
        hub = obs.Telemetry()
        with obs.capture(hub):
            with obs.capture(hub):
                assert obs.current() is hub
            assert obs.current() is hub

    def test_fresh_hub_per_level_by_default(self):
        with obs.capture() as outer:
            with obs.capture() as inner:
                assert inner is not outer
                assert obs.current() is inner
            assert obs.current() is outer


class TestExceptionSafety:
    def test_exception_restores_previous(self):
        outer = obs.Telemetry()
        with obs.capture(outer):
            with pytest.raises(RuntimeError):
                with obs.capture():
                    raise RuntimeError("boom")
            assert obs.current() is outer

    def test_exception_in_outermost_restores_none(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert obs.current() is None

    def test_body_install_cannot_leak(self):
        rogue = obs.Telemetry()
        with obs.capture():
            obs.install(rogue)
            assert obs.current() is rogue
        assert obs.current() is None

    def test_body_uninstall_cannot_corrupt(self):
        outer = obs.Telemetry()
        with obs.capture(outer):
            with obs.capture():
                obs.uninstall()
                assert obs.current() is None
            assert obs.current() is outer


class TestFacadeComposition:
    def test_chaos_inside_observed_run_restores_hub(self):
        """The fleet+chaos nesting: a chaos drill (which captures its
        own hub when monitoring without one) inside an outer capture."""
        outer = obs.Telemetry()
        with obs.capture(outer):
            run_chaos_workflow("ml-prediction", seed=1, requests=2,
                               n_machines=4, scale=SCALE,
                               monitor=obs.FleetMonitor())
            assert obs.current() is outer
        assert obs.current() is None

    def test_facade_run_does_not_leak(self):
        run("wordcount", transport="rmmap-prefetch", scale=SCALE,
            telemetry=True)
        assert obs.current() is None

    def test_facade_chaos_config_does_not_leak(self):
        result = run("ml-prediction", transport="rmmap-prefetch", seed=1,
                     scale=SCALE, chaos={"requests": 2, "n_machines": 4},
                     telemetry=True)
        assert result.chaos_report.invocations == 2
        assert obs.current() is None

    def test_failed_run_does_not_leak(self):
        with pytest.raises(ValueError):
            run("no-such-workload", transport="rmmap-prefetch",
                scale=SCALE, telemetry=True)
        assert obs.current() is None
