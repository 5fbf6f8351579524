"""Metric-naming lint: the scheme is enforceable or it is fiction.

Documented scheme (docs/observability.md): metric and event names are
dot-separated segments, each matching ``[a-z0-9_-]+``.  Rather than
auditing call sites, this test runs a full chaos workflow with the fleet
monitor attached — exercising every telemetry-emitting layer at once —
and lints every name the live hub actually recorded."""

import re

import pytest

from repro import obs
from repro.chaos.runner import run_chaos_workflow
from repro.chaos.faults import MachineCrash
from repro.chaos.schedule import FaultSchedule
from repro.units import ms

SEGMENT = re.compile(r"^[a-z0-9_-]+$")

#: Layers a full run must populate — a shrinking set means telemetry
#: quietly fell off a subsystem and the lint is no longer covering it.
EXPECTED_LAYERS = {"sim.engine", "kernel", "mem", "net.rdma", "net.rpc",
                   "transfer", "platform", "chaos"}


def lint(name):
    return all(SEGMENT.match(seg) for seg in name.split("."))


@pytest.fixture(scope="module")
def hub():
    with obs.capture() as hub:
        monitor = obs.FleetMonitor()
        run_chaos_workflow(
            "ml-prediction", seed=1, requests=4, n_machines=4,
            scale=0.02, monitor=monitor,
            schedule=lambda macs, start, horizon: FaultSchedule(
                [MachineCrash(at_ns=start + horizon // 3,
                              machine=macs[0],
                              restart_after_ns=ms(50))]))
    return hub


def all_names(hub):
    names = {(layer, name)
             for kind, (machine, layer, name), value in hub.iter_metrics()}
    names |= {(e["layer"], e["name"]) for e in hub.events}
    return names


def test_run_covers_every_layer(hub):
    assert EXPECTED_LAYERS <= set(hub.layers())


def test_every_emitted_name_matches_the_scheme(hub):
    names = all_names(hub)
    assert len(names) > 40, "suspiciously few metrics — broken run?"
    stragglers = sorted(f"{layer}/{name}" for layer, name in names
                        if not (lint(name) and lint(layer)))
    assert stragglers == [], (
        "metric/event names violating the dotted-lowercase scheme "
        f"([a-z0-9_-] segments): {stragglers}")


def test_fault_counters_are_snake_case(hub):
    names = {name for layer, name in all_names(hub) if layer == "chaos"}
    assert "faults.machine_crash" in names
    assert not any(re.search(r"[A-Z]", n) for n in names)


def test_lint_rejects_known_bad_shapes():
    for bad in ("Faults.MachineCrash", "qp.02:00:01.read", "a..b",
                "spaced name", ""):
        assert not lint(bad)
    for good in ("events.dispatched", "qp.mac0.bytes",
                 "category.cow-mark.ns", "sim.advanced.ns"):
        assert lint(good)
