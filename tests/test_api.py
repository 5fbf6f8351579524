"""Tests for the run façade, the transport registry, the CLI flags and
the bench-scale config fix."""

import json

import pytest

from repro.api import RunResult, run, workloads
from repro.obs import to_chrome_trace_json
from repro.transfer import get_transport, list_transports
from repro.transfer.base import StateTransport

SCALE = 0.05


# -- transport registry ----------------------------------------------------------

def test_list_transports_is_sorted_and_complete():
    names = list_transports()
    assert names == sorted(names)
    assert {"messaging", "storage", "storage-rdma", "rmmap",
            "rmmap-prefetch", "naos", "adaptive",
            "messaging-compressed"} <= set(names)


@pytest.mark.parametrize("name", ["messaging", "storage", "storage-rdma",
                                  "rmmap", "rmmap-prefetch", "naos",
                                  "adaptive", "messaging-compressed"])
def test_get_transport_name_round_trips(name):
    transport = get_transport(name)
    assert isinstance(transport, StateTransport)
    assert transport.name == name


def test_get_transport_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown transport"):
        get_transport("carrier-pigeon")


def test_get_transport_forwards_options():
    t = get_transport("messaging", null_network=True)
    assert t.null_network is True
    r = get_transport("rmmap", rpc_fallback=True)
    assert r.prefetch is False and r.rpc_fallback is True


# -- the run façade --------------------------------------------------------------

def test_workloads_lists_the_four_figures_workflows():
    assert workloads() == ["finra", "ml-prediction", "ml-training",
                           "wordcount"]


def test_run_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload"):
        run("factorize-rsa", transport="messaging", scale=SCALE)


def test_run_transport_is_keyword_only():
    with pytest.raises(TypeError):
        run("wordcount", "rmmap")


@pytest.mark.parametrize("transport", ["messaging", "rmmap-prefetch"])
def test_facade_matches_bench_path(transport):
    """run() must reproduce run_workflow_once to the nanosecond."""
    from repro.bench.figures_workflow import (workflow_configs,
                                              run_workflow_once)
    builder, params = workflow_configs(SCALE)["wordcount"]
    bench_record = run_workflow_once(builder, params,
                                     get_transport(transport))
    result = run("wordcount", transport=transport, scale=SCALE)
    assert result.latency_ns == bench_record.latency_ns
    assert result.stage_totals() == bench_record.stage_totals()


def test_telemetry_does_not_perturb_the_simulation():
    """Ledger totals are byte-identical with the observer on or off."""
    plain = run("wordcount", transport="rmmap-prefetch", scale=SCALE)
    observed = run("wordcount", transport="rmmap-prefetch", scale=SCALE,
                   telemetry=True)
    assert observed.latency_ns == plain.latency_ns
    assert observed.stage_totals() == plain.stage_totals()


def test_telemetry_covers_the_stack():
    result = run("wordcount", transport="rmmap-prefetch", scale=SCALE,
                 telemetry=True)
    layers = set(result.telemetry.layers())
    assert {"sim.engine", "mem", "net.rdma", "net.rpc", "kernel",
            "platform", "transfer"} <= layers
    hub = result.telemetry
    assert hub.total("platform", "invocations.completed") >= 1
    assert hub.total("net.rdma", "reads") > 0
    # the ledger rollup mirrors the record's stage totals exactly
    totals = result.stage_totals()
    for stage in ("transform", "network", "reconstruct"):
        assert hub.total("transfer", f"stage.{stage}.ns") == totals[stage]


def test_same_seed_same_telemetry():
    """Determinism: identical seeds produce identical exports."""
    a = run("wordcount", transport="rmmap-prefetch", scale=SCALE, seed=3,
            telemetry=True)
    b = run("wordcount", transport="rmmap-prefetch", scale=SCALE, seed=3,
            telemetry=True)
    assert a.telemetry.snapshot() == b.telemetry.snapshot()
    assert (to_chrome_trace_json(a.telemetry)
            == to_chrome_trace_json(b.telemetry))


def test_run_accepts_transport_instance_and_param_overrides():
    transport = get_transport("messaging")
    result = run("wordcount", transport=transport, scale=SCALE,
                 params={"n_bytes": 128 << 10})
    assert isinstance(result, RunResult)
    assert result.transport == "messaging"
    assert result.params["n_bytes"] == 128 << 10


def test_run_chaos_delegates_to_chaos_runner():
    result = run("wordcount", transport="rmmap-prefetch", scale=0.02, seed=1,
                 chaos={"requests": 2, "n_machines": 4})
    report = result.chaos_report
    assert report is not None
    assert report.completed + report.failed == 2
    assert report.leaked_frames == 0
    with pytest.raises(ValueError):
        result.latency_ns  # no single record under chaos


def test_run_chaos_refuses_params():
    """A chaos run uses the workload's default inputs; params= used to be
    dropped while RunResult.params still reported it."""
    with pytest.raises(ValueError, match="params"):
        run("wordcount", scale=0.02, params={"n_bytes": 64 << 10},
            chaos={"requests": 2})


@pytest.mark.parametrize("key", ["seed", "scale", "workload"])
def test_run_chaos_refuses_run_keywords(key):
    """A chaos dict holding one of run()'s own arguments used to fail
    with an untyped "multiple values for keyword argument" TypeError."""
    with pytest.raises(ValueError, match=f"chaos\\['{key}'\\].*{key}="):
        run("wordcount", scale=0.02, chaos={"requests": 1, key: 3})


def test_chaos_run_triage_reads_saturation_from_the_hub_series():
    """An api.run triage gets the same saturation input as a fleet's:
    every counter/gauge series on the run's hub."""
    result = run("wordcount", scale=0.02, monitor=True,
                 chaos={"requests": 6})
    report = result.triage()
    assert report["alerts"]
    saturation = [s for ctx in report["alerts"] for s in ctx["saturation"]]
    assert saturation
    for finding in saturation:
        key = (finding["machine"], finding["layer"], finding["name"])
        assert key in result.telemetry.series


def test_run_chaos_forwards_n_machines():
    kwargs = dict(transport="rmmap-prefetch", scale=0.02, seed=1)
    top = run("wordcount", n_machines=4, chaos={"requests": 2}, **kwargs)
    inner = run("wordcount", chaos={"requests": 2, "n_machines": 4},
                **kwargs)
    assert top.chaos_report.fingerprint() \
        == inner.chaos_report.fingerprint()
    with pytest.raises(ValueError, match="n_machines"):
        run("wordcount", n_machines=4,
            chaos={"requests": 2, "n_machines": 5}, **kwargs)


def test_run_fleet_smoke_refuses_sizing_arguments():
    """smoke=True runs the fixed smoke spec; sizing arguments used to be
    dropped without a word."""
    from repro.api import run_fleet
    with pytest.raises(ValueError,
                       match="duration_s, n_shards, queue_limit"):
        run_fleet(smoke=True, n_shards=3, queue_limit=7, duration_s=1.0)
    with pytest.raises(ValueError, match="tenants"):
        run_fleet(smoke=True, tenants=[])


def test_write_trace_requires_telemetry(tmp_path):
    result = run("wordcount", transport="messaging", scale=SCALE)
    with pytest.raises(ValueError, match="telemetry"):
        result.write_trace(str(tmp_path / "t.json"))


def test_write_trace_produces_loadable_file(tmp_path):
    result = run("wordcount", transport="rmmap-prefetch", scale=SCALE,
                 telemetry=True)
    out = tmp_path / "trace.json"
    result.write_trace(str(out))
    trace = json.loads(out.read_text())
    body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    assert body
    ts = [e["ts"] for e in body]
    assert ts == sorted(ts)
    cats = {e.get("cat") for e in body if e.get("cat")}
    assert len(cats) >= 4


# -- bench.config fix ------------------------------------------------------------

def test_malformed_scale_env_warns_once(monkeypatch):
    from repro.bench import config
    monkeypatch.setenv("REPRO_BENCH_SCALE", "O.5-typo")
    monkeypatch.setattr(config, "_warned_values", set())
    with pytest.warns(UserWarning, match="not a number"):
        assert config.bench_scale(0.2) == 0.2
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second read must stay silent
        assert config.bench_scale(0.2) == 0.2


def test_nonpositive_scale_env_warns_and_falls_back(monkeypatch):
    from repro.bench import config
    monkeypatch.setenv("REPRO_BENCH_SCALE", "-1-test")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
    monkeypatch.setattr(config, "_warned_values", set())
    with pytest.warns(UserWarning, match="not positive"):
        assert config.bench_scale(0.4) == 0.4


def test_scaled_rejects_explicit_nonpositive_scale():
    from repro.bench.config import scaled
    with pytest.raises(ValueError, match="positive"):
        scaled(100, scale=0)
    with pytest.raises(ValueError, match="positive"):
        scaled(100, scale=-0.5)
    assert scaled(10, scale=0.001, minimum=2) == 2


# -- CLI flags -------------------------------------------------------------------

def test_cli_trace_out_writes_chrome_trace(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    out = tmp_path / "trace.json"
    assert main(["quickstart", "--trace-out", str(out)]) == 0
    trace = json.loads(out.read_text())
    cats = {e.get("cat") for e in trace["traceEvents"] if e.get("cat")}
    assert len(cats) >= 4
    assert "RMMAP" in capsys.readouterr().out


def test_cli_seed_flag_sets_env(monkeypatch):
    import os
    from repro.cli import main
    monkeypatch.delenv("REPRO_SEED", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
    main(["list", "--seed", "7"])
    assert os.environ["REPRO_SEED"] == "7"
    assert os.environ["REPRO_CHAOS_SEED"] == "7"
