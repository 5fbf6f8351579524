"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _COMMANDS, EXPERIMENTS, main


def test_list_prints_experiments_with_descriptions(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = {line.split()[0]: line.split(None, 1)[1].strip()
              for line in lines if line.strip()}
    assert set(listed) == set(EXPERIMENTS) | set(_COMMANDS)
    for name, description in listed.items():
        assert description, f"{name} listed without a description"
    assert listed["fig14"].startswith("Fig 14")
    assert "fault" in listed["chaos-wordcount"]


def test_scale_flag_sets_env(monkeypatch, capsys):
    import os
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    main(["list", "--scale", "0.01"])
    assert os.environ["REPRO_BENCH_SCALE"] == "0.01"


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["not-a-figure"])


def test_calibration_runs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "serialize_ms" in out


def test_fig16b_runs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
    assert main(["fig16b"]) == 0
    out = capsys.readouterr().out
    assert "Naos" in out
    assert "rmmap" in out


def test_every_experiment_has_a_docstring():
    for name, row in EXPERIMENTS.items():
        assert row.description.strip(), f"{name} lacks a description"


def test_bench_writes_snapshot_and_gate_accepts_it(tmp_path, capsys):
    from repro.bench.snapshot import SCHEMA_VERSION

    out = str(tmp_path / "BENCH_x.json")
    assert main(["bench", "--json-out", out,
                 "--workload", "wordcount"]) == 0
    snap = json.load(open(out))
    assert snap["schema_version"] == SCHEMA_VERSION
    assert set(snap["workloads"]) == {"wordcount"}
    assert main(["bench-check", "--baseline", out,
                 "--candidate", out]) == 0
    assert "PASS" in capsys.readouterr().out


def test_bench_check_exits_nonzero_on_regression(tmp_path, capsys):
    base = str(tmp_path / "base.json")
    cand = str(tmp_path / "cand.json")
    assert main(["bench", "--json-out", base,
                 "--workload", "wordcount"]) == 0
    snap = json.load(open(base))
    entry = snap["workloads"]["wordcount"]["rmmap-prefetch"]
    entry["e2e_ns"] = int(entry["e2e_ns"] * 1.5)
    json.dump(snap, open(cand, "w"))
    assert main(["bench-check", "--baseline", base,
                 "--candidate", cand]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_check_requires_candidate():
    with pytest.raises(SystemExit):
        main(["bench-check"])


def test_profile_out_writes_reports_and_folded_stacks(tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    out = str(tmp_path / "profile.json")
    assert main(["quickstart", "--profile-out", out]) == 0
    reports = json.load(open(out))
    assert reports, "no traces profiled"
    for trace_id, report in reports.items():
        assert report["trace_id"] == trace_id
        assert report["total_ns"] == sum(seg["duration_ns"]
                                         for seg in report["path"])
    folded = open(out + ".folded").read().splitlines()
    assert folded
    prefixes = {line.split(";", 1)[0] for line in folded}
    assert prefixes == set(reports)


def test_bench_check_json_format_carries_diff(tmp_path, capsys):
    base = str(tmp_path / "base.json")
    cand = str(tmp_path / "cand.json")
    assert main(["bench", "--json-out", base,
                 "--workload", "wordcount"]) == 0
    snap = json.load(open(base))
    entry = snap["workloads"]["wordcount"]["rmmap-prefetch"]
    entry["e2e_ns"] = int(entry["e2e_ns"] * 1.5)
    locations = entry["critical_path"]["path_ns_by_location"]
    victim = sorted(locations)[0]
    locations[victim] += 1_000_000
    json.dump(snap, open(cand, "w"))
    capsys.readouterr()
    assert main(["bench-check", "--baseline", base, "--candidate", cand,
                 "--format", "json"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is False
    assert verdict["failures"]
    assert verdict["diff"]["kind"] == "snapshot"

    assert main(["bench-check", "--baseline", base, "--candidate", base,
                 "--format", "json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is True and verdict["diff"] is None

    assert main(["diff", "--baseline", base, "--candidate", cand]) == 0
    out = capsys.readouterr().out
    assert "root cause" in out and "e2e wordcount/rmmap-prefetch" in out
    assert victim in out

    assert main(["diff", "--baseline", base, "--candidate", cand,
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "snapshot" and report["delta_total_ns"] > 0


def test_diff_requires_candidate():
    with pytest.raises(SystemExit):
        main(["diff", "--baseline", "BENCH_0.json"])


def test_monitor_command_renders_fleet_view(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
    assert main(["monitor", "--workload", "ml-prediction",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Fleet monitor" in out
    assert "ml-prediction" in out
    assert "chaos availability" in out


def test_monitor_command_json_snapshot(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
    assert main(["monitor", "--workload", "ml-prediction",
                 "--seed", "1", "--format", "json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["observed"] > 0
    assert snap["series"][0]["workflow"] == "ml-prediction"
    assert {s["name"] for s in snap["slos"]} == \
        {"availability-999", "latency-e2e-5ms"}


def test_fleet_smoke_renders_tables(capsys):
    assert main(["fleet", "--smoke", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "fleet run: seed=0" in out
    assert "per-tenant fleet view" in out
    assert "tenant-00" in out and "shard-0" in out


def test_fleet_smoke_json_is_deterministic(tmp_path, capsys):
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    assert main(["fleet", "--smoke", "--seed", "0",
                 "--json-out", first, "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["schema"] == "fleet-result/v2"
    assert parsed["totals"]["arrivals"] > 500
    assert main(["fleet", "--smoke", "--seed", "0",
                 "--json-out", second, "--format", "json"]) == 0
    with open(first) as fa, open(second) as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("command", ["fleet", "triage"])
@pytest.mark.parametrize("flag, value", [("--shards", "3"),
                                         ("--tenants", "4"),
                                         ("--duration", "2.0")])
def test_smoke_refuses_sizing_flags(command, flag, value, capsys):
    """--smoke runs the fixed smoke fleet; a sizing flag beside it used
    to be dropped without a word."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--smoke", "--seed", "0", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--smoke" in err and flag in err


@pytest.mark.parametrize("flags", [["--smoke"], ["--shards", "0"],
                                   ["--tenants", "4"],
                                   ["--scale-up", "fork"],
                                   ["--fail-shard", "shard-1@1.0"]],
                         ids=lambda flags: flags[0])
def test_fork_bench_refuses_fleet_flags(flags, capsys):
    """fork-bench builds its own fleet and serves it under every scale-up
    mechanism; the fleet flags used to be dropped without a word."""
    with pytest.raises(SystemExit) as exc:
        main(["fork-bench", "--seed", "0", "--duration", "1"] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "fork-bench" in err and flags[0] in err


def test_fleet_custom_shape_flags(capsys):
    assert main(["fleet", "--shards", "3", "--tenants", "4",
                 "--duration", "2.0", "--seed", "5",
                 "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed["shards"]) == 3
    assert len(parsed["tenants"]) == 4
    assert parsed["seed"] == 5
