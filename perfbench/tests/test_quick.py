"""Every workload at toy size, both kinds of run, checked against the
schema ``BENCHMARK.json`` declares."""

import json
import os
import subprocess
import sys

import pytest

from perfbench.spec import ROOT, load_spec

SPEC = load_spec()
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """All twelve quick runs: (workload, trace) -> (exit code, stdout,
    stderr, --json-out path).  Run from another directory, as the
    benchmark must not depend on where it is started."""
    tmp = tmp_path_factory.mktemp("quick")
    results = {}
    for trace in (1, 0):
        for workload in WORKLOADS:
            path = str(tmp / f"{workload}-{trace}.json")
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "7",
                 "--trace", str(trace), "--quick", "--json-out", path],
                cwd=str(tmp), capture_output=True, text=True, timeout=120)
            results[(workload, trace)] = (proc.returncode, proc.stdout,
                                          proc.stderr, path)
    return results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_matches_the_contract(outputs, workload, trace):
    code, stdout, stderr, _path = outputs[(workload, trace)]
    assert code == 0, stderr
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert doc["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        entry = doc["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        # end-to-end metrics apply to every workload and are never 0
        assert all(e["value"] > 0 for e in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_reported_metric_is_declared(outputs, workload):
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for trace in (0, 1):
        with open(outputs[(workload, trace)][3], encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc["metrics"]) <= declared
        assert doc["metrics"]["fail_ratio"] == 0


def test_simulated_numbers_agree_between_the_two_runs(outputs):
    for workload in WORKLOADS:
        docs = []
        for trace in (0, 1):
            with open(outputs[(workload, trace)][3],
                      encoding="utf-8") as fh:
                docs.append(json.load(fh)["metrics"])
        shared = [k for k in docs[0] if k in docs[1] and "sim_" in k]
        assert shared
        assert {k: docs[0][k] for k in shared} \
            == {k: docs[1][k] for k in shared}


def test_layers_separate_as_claimed(outputs):
    def traced(workload):
        with open(outputs[(workload, 1)][3], encoding="utf-8") as fh:
            return json.load(fh)["metrics"]

    fleet = traced("fleet-open")
    assert fleet["fleet.run.calls"] == 1
    assert fleet["sim.engine.run.calls"] == 1
    for name, value in fleet.items():
        if name.endswith(".calls") and name.split(".")[0] in (
                "runtime", "mem", "kernel", "transfer", "net"):
            assert value == 0, name
    rmmap, serialize = traced("wf-rmmap"), traced("wf-serialize")
    assert rmmap["runtime.serialize.calls"] == 0
    assert rmmap["kernel.rmap.calls"] > 0
    assert serialize["runtime.deserialize.calls"] > 0
    assert serialize["kernel.rmap.calls"] == 0
    assert serialize["kernel.pager.fault.calls"] == 0
    cow = traced("cow-update")
    assert cow["mem.cow_breaks"] > 0
    assert cow["kernel.deregister_mem.calls"] == 1
    # throughput is its own fact only with more than one simulated client
    for workload in WORKLOADS:
        assert ("sim_throughput_per_s" in traced(workload)) \
            == (workload in ("platform-load", "fleet-open"))
    # only prefetching transports have a useful-to-attempted ratio
    assert 0 < rmmap["transfer.prefetch_useful_ratio"] <= 1
    assert "transfer.prefetch_useful_ratio" not in serialize
    assert "transfer.prefetch_useful_ratio" not in cow


def test_probes_are_reported_once(outputs):
    probes = {m["name"] for m in SPEC["per_layer"] if ".probe." in m["name"]}
    assert len(probes) == 24
    for workload in WORKLOADS:
        with open(outputs[(workload, 1)][3], encoding="utf-8") as fh:
            reported = probes & set(json.load(fh)["metrics"])
        assert reported == (probes if workload == "cow-update" else set())


def test_traced_run_writes_one_span_file_per_workload(outputs):
    for workload in WORKLOADS:
        path = os.path.join(ROOT, "perfbench", "out",
                            f"trace-{workload}.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["workload"] == workload
        assert doc["columns"] == ["name", "start_ns", "end_ns", "parent",
                                  "op"]
        assert doc["spans"]


def test_benchmark_json_obeys_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in SPEC["end_to_end"])}]
