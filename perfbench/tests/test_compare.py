"""Verdict rules of perfbench/compare.py."""

import json
from types import SimpleNamespace

from perfbench import compare
from perfbench.compare import (compare_sets, failed_ops, verdict_exact,
                               verdict_host)

STEADY = [100.0, 101.0, 99.5, 100.5, 100.2]


def scaled(values, factor):
    return [v * factor for v in values]


def test_host_verdicts_use_the_bound():
    assert verdict_host(STEADY, scaled(STEADY, 1.05), "lower", 0.10) \
        == "same"
    assert verdict_host(STEADY, scaled(STEADY, 1.15), "lower", 0.10) \
        == "worse"
    assert verdict_host(STEADY, scaled(STEADY, 0.85), "lower", 0.10) \
        == "better"
    # direction flips for throughput-like metrics
    assert verdict_host(STEADY, scaled(STEADY, 1.15), "higher", 0.10) \
        == "better"
    assert verdict_host(STEADY, scaled(STEADY, 0.85), "higher", 0.10) \
        == "worse"


def test_wide_spread_is_unresolved_not_same():
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert verdict_host(noisy, scaled(noisy, 1.02), "lower", 0.10) \
        == "unresolved"
    # ... unless every run of B reads better than every run of A
    assert verdict_host(noisy, scaled(noisy, 0.5), "lower", 0.10) \
        == "better"
    assert verdict_host(noisy, scaled(noisy, 2.0), "lower", 0.10) \
        == "unresolved"


def test_single_runs_have_no_spread():
    assert verdict_host([10.0], [10.5], "lower", 0.10) == "same"
    assert verdict_host([10.0], [12.0], "lower", 0.10) == "worse"


def test_exact_metrics_compare_to_the_last_digit():
    assert verdict_exact([1.5, 1.5], [1.5], "lower") == "same"
    assert verdict_exact([1.5], [1.5000001], "lower") == "worse"
    assert verdict_exact([1.5], [1.4999999], "lower") == "better"
    assert verdict_exact([10], [11], "higher") == "better"
    # a side that disagrees with itself was not a function of the seed
    assert verdict_exact([1.5, 1.6], [1.5], "lower") == "unresolved"


SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "host_ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.10}],
    "per_layer": [
        {"name": "sim_throughput_per_s", "unit": "1/s", "better": "higher"},
        {"name": "mem.faults", "unit": "count", "better": "lower"},
        {"name": "runtime.box.self_s", "unit": "s", "better": "lower"}],
}


def _set(ops, sim, faults, self_s, failed=0):
    timed = [{"workload": "w", "failed": failed, "traced": False,
              "metrics": {"host_ops_per_s": v,
                          "sim_throughput_per_s": sim}} for v in ops]
    traced = {"workload": "w", "failed": 0, "traced": True,
              "metrics": {"sim_throughput_per_s": sim,
                          "host_ops_per_s": 1.0,    # never pooled
                          "mem.faults": faults,
                          "runtime.box.self_s": self_s}}
    return {"w": timed + [traced]}


def test_compare_sets_rows_and_clocks():
    base = _set(STEADY, 28.25, 1200, 1.00)
    other = _set(scaled(STEADY, 1.3), 28.25, 1100, 1.10)
    rows = {r.metric: r for r in compare_sets(base, other, SPEC)}
    assert rows["host_ops_per_s"].verdict == "better"
    assert rows["host_ops_per_s"].clock == "host"
    assert abs(rows["host_ops_per_s"].ratio - 1.3) < 1e-9
    assert rows["sim_throughput_per_s"].verdict == "same"
    assert rows["sim_throughput_per_s"].clock == "sim"
    assert rows["mem.faults"].verdict == "better"
    assert rows["mem.faults"].clock == "exact"
    # per-layer host metric: judged with the layer band, not a bound
    assert rows["runtime.box.self_s"].verdict == "same"
    assert failed_ops(base) == 0
    assert failed_ops(_set(STEADY, 1, 1, 1, failed=2)) == 10


def test_a_child_that_writes_no_result_is_a_failed_op(tmp_path, monkeypatch):
    """A run killed before it reports must not abort the collection."""
    def run(cmd, **_kwargs):
        out = cmd[cmd.index("--json-out") + 1]
        if cmd[cmd.index("--trace") + 1] == "1":
            return SimpleNamespace(returncode=-9)   # died, wrote nothing
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"workload": "w", "traced": False, "attempted": 3,
                       "failed": 0, "metrics": {"host_ops_per_s": 2.0}},
                      fh)
        return SimpleNamespace(returncode=0)

    monkeypatch.setattr(compare.subprocess, "run", run)
    path = str(tmp_path / "set.json")
    compare.collect([path], seed=7, spec=SPEC)
    runs = compare.load_set(path)["w"]
    assert len(runs) == compare.RUNS + 1
    assert [r["failed"] for r in runs] == [0] * compare.RUNS + [1]
    assert runs[-1]["traced"] and runs[-1]["metrics"] == {}
    assert "code -9" in runs[-1]["notes"][0]
    assert failed_ops({"w": runs}) == 1
