"""Benchmark snapshots and the regression gate.

A small matrix (one workload) keeps the collect() round fast; the
committed ``BENCH_0.json`` baseline is validated structurally and against
itself through the gate, so a stale or hand-edited baseline fails here
before it fails in CI.
"""

import json
import os

import pytest

from repro.bench import regression, snapshot

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
BASELINE = os.path.abspath(os.path.join(REPO_ROOT, "BENCH_0.json"))


@pytest.fixture(scope="module")
def snap():
    return snapshot.collect(workloads=["wordcount"])


class TestSnapshot:
    def test_schema_and_operating_point(self, snap):
        assert snap["schema_version"] == snapshot.SCHEMA_VERSION
        assert snap["seed"] == snapshot.DEFAULT_SEED
        assert snap["scale"] == snapshot.DEFAULT_SCALE
        assert set(snap["workloads"]) == {"wordcount"}
        assert set(snap["workloads"]["wordcount"]) \
            == set(snapshot.DEFAULT_TRANSPORTS)

    def test_entries_carry_headline_metrics(self, snap):
        for entry in snap["workloads"]["wordcount"].values():
            assert entry["e2e_ns"] > 0
            for key in ("transform_ns", "network_ns", "reconstruct_ns"):
                assert entry[key] >= 0
            cp = entry["critical_path"]
            assert cp["total_ns"] == entry["e2e_ns"]
            assert cp["segments"] > 0 and cp["span_count"] > 0
            assert len(cp["layers"]) >= 6
            assert sum(cp["path_ns_by_layer"].values()) == cp["total_ns"]
            assert 0.0 < cp["top_share"] <= 1.0

    def test_derived_speedups_match_e2e(self, snap):
        row = snap["workloads"]["wordcount"]
        for transport in snapshot.DEFAULT_TRANSPORTS:
            if transport == "messaging":
                continue
            key = f"wordcount.{transport}.speedup_over_messaging"
            assert snap["derived"][key] == pytest.approx(
                row["messaging"]["e2e_ns"] / row[transport]["e2e_ns"],
                abs=1e-4)

    def test_collect_is_deterministic(self, snap):
        again = snapshot.collect(workloads=["wordcount"])
        a, b = dict(snap), dict(again)
        # the one host-dependent section; the rest is (code, seed, scale)
        a.pop("environment"), b.pop("environment")
        assert json.dumps(a, sort_keys=True) == json.dumps(b,
                                                           sort_keys=True)

    def test_no_host_dependent_leaf_besides_environment(self, snap):
        """v6: the snapshot carries simulated leaves only — no ``wall``
        section, no rate or elapsed-time leaf anywhere; host time is
        perfbench's to measure."""
        assert set(snap) == {"schema_version", "seed", "scale",
                             "workloads", "derived", "environment"}
        for leaf in regression.flatten(snap):
            assert not leaf.startswith("wall."), leaf
            assert "_per_sec" not in leaf and "elapsed" not in leaf, leaf

    def test_write_load_round_trip(self, snap, tmp_path):
        path = str(tmp_path / "BENCH_7.json")
        snapshot.write_snapshot(snap, path)
        assert snapshot.load_snapshot(path) == snap

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = str(tmp_path / "BENCH_1.json")
        path2 = str(tmp_path / "BENCH_2.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 99}, fh)
        with pytest.raises(ValueError, match="schema"):
            snapshot.load_snapshot(path)
        with open(path2, "w") as fh:
            json.dump({}, fh)
        with pytest.raises(ValueError, match="schema"):
            snapshot.load_snapshot(path2)
        # the wall-bearing schemas (v2-v5) are foreign too
        for old in range(2, snapshot.SCHEMA_VERSION):
            with open(path, "w") as fh:
                json.dump({"schema_version": old, "seed": 0,
                           "scale": 0.05}, fh)
            with pytest.raises(ValueError, match="schema"):
                snapshot.load_snapshot(path)

    def test_next_snapshot_path_picks_free_slot(self, tmp_path):
        d = str(tmp_path)
        assert snapshot.next_snapshot_path(d).endswith("BENCH_0.json")
        for n in (0, 3):
            open(os.path.join(d, f"BENCH_{n}.json"), "w").close()
        assert snapshot.snapshot_paths(d) == [
            os.path.join(d, "BENCH_0.json"),
            os.path.join(d, "BENCH_3.json")]
        assert snapshot.next_snapshot_path(d).endswith("BENCH_4.json")


class TestRegressionGate:
    def test_identical_snapshots_pass(self, snap):
        report = regression.compare(snap, snap)
        assert report.ok and report.compared > 0
        assert not report.improvements
        assert "PASS" in report.render()

    def test_latency_increase_fails(self, snap):
        worse = json.loads(json.dumps(snap))
        entry = worse["workloads"]["wordcount"]["rmmap-prefetch"]
        entry["e2e_ns"] = int(entry["e2e_ns"] * 1.05)
        report = regression.compare(snap, worse)
        assert not report.ok
        assert any("rmmap-prefetch.e2e_ns" in f.metric
                   for f in report.failures)
        assert "FAIL" in report.render()

    def test_latency_decrease_is_an_improvement_not_a_failure(self, snap):
        better = json.loads(json.dumps(snap))
        entry = better["workloads"]["wordcount"]["messaging"]
        entry["e2e_ns"] = int(entry["e2e_ns"] * 0.90)
        report = regression.compare(snap, better)
        # e2e drop is an improvement; but span counts / derived speedups
        # did not move with it, so nothing else fails either
        assert any(f.metric.endswith("messaging.e2e_ns")
                   for f in report.improvements)
        assert all("messaging.e2e_ns" not in f.metric
                   for f in report.failures)

    def test_speedup_drop_fails(self, snap):
        worse = json.loads(json.dumps(snap))
        key = "wordcount.rmmap-prefetch.speedup_over_messaging"
        worse["derived"][key] = snap["derived"][key] * 0.9
        report = regression.compare(snap, worse)
        assert any(f.metric.endswith(key) for f in report.failures)

    def test_missing_metric_fails_and_new_metric_is_reported(self, snap):
        cand = json.loads(json.dumps(snap))
        del cand["workloads"]["wordcount"]["messaging"]["network_ns"]
        cand["workloads"]["wordcount"]["messaging"]["extra_ns"] = 1
        report = regression.compare(snap, cand)
        assert any(f.kind == "missing" for f in report.failures)
        assert any(f.kind == "new" for f in report.new_metrics)

    def test_environment_drift_ignored(self, snap):
        cand = json.loads(json.dumps(snap))
        cand["environment"]["python"] = "9.9.9"
        assert regression.compare(snap, cand).ok

    def test_mismatched_operating_point_refused(self, snap):
        cand = json.loads(json.dumps(snap))
        cand["scale"] = 1.0
        with pytest.raises(ValueError, match="scale"):
            regression.compare(snap, cand)
        old = json.loads(json.dumps(snap))
        old["schema_version"] = snapshot.SCHEMA_VERSION - 1
        with pytest.raises(ValueError, match="schema_version"):
            regression.compare(old, snap)

    def test_tolerance_overrides_longest_prefix_wins(self, snap):
        worse = json.loads(json.dumps(snap))
        entry = worse["workloads"]["wordcount"]["messaging"]
        entry["e2e_ns"] = int(entry["e2e_ns"] * 1.05)
        loose = regression.compare(
            snap, worse,
            overrides={"workloads.": 0.02,
                       "workloads.wordcount.messaging.": 0.10})
        assert loose.ok
        tight = regression.compare(snap, worse,
                                   overrides={"workloads.": 0.02})
        assert not tight.ok

    def test_direction_heuristics(self):
        assert regression.metric_direction("a.b.e2e_ns") == "up"
        assert regression.metric_direction("x.latency_ms") == "up"
        assert regression.metric_direction(
            "derived.w.t.speedup_over_messaging") == "down"
        assert regression.metric_direction(
            "workloads.w.t.critical_path.span_count") == "both"
        assert regression.metric_direction(
            "fleet.events_per_sec") == "down"


class TestCommittedBaseline:
    def test_baseline_exists_and_validates(self):
        baseline = snapshot.load_snapshot(BASELINE)
        assert baseline["seed"] == snapshot.DEFAULT_SEED
        assert baseline["scale"] == snapshot.DEFAULT_SCALE
        assert set(baseline["workloads"]) == set(snapshot.DEFAULT_WORKLOADS)

    def test_baseline_passes_the_gate_against_itself(self):
        report = regression.check_paths(BASELINE, BASELINE)
        assert report.ok and report.compared > 100

    def test_baseline_matches_a_fresh_wordcount_collect(self, snap):
        """The committed numbers reproduce on this host (full-precision
        equality — the simulator is deterministic)."""
        baseline = snapshot.load_snapshot(BASELINE)
        assert baseline["workloads"]["wordcount"] \
            == snap["workloads"]["wordcount"]
