"""Fleet-level fork tests: the scale-up knob, its cold default,
determinism, and the fork-bench headline comparison."""

import pytest

from repro.fleet import ScaleUpConfig
from repro.fleet.runner import run_fleet, smoke_spec
from repro.fork.bench import (BENCH_SCHEMA, bursty_fleet_spec, fork_bench,
                              render_bench)
from repro.fork.policy import (POD_FRAMES, SCALE_UP_COLD, SCALE_UP_FORK,
                               SCALE_UP_PREWARM)


def fork_smoke_spec(seed=0):
    spec = smoke_spec(seed=seed)
    spec.scale_up = ScaleUpConfig.from_kind(SCALE_UP_FORK)
    return spec


@pytest.fixture(scope="module")
def fork_smoke():
    return run_fleet(fork_smoke_spec())


@pytest.fixture(scope="module")
def bench_report():
    return fork_bench(seed=0, duration_s=3.0)


class TestScaleUpKnob:
    def test_fork_run_counts_fork_starts(self, fork_smoke):
        totals = fork_smoke.totals
        assert totals["starts"]["fork"] > 0
        assert totals["starts"]["prewarm"] == 0
        assert totals["frames"]["peak"] >= totals["frames"]["mean"] > 0
        assert fork_smoke.to_dict()["spec"]["scale_up"]["kind"] == "fork"

    def test_shard_stats_carry_start_split_and_frames(self, fork_smoke):
        for shard in fork_smoke.shards:
            assert set(shard["starts"]) == {"cold", "prewarm", "fork"}
            assert shard["frames"]["resident"] >= 0

    def test_fork_run_replays_byte_identically(self, fork_smoke):
        assert run_fleet(fork_smoke_spec()).to_json() \
            == fork_smoke.to_json()

    def test_default_knob_is_the_cold_model(self):
        """The scale-up keys are always present; the default spec is the
        cold mechanism and serves exactly like an explicit cold run."""
        default = run_fleet(smoke_spec(seed=0))
        doc = default.to_dict()
        assert doc["spec"]["scale_up"]["kind"] == "cold"
        assert doc["totals"]["starts"]["fork"] == 0
        assert doc["totals"]["frames"]["peak"] > 0
        explicit_spec = smoke_spec(seed=0)
        explicit_spec.scale_up = ScaleUpConfig.from_kind(SCALE_UP_COLD)
        assert run_fleet(explicit_spec).to_json() == default.to_json()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScaleUpConfig.from_kind("teleport")


class TestForkBench:
    def test_schema_and_mechanism_purity(self, bench_report):
        assert bench_report["schema"] == BENCH_SCHEMA
        rows = bench_report["rows"]
        # each run scales up via exactly its own mechanism
        assert rows[SCALE_UP_COLD]["starts"]["fork"] == 0
        assert rows[SCALE_UP_COLD]["starts"]["cold"] > 0
        assert rows[SCALE_UP_PREWARM]["starts"] == \
            {"cold": 0, "prewarm": rows[SCALE_UP_PREWARM]
             ["starts"]["prewarm"], "fork": 0}
        assert rows[SCALE_UP_FORK]["starts"]["fork"] > 0
        assert rows[SCALE_UP_FORK]["starts"]["cold"] == 0

    def test_fork_beats_cold_on_tail_latency(self, bench_report):
        cmp_ = bench_report["comparison"]
        assert cmp_["fork_vs_cold_p99"] < 1.0

    def test_fork_beats_prewarm_on_resident_frames(self, bench_report):
        cmp_ = bench_report["comparison"]
        assert cmp_["fork_vs_prewarm_frames"] < 1.0
        # ...while prewarm pins max_pods fully-resident the whole run
        rows = bench_report["rows"]
        spec = bursty_fleet_spec(0, SCALE_UP_PREWARM)
        full_pool = POD_FRAMES * spec.max_pods * spec.n_shards
        assert rows[SCALE_UP_PREWARM]["frames"]["mean"] \
            == pytest.approx(full_pool)

    def test_identical_traffic_across_mechanisms(self, bench_report):
        rows = bench_report["rows"]
        served = {kind: row["completed"] + row["rejected"]
                  for kind, row in rows.items()}
        # same seeded arrivals; only the serving mechanism differs
        assert served[SCALE_UP_FORK] == served[SCALE_UP_PREWARM]

    def test_render_is_textual_and_complete(self, bench_report):
        text = render_bench(bench_report)
        assert "fork-bench" in text
        for kind in (SCALE_UP_COLD, SCALE_UP_PREWARM, SCALE_UP_FORK):
            assert kind in text
