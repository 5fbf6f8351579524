"""run_fleet: determinism, accounting identities, chaos replay."""

import json

import pytest

from repro.fleet.runner import (FleetSpec, ServiceProfile, run_fleet,
                                smoke_spec)
from repro.fleet.traffic import (PoissonArrivals, TenantSpec, TrafficMix,
                                 default_tenants)


@pytest.fixture(scope="module")
def smoke_result():
    return run_fleet(smoke_spec(seed=0))


class TestServiceProfile:
    def test_static_mean_orders_transports_like_the_paper(self):
        profile = ServiceProfile()
        slow = profile.mean_ns("wordcount", "storage")
        mid = profile.mean_ns("wordcount", "messaging")
        fast = profile.mean_ns("wordcount", "rmmap-prefetch")
        assert fast < mid < slow

    def test_pair_override_wins(self):
        profile = ServiceProfile(pair_ns={("w", "t"): 123})
        assert profile.mean_ns("w", "t") == 123

    def test_sample_is_seeded_and_positive(self):
        from repro.sim.rng import make_rng
        profile = ServiceProfile(sigma=0.5)
        a = [profile.sample(make_rng(3).stream("s"), "wordcount", "rmmap")
             for _ in range(1)]
        b = [profile.sample(make_rng(3).stream("s"), "wordcount", "rmmap")
             for _ in range(1)]
        assert a == b and a[0] >= 1

    def test_calibrated_measures_each_pair_through_the_facade(self):
        from repro.api import run
        profile = ServiceProfile.calibrated([("wordcount", "rmmap")],
                                            scale=0.02)
        assert profile.kind == "calibrated"
        assert profile.pair_ns == {("wordcount", "rmmap"): run(
            "wordcount", transport="rmmap", scale=0.02).latency_ns}

    def test_to_dict_serializes_pairs_as_strings(self):
        profile = ServiceProfile(pair_ns={("w", "t"): 5})
        assert profile.to_dict()["pair_ns"] == {"w/t": 5}


class TestSmokeRun:
    def test_result_is_byte_identical_at_the_same_seed(self, smoke_result):
        again = run_fleet(smoke_spec(seed=0))
        assert smoke_result.to_json() == again.to_json()

    def test_different_seeds_differ(self, smoke_result):
        other = run_fleet(smoke_spec(seed=1))
        assert smoke_result.to_json() != other.to_json()

    def test_totals_identity(self, smoke_result):
        totals = smoke_result.totals
        assert totals["arrivals"] == totals["submitted"] \
            + totals["rejected"]
        assert totals["submitted"] == totals["completed"] \
            + totals["failed"] + totals["inflight_at_end"]
        assert totals["arrivals"] > 500

    def test_tenant_entries_are_consistent(self, smoke_result):
        assert len(smoke_result.tenants) == 3
        for entry in smoke_result.tenants:
            assert entry["arrivals"] == entry["submitted"] \
                + entry["rejected"]
            assert 0.0 <= entry["availability"] <= 1.0
            assert entry["p99_ms"] >= entry["p50_ms"] >= 0.0
            assert entry["shard"] is not None
        assert smoke_result.tenant("tenant-00")["tenant"] == "tenant-00"
        with pytest.raises(KeyError):
            smoke_result.tenant("nope")

    def test_json_schema_and_wall_exclusion(self, smoke_result):
        d = smoke_result.to_dict()
        assert d["schema"] == "fleet-result/v2"
        assert "wall" not in d
        # perfbench reads these two off every fleet run
        assert {"events", "records"} <= set(smoke_result.wall)
        assert smoke_result.wall["invocations"] \
            == smoke_result.totals["completed"] \
            + smoke_result.totals["failed"]
        json.loads(smoke_result.to_json())  # valid JSON

    def test_render_mentions_the_headline(self, smoke_result):
        text = smoke_result.render()
        assert "fleet run:" in text
        assert "tenant-00" in text and "shard-0" in text

    def test_monitor_observed_every_terminal_event(self, smoke_result):
        totals = smoke_result.totals
        assert totals["observed"] == totals["completed"] \
            + totals["failed"] + totals["rejected"]


class TestChaosRun:
    @pytest.fixture(scope="class")
    def chaos_spec(self):
        spec = smoke_spec(seed=7)
        spec.shard_failures = [(3.0, "shard-1")]
        return spec

    def test_shard_crash_fails_over(self, chaos_spec):
        result = run_fleet(chaos_spec)
        dead = [s for s in result.shards if not s["alive"]]
        assert [s["shard"] for s in dead] == ["shard-1"]
        assert dead[0]["died_ns"] == 3_000_000_000
        # traffic continued after the crash on the survivor
        survivor = [s for s in result.shards if s["alive"]][0]
        assert survivor["completed"] > 0
        assert result.totals["failed"] > 0 \
            or result.totals["rejected"] > 0

    def test_chaos_replay_is_byte_identical(self, chaos_spec):
        a = run_fleet(chaos_spec)
        b = run_fleet(chaos_spec)
        assert a.to_json() == b.to_json()


class TestSpec:
    def test_expected_invocations_sums_rates(self):
        spec = FleetSpec(tenants=[
            TenantSpec("a", PoissonArrivals(10.0),
                       TrafficMix.single("w", "t")),
            TenantSpec("b", PoissonArrivals(30.0),
                       TrafficMix.single("w", "t")),
        ], duration_s=5.0)
        assert spec.expected_invocations() == 200

    def test_empty_fleet_refused(self):
        with pytest.raises(ValueError):
            run_fleet(FleetSpec(tenants=[]))

    def test_spec_round_trips_through_json(self):
        spec = smoke_spec(seed=2)
        d = spec.to_dict()
        assert d["seed"] == 2 and len(d["tenants"]) == 3
        json.dumps(d, sort_keys=True)


class TestTenantIsolation:
    def test_adding_a_tenant_never_perturbs_another(self):
        """The satellite guarantee: tenant-00's entire outcome is a pure
        function of (seed, its own spec), not of fleet composition."""
        base = default_tenants(2, base_rate_rps=40.0)
        spec_small = FleetSpec(tenants=list(base), seed=0,
                               duration_s=4.0, n_shards=4)
        extra = default_tenants(3, base_rate_rps=40.0)[2]
        spec_big = FleetSpec(tenants=list(base) + [extra], seed=0,
                             duration_s=4.0, n_shards=4)
        small = run_fleet(spec_small)
        big = run_fleet(spec_big)
        for name in ("tenant-00", "tenant-01"):
            a, b = small.tenant(name), big.tenant(name)
            # placement may differ in load but arrival/mix/service
            # streams may not: identical arrival counts per tenant
            assert a["arrivals"] == b["arrivals"]
