"""Sharded coordinators: queueing, admission, autoscaling, failover."""

import pytest

from repro.fleet.admission import (AdmissionController, REJECT_QUEUE_FULL,
                                   REJECT_RATE_LIMIT, REJECT_SHARD_DOWN)
from repro.fleet.shard import (CoordinatorShard, ShardAutoscaler,
                               ShardedCoordinator)
from repro.sim.engine import Engine, Timeout

MS = 1_000_000
SECOND = 1_000_000_000


def make_coord(engine, **kwargs):
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("pods_per_shard", 1)
    kwargs.setdefault("autoscale", False)
    return ShardedCoordinator(engine, **kwargs).start()


class TestQueueing:
    def test_single_pod_serves_fifo(self):
        engine = Engine()
        coord = make_coord(engine, n_shards=1)
        order = []

        def driver():
            procs = []
            for i in range(4):
                procs.append(coord.submit("t", "w", "x", 10 * MS))
            for i, proc in enumerate(procs):
                proc.add_callback(lambda _ev, i=i: order.append(i))
            yield Timeout(SECOND)

        engine.run_process(driver(), name="driver")
        assert order == [0, 1, 2, 3]
        assert coord.completed == 4
        shard = coord.shards["shard-0"]
        assert shard.peak_inflight == 1 and shard.peak_queue == 3

    def test_later_arrival_cannot_jump_the_queue(self):
        engine = Engine()
        coord = make_coord(engine, n_shards=1)
        order = []

        def driver():
            first = coord.submit("t", "w", "x", 10 * MS)
            queued = coord.submit("t", "w", "x", 10 * MS)
            yield Timeout(5 * MS)
            # arrives while the queue is non-empty: must go behind it
            late = coord.submit("t", "w", "x", 10 * MS)
            for name, proc in (("first", first), ("queued", queued),
                               ("late", late)):
                proc.add_callback(lambda _ev, n=name: order.append(n))
            yield Timeout(SECOND)

        engine.run_process(driver(), name="driver")
        assert order == ["first", "queued", "late"]

    def test_utilization_is_an_exact_integral(self):
        engine = Engine()
        shard = CoordinatorShard(engine, "s", pods=1)

        def one_second_of_work():
            shard.take(engine.now)
            yield Timeout(SECOND)
            shard.release(engine.now)

        engine.spawn(one_second_of_work(), name="work")
        engine.run(until=2 * SECOND)
        assert shard.utilization(2 * SECOND) == pytest.approx(0.5)


class TestAdmission:
    def test_queue_full_rejects_with_typed_reason(self):
        engine = Engine()
        coord = make_coord(engine, n_shards=1, queue_limit=1)

        def driver():
            assert coord.submit("t", "w", "x", 10 * MS) is not None
            assert coord.submit("t", "w", "x", 10 * MS) is not None
            assert coord.submit("t", "w", "x", 10 * MS) is None
            yield Timeout(SECOND)

        engine.run_process(driver(), name="driver")
        assert coord.admission.rejected_by_reason() \
            == {REJECT_QUEUE_FULL: 1}
        assert coord.completed == 2

    def test_rate_limit_rejects_before_any_process_exists(self):
        engine = Engine()
        admission = AdmissionController()
        admission.configure("capped", rate_per_s=1.0, burst=1.0)
        coord = make_coord(engine, admission=admission)

        def driver():
            assert coord.submit("capped", "w", "x", MS) is not None
            assert coord.submit("capped", "w", "x", MS) is None
            yield Timeout(SECOND)

        engine.run_process(driver(), name="driver")
        assert coord.admission.rejected_by_reason() \
            == {REJECT_RATE_LIMIT: 1}
        assert coord.submitted == 1  # the rejected one never spawned


class TestFailover:
    def test_crash_aborts_inflight_and_queued(self):
        engine = Engine()
        coord = make_coord(engine, n_shards=1)

        def driver():
            for _ in range(3):  # 1 inflight + 2 queued on the only pod
                coord.submit("t", "w", "x", SECOND)
            yield Timeout(10 * MS)
            aborted = coord.fail_shard("shard-0")
            assert aborted == 3
            yield Timeout(10 * MS)

        engine.run_process(driver(), name="driver")
        assert coord.failed == 3 and coord.completed == 0
        shard = coord.shards["shard-0"]
        assert not shard.alive and shard.died_ns == 10 * MS

    def test_tenants_fail_over_to_surviving_shards(self):
        engine = Engine()
        coord = make_coord(engine, n_shards=2)
        tenants = [f"tenant-{i}" for i in range(20)]
        before = coord.placements(tenants)
        victims = [t for t, s in before.items() if s == "shard-0"]
        survivors = [t for t, s in before.items() if s == "shard-1"]
        assert victims and survivors

        def driver():
            coord.fail_shard("shard-0")
            after = coord.placements(tenants)
            # minimal movement: only the dead shard's tenants relocate
            for tenant in survivors:
                assert after[tenant] == "shard-1"
            for tenant in victims:
                assert after[tenant] == "shard-1"
            # and traffic for a failed-over tenant now completes
            assert coord.submit(victims[0], "w", "x", MS) is not None
            yield Timeout(SECOND)

        engine.run_process(driver(), name="driver")
        assert coord.completed == 1
        assert coord.live_shards() == ["shard-1"]

    def test_total_outage_rejects_shard_down(self):
        engine = Engine()
        coord = make_coord(engine, n_shards=1)

        def driver():
            coord.fail_shard("shard-0")
            assert coord.submit("t", "w", "x", MS) is None
            yield Timeout(10 * MS)

        engine.run_process(driver(), name="driver")
        assert coord.admission.rejected_by_reason() \
            == {REJECT_SHARD_DOWN: 1}

    def test_crash_replays_bit_identically(self):
        def run():
            engine = Engine()
            coord = make_coord(engine, n_shards=2)

            def driver():
                for i in range(10):
                    coord.submit(f"tenant-{i % 3}", "w", "x", 20 * MS)
                    yield Timeout(5 * MS)
                coord.fail_shard("shard-0")
                yield Timeout(SECOND)

            engine.run_process(driver(), name="driver")
            return coord.stats(engine.now)

        assert run() == run()


class TestAutoscaler:
    def test_scales_up_after_cold_start(self):
        engine = Engine()
        shard = CoordinatorShard(engine, "s", pods=1)
        scaler = ShardAutoscaler(engine, shard, min_pods=1, max_pods=8,
                                 cold_start_ns=50 * MS)
        scaler.start()

        def flood():
            shard.take(engine.now)
            for _ in range(6):
                shard.enqueue(engine.now)
            yield Timeout(0)

        engine.spawn(flood(), name="flood")
        engine.run(until=SECOND)
        assert shard.pods > 1
        assert scaler.scale_ups >= 1
        assert shard.peak_pods == shard.pods

    def test_scale_down_needs_sustained_idleness(self):
        engine = Engine()
        shard = CoordinatorShard(engine, "s", pods=1)
        shard.set_pods(6, 0)
        # decisions every AUTOSCALE_INTERVAL_NS (100 ms); scale-down
        # waits for IDLE_INTERVALS (3) in a row
        scaler = ShardAutoscaler(engine, shard, min_pods=1, max_pods=8)
        scaler.start()
        engine.run(until=250 * MS)
        assert shard.pods == 6  # only 2 idle decisions so far
        engine.run(until=SECOND)
        assert shard.pods == 1
        assert scaler.scale_downs == 1

    def test_desired_pods_clamps_to_bounds(self):
        engine = Engine()
        shard = CoordinatorShard(engine, "s", pods=1)
        scaler = ShardAutoscaler(engine, shard, min_pods=2, max_pods=4)
        assert scaler.desired_pods() == 2  # zero demand -> min
        shard.inflight = 100
        assert scaler.desired_pods() == 4  # huge demand -> max


class TestStats:
    def test_stats_shape(self):
        engine = Engine()
        coord = make_coord(engine, n_shards=2)

        def driver():
            coord.submit("t", "w", "x", MS)
            yield Timeout(SECOND)

        engine.run_process(driver(), name="driver")
        stats = coord.stats(engine.now)
        assert stats["submitted"] == 1 and stats["completed"] == 1
        assert set(stats["admission"]) \
            == {"admitted", "rejected", "by_reason", "by_tenant"}
        assert [s["shard"] for s in stats["shards"]] \
            == ["shard-0", "shard-1"]
        for entry in stats["shards"]:
            assert 0.0 <= entry["utilization"] <= 1.0
