"""repro.fork unit tests: sources, the fork path, and its opt-in."""

import pytest

from repro.errors import ForkFailed
from repro.fork import (ForkManager, ForkSource, ForkedContainer,
                        fork_fid, fork_key, remote_fork)
from repro.kernel.machine import make_cluster
from repro.platform.container import STATE_DEAD, Container
from repro.platform.dag import FunctionSpec, Workflow
from repro.platform.planner import plan_workflow
from repro.platform.scheduler import Scheduler
from repro.sim import Engine
from repro.units import DEFAULT_COST_MODEL, MB, seconds


def noop(ctx):
    return None


def setup(n_machines=2, containers_per_machine=4):
    engine = Engine()
    _fabric, machines = make_cluster(engine, n_machines)
    scheduler = Scheduler(engine, machines, DEFAULT_COST_MODEL,
                          containers_per_machine=containers_per_machine,
                          cache_ttl_ns=seconds(600))
    wf = Workflow("wf")
    wf.add_function(FunctionSpec("f", noop, width=8,
                                 memory_budget=64 * MB))
    plan = plan_workflow(wf)
    return engine, machines, scheduler, wf, plan


def make_source(machines, wf, plan, index=0):
    parent = Container(machines[0], wf.spec("f"), plan.slot("f", index))
    fid = fork_fid(("wf", "f", index))
    return parent, ForkSource(parent, fid, fork_key(fid))


def acquire(engine, scheduler, wf, plan, index=0):
    result = {}

    def proc():
        container = yield from scheduler.acquire("wf", wf.spec("f"),
                                                 index, plan)
        result["c"] = container

    engine.run_process(proc())
    return result["c"]


class TestForkSource:
    def test_registration_is_idempotent_and_lease_aware(self):
        _engine, machines, _s, wf, plan = setup()
        parent, source = make_source(machines, wf, plan)
        assert source.usable()  # a live parent can register on demand
        meta = source.ensure_registered()
        assert source.ensure_registered() is meta
        # lease reclamation invalidates the source...
        machines[0].kernel.deregister_mem(source.fid, source.key)
        assert not source.usable()
        # ...and re-registration revives it
        assert source.ensure_registered() is not meta
        assert source.usable()
        del parent

    def test_machine_crash_invalidates_source(self):
        _engine, machines, _s, wf, plan = setup()
        _parent, source = make_source(machines, wf, plan)
        source.ensure_registered()
        machines[0].crash()
        assert not source.usable()
        source.release()  # must not raise against a dead machine
        assert source.meta is None

    def test_manager_adopts_lexicographically_first_live_pod(self):
        _engine, machines, _s, wf, plan = setup()
        manager = ForkManager()
        a = Container(machines[0], wf.spec("f"), plan.slot("f", 0))
        b = Container(machines[1], wf.spec("f"), plan.slot("f", 1))
        pool = sorted([a, b], key=lambda c: c.name, reverse=True)
        source = manager.source_for(("wf", "f", 0), pool)
        assert source.container is min(pool, key=lambda c: c.name)
        # same source handed back while usable
        assert manager.source_for(("wf", "f", 0), pool) is source
        del a, b


class TestRemoteFork:
    def test_child_is_cheap_cow_and_lean(self):
        engine, machines, _s, wf, plan = setup()
        _parent, source = make_source(machines, wf, plan)
        parent_heap = source.container.heap
        root = parent_heap.box({"model": list(range(500))})
        parent_heap.add_root(root)

        child = remote_fork(source, machines[1], wf.spec("f"),
                            plan.slot("f", 0))
        assert isinstance(child, ForkedContainer)
        assert source.forks_served == 1
        # readiness is charged to the child's ledger — orders of
        # magnitude below a cold boot
        assert 0 < child.space.ledger.total() \
            < DEFAULT_COST_MODEL.container_coldstart_ns // 100
        # the child reads the parent's state through the CoW mapping
        assert child.heap.load(root) == {"model": list(range(500))}
        # divergence: the child's writes never reach the parent
        child_root = child.heap.box("child-only")
        assert child.heap.load(child_root) == "child-only"
        assert parent_heap.load(root) == {"model": list(range(500))}
        # no interpreter/libraries resident at birth
        assert child.space.extra_resident_pages == 0
        assert child.space.resident_pages() \
            < source.container.space.resident_pages() + 8
        del engine

    def test_fork_from_dead_source_fails_cleanly(self):
        _engine, machines, _s, wf, plan = setup()
        _parent, source = make_source(machines, wf, plan)
        source.ensure_registered()
        machines[0].crash()
        frames_before = machines[1].physical.used_frames
        with pytest.raises(ForkFailed):
            remote_fork(source, machines[1], wf.spec("f"),
                        plan.slot("f", 0))
        # no partial child left behind on the target
        assert machines[1].physical.used_frames == frames_before


class TestSchedulerForkPath:
    def test_concurrent_acquire_forks_instead_of_cold_starting(self):
        engine, _m, scheduler, wf, plan = setup()
        scheduler.enable_fork()
        c1 = acquire(engine, scheduler, wf, plan)  # cold boot, stays busy
        t0 = engine.now
        c2 = acquire(engine, scheduler, wf, plan)  # same slot, forked
        assert isinstance(c2, ForkedContainer)
        assert scheduler.cold_starts == 1
        assert scheduler.fork_starts == 1
        assert scheduler.fork_manager.forks == 1
        # ready in the fork's ledger time, not another 450 ms boot
        assert engine.now - t0 \
            < DEFAULT_COST_MODEL.container_coldstart_ns // 100
        assert c2.machine is not c1.machine  # least-loaded placement

    def test_without_enable_fork_never_forks(self):
        engine, _m, scheduler, wf, plan = setup()
        acquire(engine, scheduler, wf, plan)
        acquire(engine, scheduler, wf, plan)
        assert scheduler.fork_starts == 0
        assert scheduler.cold_starts == 2

    def test_forked_pod_is_reusable_and_evictable(self):
        engine, _m, scheduler, wf, plan = setup()
        scheduler.enable_fork()
        c1 = acquire(engine, scheduler, wf, plan)
        c2 = acquire(engine, scheduler, wf, plan)
        scheduler.release(c2)
        c3 = acquire(engine, scheduler, wf, plan)  # warm hit on the fork
        assert c3 is c2
        assert scheduler.warm_starts == 1
        scheduler.release(c1)
        scheduler.release(c3)
        machine = c2.machine
        for container in (c1, c2):
            scheduler._destroy(("wf", "f", 0), container)
        assert c2.state == STATE_DEAD
        assert machine.physical.used_frames == 0

    def test_reset_starts_zeroes_every_mode(self):
        engine, _m, scheduler, wf, plan = setup()
        scheduler.enable_fork()
        c1 = acquire(engine, scheduler, wf, plan)
        acquire(engine, scheduler, wf, plan)
        scheduler.release(c1)
        acquire(engine, scheduler, wf, plan)
        stats = scheduler.stats()
        assert stats["cold_starts"] == stats["fork_starts"] \
            == stats["warm_starts"] == 1
        scheduler.reset_starts()
        stats = scheduler.stats()
        assert stats["cold_starts"] == stats["warm_starts"] \
            == stats["fork_starts"] == stats["fork_fallbacks"] == 0
