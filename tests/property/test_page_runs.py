"""Differential tests: the page-run fault path against the per-page code
it replaced.

``tests/parent_reference.py`` keeps the old chain — one ``translate`` ->
``find_vma`` -> ``handle_fault`` -> ``qp.read`` -> ``allocate`` -> ``map``
per page.  Every test here builds the same world twice, runs a generated
script of reads and write batches through the reference on one and
through ``AddressSpace.read`` / ``PageCursor`` / ``write_batch`` on the
other, and requires everything observable to be equal: each op's bytes or
failure, the page table with its flags, every frame's bytes, pfns and the
free list, fault / CoW-break / pager / QP counters, the ledger by category
and its pending charge — also as every spy fault and every recorded verb
saw it — and, with a hub installed, the hub's whole state.

Tier-1 runs each property on a small budget; CI runs this file again with
``--hypothesis-profile=differential-ci`` (see ``conftest.py``).
"""

import inspect
from contextlib import nullcontext

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.kernel.kernel import PT_EAGER, PT_ONDEMAND
from repro.kernel.machine import make_cluster
from repro.kernel.remote_pager import (FETCH_RDMA, FETCH_RPC, REGION_PAGES,
                                       RemoteVMA)
from repro.mem import (PAGE_SIZE, AddressRange, AddressSpace, AnonymousVMA,
                       PhysicalMemory)
from repro.mem.address_space import PageCursor
from repro.mem.vma import VMA, FileVMA
from repro.net.rdma import QueuePair, ReadRequest
from repro.obs.telemetry import Telemetry, capture
from repro.sim import Engine

from ..parent_reference import (read_per_page, space_state,
                                unmap_vma_per_page, write_per_page)
from .test_run_at_a_time import SpyVMA, budget

BASE = 0x2000_0000
LOCAL_PAGES = 96


def outcome(fn):
    """What an op did: its result, or the typed failure it ended in."""
    try:
        return "returned", fn()
    except (ReproError, RuntimeError) as err:
        return "raised", type(err).__name__, str(err)


def run_script(space, script, reference: bool):
    """Each op's outcome.  A ``reads`` op is several reads under one
    cursor; a ``writes`` op is one batch."""
    outcomes = []
    for kind, items in script:
        if kind == "writes" and reference:
            outcomes.append(outcome(
                lambda: [write_per_page(space, a, d) for a, d in items]
                and None))
        elif kind == "writes":
            outcomes.append(outcome(lambda: space.write_batch(iter(items))))
        elif reference:
            outcomes.append(outcome(
                lambda: [read_per_page(space, a, n) for a, n in items]))
        else:
            def cursor_reads():
                with PageCursor(space) as cursor:
                    return [cursor.read(a, n) for a, n in items]
            outcomes.append(outcome(cursor_reads))
    return outcomes


def physical_state(physical):
    return (sorted(physical.live_pfns()), list(physical._free_pfns),
            physical._next_pfn, physical.peak_frames,
            {pfn: physical.frame(pfn).refcount
             for pfn in physical.live_pfns()})


def ops(pages: int, address_of):
    """One script op over ``(vaddr, length)`` spans of 1-70 pages that
    start and end mid-page (or exactly on a boundary); *address_of* places
    page 0 .. *pages* - 1."""
    span = st.builds(
        lambda page, off, npages, tail: (
            address_of(page) + off,
            max(0, (npages - 1) * PAGE_SIZE - off + tail)),
        st.integers(0, pages - 1),
        st.sampled_from([0, 1, 8, 2048, PAGE_SIZE - 8, PAGE_SIZE - 1]),
        st.one_of(st.integers(1, 6), st.integers(1, 70)),
        st.sampled_from([0, 1, 8, 100, PAGE_SIZE - 1, PAGE_SIZE]))
    reads = st.tuples(st.just("reads"), st.lists(span, min_size=1,
                                                 max_size=4))
    writes = st.tuples(st.just("writes"), st.lists(
        st.builds(lambda s, fill: (s[0], bytes([fill]) * s[1]), span,
                  st.integers(1, 255)), min_size=1, max_size=3))
    return st.one_of(reads, writes)


# --- local address spaces ----------------------------------------------------------

local_worlds = st.fixed_dictionaries({
    # two adjacent VMAs, then unmapped addresses: spans cross from one
    # into the other and run off the second one's end
    "split": st.integers(4, LOCAL_PAGES - 4),
    "second_writable": st.booleans(),
    "spy": st.sampled_from([None, None, 0, 1]),
    "fail_at": st.one_of(st.none(), st.integers(1, 30)),
    "resident": st.sets(st.integers(0, LOCAL_PAGES - 1), max_size=40),
    "cow": st.sets(st.integers(0, LOCAL_PAGES - 1), max_size=20),
    "pinned": st.sets(st.integers(0, LOCAL_PAGES - 1), max_size=10),
    # frames the script may still allocate: 0, 1, k short of a run, or ample
    "spare": st.one_of(st.none(), st.integers(0, 3), st.integers(0, 90)),
})


def build_local(world):
    physical = PhysicalMemory()
    space = AddressSpace(physical, name="local")
    middle = BASE + world["split"] * PAGE_SIZE
    ranges = (AddressRange(BASE, middle),
              AddressRange(middle, BASE + LOCAL_PAGES * PAGE_SIZE))
    vmas = []
    for index, rng in enumerate(ranges):
        if world["spy"] == index:
            content = bytes(range(256)) * (rng.size // 256)
            vma = SpyVMA(rng, content)
        else:
            vma = AnonymousVMA(rng, name=f"vma{index}")
        vmas.append(space.map_vma(vma))
    vmas[1].writable = world["second_writable"]
    for page in sorted(world["resident"]):
        vaddr = BASE + page * PAGE_SIZE
        if space.find_vma(vaddr).writable:
            space.write(vaddr + 16, bytes([page + 1]) * 32)
        else:
            space.read(vaddr, 1)
    for page in sorted(world["cow"] & world["resident"]):
        vaddr = BASE + page * PAGE_SIZE
        space.mark_range_cow(AddressRange(vaddr, vaddr + PAGE_SIZE))
        if page in world["pinned"]:  # a registration's shadow reference
            physical.get(space.page_table.lookup(vaddr // PAGE_SIZE).pfn)
    if world["spare"] is not None:
        physical.capacity_frames = physical.used_frames + world["spare"]
    for vma in vmas:
        if isinstance(vma, SpyVMA):  # count from the script's first fault
            vma.pending.clear()
            vma.fail_at = world["fail_at"]
    return space, vmas


def local_scripts(pages: int):
    return st.lists(ops(pages, lambda page: BASE + page * PAGE_SIZE),
                    min_size=1, max_size=6)


@budget(60)
@given(world=local_worlds, script=local_scripts(LOCAL_PAGES + 2))
def test_reads_and_write_batches_equal_the_per_page_path(world, script):
    seen = []
    for reference in (True, False):
        space, vmas = build_local(world)
        outcomes = run_script(space, script, reference)
        seen.append((outcomes, space_state(space),
                     physical_state(space.physical),
                     [getattr(vma, "pending", None) for vma in vmas]))
    assert seen[1] == seen[0]


@budget(30)
@given(world=local_worlds, script=local_scripts(LOCAL_PAGES),
       free_frames=st.booleans())
def test_unmap_frees_in_ascending_vpn_order(world, script, free_frames):
    """The free list after ``unmap_vma`` decides which pfn the next fault
    gets; it must be the one a page-by-page unmap leaves."""
    seen = []
    for reference in (True, False):
        space, vmas = build_local(dict(world, spare=None, fail_at=None))
        run_script(space, script, reference=False)
        for vma in vmas:
            if reference:
                unmap_vma_per_page(space, vma, free_frames)
            else:
                space.unmap_vma(vma, free_frames)
        seen.append((space_state(space), physical_state(space.physical)))
    assert seen[1] == seen[0]
    assert seen[1][0]["pfn"] == {}


@pytest.mark.parametrize("make", [
    SpyVMA, lambda rng: FileVMA(rng, bytes(range(256)) * 16 * 12)])
def test_a_vma_overriding_only_handle_fault_sees_every_page(make, monkeypatch):
    rng = AddressRange(BASE, BASE + 12 * PAGE_SIZE)
    space = AddressSpace(PhysicalMemory(), name="local")
    vma = space.map_vma(make(rng))
    calls = []
    own = type(vma).handle_fault
    monkeypatch.setattr(type(vma), "handle_fault",
                        lambda self, space, vpn, write:
                        calls.append(vpn) or own(self, space, vpn, write))
    space.read(BASE + 5, 9 * PAGE_SIZE)
    first = BASE // PAGE_SIZE
    assert calls == list(range(first, first + 10))
    assert space.fault_count == 10


class AuditedRemoteVMA(RemoteVMA):
    """Overrides only the per-page handler of a class that has a run
    handler: the fast path must not bypass it."""

    seen = ()

    def handle_fault(self, space, vpn, write):
        self.seen += (vpn,)
        return super().handle_fault(space, vpn, write)


def test_a_remote_vma_subclass_still_sees_every_fault():
    assert AuditedRemoteVMA.handle_fault_run is VMA.handle_fault_run
    world = {"same_machine": False, "fetch_mode": FETCH_RDMA,
             "page_table_mode": PT_EAGER, "rpc_fallback": False,
             "absent": {3}, "gone": set(), "qp": "ok", "spare": None}
    seen = []
    for audited in (False, True):
        producer, consumer, vma = build_remote(world)
        if audited:
            vma.__class__ = AuditedRemoteVMA
        start = BASE + window(0) * PAGE_SIZE
        data = consumer.read(start + 7, 6 * PAGE_SIZE)
        seen.append((data, remote_state(producer, consumer, vma)))
    assert seen[1] == seen[0]
    first = start // PAGE_SIZE
    assert vma.seen == tuple(range(first, first + 7))


@pytest.mark.parametrize("owner, name, parameters", [
    (RemoteVMA, "handle_fault", ["self", "space", "vpn", "write"]),
    (RemoteVMA, "prefetch", ["self", "space", "vaddrs", "doorbell"]),
    (QueuePair, "read", ["self", "req", "ledger", "category"]),
    (QueuePair, "read_batch", ["self", "requests", "ledger", "category"]),
    (PhysicalMemory, "allocate", ["self"]),
    (PhysicalMemory, "frame", ["self", "pfn"]),
    (PhysicalMemory, "put", ["self", "pfn"]),
    (ReadRequest, "__init__", ["self", "pfn", "offset", "length"]),
])
def test_per_page_entry_points_keep_their_signatures(owner, name,
                                                     parameters):
    """perfbench wraps or probes these by name, on the class itself."""
    assert inspect.isfunction(vars(owner)[name])
    assert list(inspect.signature(vars(owner)[name]).parameters) == \
        parameters


# --- through an rmap'd RemoteVMA ------------------------------------------------------

REMOTE_PAGES = 2 * REGION_PAGES + 40  # three PTE regions, the last partial
LOCAL_BASE = 0x6000_0000

remote_worlds = st.fixed_dictionaries({
    "same_machine": st.booleans(),
    "fetch_mode": st.sampled_from([FETCH_RDMA, FETCH_RDMA, FETCH_RPC]),
    "page_table_mode": st.sampled_from([PT_EAGER, PT_ONDEMAND]),
    "rpc_fallback": st.booleans(),
    # producer pages never written are absent from the snapshot: the
    # consumer zero-fills them
    "absent": st.sets(st.integers(0, 79), max_size=12),
    # producer frames deregistered and reclaimed, or wiped, after rmap
    "gone": st.sets(st.integers(0, 79), max_size=3),
    "qp": st.sampled_from(["ok", "ok", "ok", "broken", "stale"]),
    "spare": st.one_of(st.none(), st.none(), st.integers(0, 60)),
})


def window(page: int) -> int:
    """Scripts touch 80 pages: 40 around each PTE-region boundary."""
    return page + (REGION_PAGES - 20 if page < 40 else
                   2 * REGION_PAGES - 60)


def build_remote(world):
    engine = Engine()
    _fabric, (m0, m1) = make_cluster(engine, 2)
    producer = AddressSpace(m0.physical, name="producer")
    rng = AddressRange(BASE, BASE + REMOTE_PAGES * PAGE_SIZE)
    producer.map_vma(AnonymousVMA(rng, name="producer-heap"))
    for page in range(80):
        if page not in world["absent"]:
            vaddr = BASE + window(page) * PAGE_SIZE
            producer.write(vaddr, bytes([page + 1]) * PAGE_SIZE)
    m0.kernel.register_mem(producer, "state", 7, rng.start, rng.end)
    machine = m0 if world["same_machine"] else m1
    consumer = AddressSpace(machine.physical, name="consumer")
    consumer.map_vma(AnonymousVMA(
        AddressRange(LOCAL_BASE, LOCAL_BASE + 16 * PAGE_SIZE)))
    handle = machine.kernel.rmap(
        consumer, "mac0", "state", 7, fetch_mode=world["fetch_mode"],
        page_table_mode=world["page_table_mode"],
        rpc_fallback=world["rpc_fallback"])
    for page in sorted(world["gone"] - world["absent"]):
        pfn = producer.page_table.lookup(BASE // PAGE_SIZE
                                         + window(page)).pfn
        del m0.physical._frames[pfn]
    qp = handle.vma.qp
    if qp is not None and world["qp"] == "broken":
        qp.break_qp()
    elif qp is not None and world["qp"] == "stale":
        m0.incarnation += 1
    if world["spare"] is not None:
        machine.physical.capacity_frames = \
            machine.physical.used_frames + world["spare"]
    return producer, consumer, handle.vma


def remote_scripts():
    """Spans starting inside the two windows (they may run past them into
    absent pages), with the odd write to the consumer's own heap."""
    own = st.just(("writes", [(LOCAL_BASE + 100, b"own" * 3000)]))
    remote = ops(80, lambda page: BASE + window(page) * PAGE_SIZE)
    return st.lists(st.one_of(remote, remote, own), min_size=1, max_size=5)


def remote_state(producer, consumer, vma):
    qp, source = vma.qp, vma.pte_source
    return (space_state(consumer), physical_state(consumer.physical),
            physical_state(producer.physical),
            (vma.remote_faults, vma.pages_fetched, vma.zero_fill_faults,
             vma.fallback_faults, sorted(vma.snapshot.items())),
            qp and (qp.reads_posted, qp.bytes_read, qp.failed_verbs,
                    qp.broken, qp.doorbells_rung),
            source and (source.fetches, source.regions_fetched))


def hub_state(hub):
    """Everything a hub holds.  Deferred op frames carry the ledger's
    pending charge as each verb saw it."""
    return {
        "records": hub.records,
        "counters": hub.counters, "gauges": hub.gauges,
        "histograms": {k: h.to_dict() for k, h in hub.histograms.items()},
        "series": {k: (s.samples, s.stride) for k, s in hub.series.items()},
        "ops": [(state["top"], state["stack"])
                for state in hub._ops.values()],
        "events": hub.events, "spans": hub.spans,
        "lineage": hub.lineage.report(),
        "bindings": [{slot: getattr(binding, slot)
                      for slot in binding.__slots__}
                     for fid in hub.lineage._fids.values()
                     for binding in fid.bindings.values()],
        "timelines": hub.timelines.snapshot(),
    }


def hubs(observed: bool):
    """A hub with lineage and timelines on, and the context that installs
    it (or, unobserved, leaves no hub installed)."""
    hub = Telemetry()
    hub.enable_lineage()
    hub.enable_timelines()
    return hub, capture(hub) if observed else nullcontext()


@budget(60)
@given(world=remote_worlds, script=remote_scripts(), observed=st.booleans())
def test_remote_faults_equal_the_per_page_pager(world, script, observed):
    seen = []
    for reference in (True, False):
        hub, installed = hubs(observed)
        with installed:
            producer, consumer, vma = build_remote(world)
            outcomes = run_script(consumer, script, reference)
            if reference:
                unmap_vma_per_page(consumer, vma)
            else:
                consumer.unmap_vma(vma)
        seen.append((outcomes, remote_state(producer, consumer, vma),
                     hub_state(hub)))
    assert seen[1] == seen[0]


@budget(25)
@given(world=remote_worlds, script=remote_scripts())
def test_simulated_results_are_identical_hub_on_and_off(world, script):
    """Observer purity under runs: what the simulation computes does not
    depend on whether anything is watching."""
    seen = []
    for observed in (True, False):
        _hub, installed = hubs(observed)
        with installed:
            producer, consumer, vma = build_remote(world)
            outcomes = run_script(consumer, script, reference=False)
        seen.append((outcomes, remote_state(producer, consumer, vma)))
    assert seen[1] == seen[0]
