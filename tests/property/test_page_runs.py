"""Differential tests: the stretch fault path against the per-page code
it replaced.

``tests/parent_reference.py`` keeps the old chain — one ``translate`` ->
``find_vma`` -> ``handle_fault`` -> ``qp.read`` -> ``allocate`` -> ``map``
per page, every fetched page copied.  Every test here builds the same
world twice, runs a generated script of reads and write batches through
the reference on one and through ``AddressSpace.read`` / ``PageCursor`` /
``write_batch`` — ``resolve_run`` handing each stretch of missing pages to
``VMA.fault_run`` — on the other, and requires everything observable to
be equal: each op's bytes or failure, the page table with its flags,
every frame's bytes, pfns and the free list, fault / CoW-break / pager /
QP counters, the ledger by category and its pending charge — also as
every spy fault and every recorded verb saw it — and, with a hub and
lineage installed, the hub's state.  Every world runs both with
and without a hub, and both serve stretches in one step.

Tier-1 runs each property on a small budget; CI runs this file again with
``--hypothesis-profile=differential-ci`` (see ``conftest.py``).
"""

import inspect
from contextlib import nullcontext

import pytest
from hypothesis import example, given, strategies as st

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


def local_run(world, script, reference: bool, observed: bool):
    hub, installed = hubs(observed)
    with installed:
        space, vmas = build_local(world)
        outcomes = run_script(space, script, reference)
    return (outcomes, space_state(space), physical_state(space.physical),
            [getattr(vma, "pending", None) for vma in vmas], hub_state(hub))


@budget(60)
@given(world=local_worlds, script=local_scripts(LOCAL_PAGES + 2),
       observed=st.booleans())
def test_reads_and_write_batches_equal_the_per_page_path(world, script,
                                                         observed):
    assert local_run(world, script, False, observed) == \
        local_run(world, script, True, observed)


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
    assert AuditedRemoteVMA.fault_run is VMA.fault_run
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
    """What a hub holds.  Deferred op frames carry the ledger's pending
    charge as each verb saw it.  Counters and gauges record once per call,
    and a stretch is one call where the per-page path made one per page:
    of each series only the final value and the peak must agree, and the
    number of recording calls not at all."""
    return {
        "counters": hub.counters, "gauges": hub.gauges,
        "histograms": {k: (h.count, h.sum, h.min, h.max, h.buckets)
                       for k, h in hub.histograms.items()},
        "series": {k: (s.last, s.peak) for k, s in hub.series.items()},
        "ops": [(state["top"], state["stack"])
                for state in hub._ops.values()],
        "events": hub.events, "spans": hub.spans,
        "lineage": hub.lineage.report(),
        "bindings": [{slot: getattr(binding, slot)
                      for slot in binding.__slots__}
                     for fid in hub.lineage._fids.values()
                     for binding in fid.bindings.values()],
    }


def hubs(observed: bool):
    """A hub with lineage on, and the context that installs it (or,
    unobserved, leaves no hub installed)."""
    hub = Telemetry()
    hub.enable_lineage()
    return hub, capture(hub) if observed else nullcontext()


def remote_run(world, script, reference: bool, observed: bool):
    hub, installed = hubs(observed)
    with installed:
        producer, consumer, vma = build_remote(world)
        outcomes = run_script(consumer, script, reference)
        if reference:
            unmap_vma_per_page(consumer, vma)
        else:
            consumer.unmap_vma(vma)
    return outcomes, remote_state(producer, consumer, vma), hub_state(hub)


@budget(60)
@given(world=remote_worlds, script=remote_scripts(), observed=st.booleans())
def test_remote_faults_equal_the_per_page_pager(world, script, observed):
    assert remote_run(world, script, False, observed) == \
        remote_run(world, script, True, observed)


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


# --- named worlds: every way a stretch is served, or left to the page ------------------

LOCAL = {"split": 48, "second_writable": True, "spy": None, "fail_at": None,
         "resident": set(), "cow": set(), "pinned": set(), "spare": None}
REMOTE = {"same_machine": False, "fetch_mode": FETCH_RDMA,
          "page_table_mode": PT_EAGER, "rpc_fallback": False,
          "absent": set(), "gone": set(), "qp": "ok", "spare": None}


def local_span(first: int, pages: int, off: int = 100):
    return BASE + first * PAGE_SIZE + off, pages * PAGE_SIZE - 2 * off


def remote_span(first: int, pages: int, off: int = 100):
    return (BASE + window(first) * PAGE_SIZE + off,
            pages * PAGE_SIZE - 2 * off)


def fill(span, byte: int = 0x5A):
    return span[0], bytes([byte]) * span[1]


#: (name, world, script, whether a fault_run serves more than one page)
NAMED_WORLDS = [
    ("present and missing pages mixed", "local",
     dict(LOCAL, resident={3, 5, 6, 21}),
     [("reads", [local_span(0, 12)]), ("writes", [fill(local_span(18, 9))])],
     True),
    ("a write into a read-only vma", "local",
     dict(LOCAL, split=4, second_writable=False, resident={6}),
     [("reads", [local_span(8, 4)]), ("writes", [fill(local_span(1, 7))])],
     True),
    ("a write over read-only pages already present", "local",
     dict(LOCAL, split=4, second_writable=False),
     [("reads", [local_span(4, 6)]), ("writes", [fill(local_span(5, 3))])],
     True),
    ("out of frames mid-stretch", "local", dict(LOCAL, spare=3),
     [("writes", [fill(local_span(1, 8))])], True),
    ("a CoW-marked pinned page inside a write", "local",
     dict(LOCAL, resident={4, 5}, cow={4, 5}, pinned={5}),
     [("writes", [fill(local_span(2, 6))])], True),
    ("a lazy PTE region boundary inside a stretch", "remote",
     dict(REMOTE, page_table_mode=PT_ONDEMAND),
     [("reads", [remote_span(14, 12)]), ("reads", [remote_span(30, 10)])],
     True),
    ("same-machine stretches", "remote", dict(REMOTE, same_machine=True),
     [("reads", [remote_span(2, 9)]), ("writes", [fill(remote_span(4, 3))])],
     True),
    ("zero-fill pages inside a stretch", "remote",
     dict(REMOTE, absent={5, 6, 11}),
     [("reads", [remote_span(2, 14)])], True),
    ("a producer frame gone inside a stretch", "remote",
     dict(REMOTE, gone={7}), [("reads", [remote_span(3, 9)])], True),
    ("a broken QP without fallback", "remote", dict(REMOTE, qp="broken"),
     [("reads", [remote_span(2, 6)])], False),
    ("a broken QP with fallback", "remote",
     dict(REMOTE, qp="broken", rpc_fallback=True),
     [("reads", [remote_span(2, 6)])], False),
    ("a stale QP without fallback", "remote", dict(REMOTE, qp="stale"),
     [("reads", [remote_span(2, 6)])], False),
    ("a stale QP with fallback", "remote",
     dict(REMOTE, qp="stale", rpc_fallback=True),
     [("reads", [remote_span(2, 6)])], False),
    ("the RPC fetch path", "remote", dict(REMOTE, fetch_mode=FETCH_RPC),
     [("reads", [remote_span(2, 6)])], False),
    ("a consumer out of frames mid-stretch", "remote", dict(REMOTE, spare=4),
     [("reads", [remote_span(2, 9)])], True),
    ("a write into rmapped pages", "remote", REMOTE,
     [("writes", [fill(remote_span(2, 6))]), ("reads", [remote_span(1, 8)])],
     False),
]


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "hub"])
@pytest.mark.parametrize("name, kind, world, script, stretches", NAMED_WORLDS,
                         ids=[w[0] for w in NAMED_WORLDS])
def test_each_named_world_equals_the_per_page_path(name, kind, world, script,
                                                   stretches, observed,
                                                   monkeypatch):
    served = []
    for cls in (AnonymousVMA, RemoteVMA):
        def spy(self, space, vpn, count, write, _own=cls.fault_run):
            run = _own(self, space, vpn, count, write)
            served.append(len(run))
            return run
        monkeypatch.setattr(cls, "fault_run", spy)
    run = local_run if kind == "local" else remote_run
    assert run(world, script, False, observed) == \
        run(world, script, True, observed)
    # the shipped side ran second: what its stretches were served in
    assert (max(served, default=0) > 1) == stretches


# --- pages moved by reference ---------------------------------------------------------

def two_machines():
    """A producer with 12 registered pages, an rmapped consumer, and a
    third space on the producer's machine that may reuse freed pfns."""
    engine = Engine()
    _fabric, (m0, m1) = make_cluster(engine, 2)
    producer = AddressSpace(m0.physical, name="producer")
    rng = AddressRange(BASE, BASE + 12 * PAGE_SIZE)
    producer.map_vma(AnonymousVMA(rng, name="producer-heap"))
    for page in range(12):
        producer.write(BASE + page * PAGE_SIZE, bytes([page + 1]) * PAGE_SIZE)
    m0.kernel.register_mem(producer, "state", 7, rng.start, rng.end)
    consumer = AddressSpace(m1.physical, name="consumer")
    m1.kernel.rmap(consumer, "mac0", "state", 7)
    other = AddressSpace(m0.physical, name="other")
    other.map_vma(AnonymousVMA(AddressRange(LOCAL_BASE,
                                            LOCAL_BASE + 12 * PAGE_SIZE)))
    return m0, producer, consumer, other


sharing_ops = st.one_of(
    st.tuples(st.just("produce"), st.integers(0, 11), st.integers(1, 255)),
    st.tuples(st.just("consume"), st.integers(0, 11), st.integers(1, 11)),
    st.tuples(st.just("consumer_write"), st.integers(0, 11),
              st.integers(1, 255)),
    st.tuples(st.just("deregister")),
    st.tuples(st.just("reuse"), st.integers(0, 11), st.integers(1, 255)),
    st.tuples(st.just("wipe")))


def visible(space):
    """Every mapped page's bytes as the space sees them (``None`` where
    its frame is gone)."""
    frames = space.physical._frames
    return {vpn: frames[pfn].data[:] if pfn in frames else None
            for vpn, pfn in space.page_table.snapshot(0, 1 << 52).items()}


def run_sharing(script, reference: bool):
    m0, producer, consumer, other = two_machines()
    read = read_per_page if reference else AddressSpace.read
    write = write_per_page if reference else AddressSpace.write
    outcomes = []
    for op, *args in script:
        if op == "produce":
            page, byte = args
            call = (lambda: write(producer, BASE + page * PAGE_SIZE + 64,
                                  bytes([byte]) * 512))
        elif op == "consume":
            page, pages = args
            call = (lambda: read(consumer, BASE + page * PAGE_SIZE + 8,
                                 min(pages, 12 - page) * PAGE_SIZE - 16))
        elif op == "consumer_write":
            page, byte = args
            call = (lambda: write(consumer, BASE + page * PAGE_SIZE + 32,
                                  bytes([byte]) * 64))
        elif op == "deregister":
            call = (lambda: m0.kernel.deregister_mem("state", 7))
        elif op == "reuse":  # a new page, then an in-place write to it
            page, byte = args
            call = (lambda: [write(other, LOCAL_BASE + page * PAGE_SIZE,
                                   bytes([byte]) * PAGE_SIZE),
                             write(other, LOCAL_BASE + page * PAGE_SIZE,
                                   bytes([byte ^ 0xFF]) * 8)])
        else:
            call = m0.physical.wipe
        outcomes.append(outcome(call))
        outcomes.append(outcome(lambda: (visible(consumer),
                                         visible(producer), visible(other))))
    return outcomes


@budget(40)
@given(script=st.lists(sharing_ops, min_size=1, max_size=10))
@example(script=[("deregister",), ("produce", 4, 9), ("reuse", 0, 3),
                 ("consume", 4, 1), ("reuse", 0, 5), ("consume", 3, 3)])
@example(script=[("consume", 0, 12), ("produce", 2, 7),
                 ("consumer_write", 2, 8), ("wipe",), ("consume", 0, 12)])
def test_frames_filled_by_reference_read_what_copies_would(script):
    """A READ hands the consumer's frame the producer frame's buffer: each
    side must still see exactly what the copying path shows it, across
    producer writes after ``register_mem``, consumer writes into rmapped
    pages, deregistration, a freed pfn reused and written in place, and a
    machine wipe."""
    assert run_sharing(script, False) == run_sharing(script, True)


def test_a_page_read_by_reference_shares_the_producer_buffer():
    m0, producer, consumer, _other = two_machines()
    consumer.read(BASE + 8, 3 * PAGE_SIZE)
    for page in range(3):
        vpn = BASE // PAGE_SIZE + page
        mine = consumer.physical.frame(consumer.page_table.lookup(vpn).pfn)
        theirs = m0.physical.frame(producer.page_table.lookup(vpn).pfn)
        assert mine.data is theirs.data
