"""Unit tests for the fabric, RDMA verbs and RPC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import Disconnected, NetworkError
from repro.kernel.machine import Machine, make_cluster
from repro.net.rdma import ReadRequest
from repro.net.rpc import RpcError, estimate_payload_bytes
from repro.sim import Engine
from repro.sim.ledger import Ledger
from repro.units import DEFAULT_COST_MODEL, PAGE_SIZE, us

from ..parent_reference import estimate_payload_bytes_recursive


@pytest.fixture()
def cluster():
    engine = Engine()
    fabric, machines = make_cluster(engine, 2)
    return engine, fabric, machines


def test_fabric_attach_and_resolve(cluster):
    _, fabric, (m0, m1) = cluster
    assert fabric.machine("mac0") is m0
    assert fabric.machine("mac1") is m1
    assert len(fabric) == 2


def test_fabric_unknown_machine(cluster):
    _, fabric, _ = cluster
    with pytest.raises(Disconnected):
        fabric.machine("nope")


def test_fabric_duplicate_rejected(cluster):
    engine, fabric, _ = cluster
    with pytest.raises(Disconnected):
        Machine("mac0", engine, fabric)


def test_fabric_partition_and_heal(cluster):
    _, fabric, _ = cluster
    fabric.partition("mac1")
    with pytest.raises(Disconnected):
        fabric.machine("mac1")
    fabric.heal("mac1")
    assert fabric.machine("mac1").mac_addr == "mac1"


def test_rdma_read_moves_remote_bytes(cluster):
    _, _, (m0, m1) = cluster
    frame = m1.physical.allocate()
    frame.data[10:15] = b"hello"
    ledger = Ledger()
    qp = m0.nic.connect("mac1", ledger)
    data = qp.read(ReadRequest(frame.pfn, offset=10, length=5), ledger)
    assert data == b"hello"
    assert qp.reads_posted == 1
    assert qp.bytes_read == 5


def test_rdma_4k_read_cost_matches_calibration(cluster):
    """One 4 KB one-sided READ must cost exactly the paper's 3.7 us."""
    _, _, (m0, m1) = cluster
    frame = m1.physical.allocate()
    ledger = Ledger()
    qp = m0.nic.connect("mac1", ledger)
    ledger.drain()
    qp.read(ReadRequest(frame.pfn), ledger)
    assert ledger.pending == DEFAULT_COST_MODEL.rdma_page_read_ns


def test_kernel_connect_vs_user_connect_cost(cluster):
    _, _, (m0, _m1) = cluster
    fast, slow = Ledger(), Ledger()
    m0.nic.connect("mac1", fast, kernel_space=True)
    m0.nic._qps.clear()
    m0.nic.connect("mac1", slow, kernel_space=False)
    assert fast.pending == us(10)
    assert slow.pending == 1000 * fast.pending  # 10 ms vs 10 us


def test_qp_reuse_skips_connect_cost(cluster):
    _, _, (m0, _) = cluster
    ledger = Ledger()
    qp1 = m0.nic.connect("mac1", ledger)
    first = ledger.drain()
    qp2 = m0.nic.connect("mac1", ledger)
    assert qp1 is qp2
    assert ledger.pending == 0
    assert first > 0


def test_doorbell_batch_cheaper_than_serial_reads(cluster):
    _, _, (m0, m1) = cluster
    frames = [m1.physical.allocate() for _ in range(32)]
    ledger = Ledger()
    qp = m0.nic.connect("mac1", ledger)
    ledger.drain()
    reqs = [ReadRequest(f.pfn) for f in frames]
    batch_cost = qp.batch_cost_ns(reqs)
    serial_cost = 32 * qp.read_cost_ns(PAGE_SIZE)
    assert batch_cost < serial_cost / 3  # amortizes base latency + CPU


def test_batch_read_returns_all_pages(cluster):
    _, _, (m0, m1) = cluster
    frames = []
    for i in range(4):
        f = m1.physical.allocate()
        f.data[0] = i + 1
        frames.append(f)
    ledger = Ledger()
    qp = m0.nic.connect("mac1", ledger)
    pages = qp.read_batch([ReadRequest(f.pfn) for f in frames], ledger)
    assert [p[0] for p in pages] == [1, 2, 3, 4]


def test_empty_batch_is_free(cluster):
    _, _, (m0, _) = cluster
    ledger = Ledger()
    qp = m0.nic.connect("mac1", ledger)
    ledger.drain()
    assert qp.read_batch([], ledger) == []
    assert ledger.pending == 0


def test_disconnected_qp_rejects_verbs(cluster):
    _, _, (m0, m1) = cluster
    frame = m1.physical.allocate()
    ledger = Ledger()
    qp = m0.nic.connect("mac1", ledger)
    qp.disconnect()
    with pytest.raises(Disconnected):
        qp.read(ReadRequest(frame.pfn), ledger)


def test_loopback_qp_rejected(cluster):
    _, _, (m0, _) = cluster
    with pytest.raises(NetworkError):
        m0.nic.connect("mac0", Ledger())


def test_rpc_roundtrip(cluster):
    _, _, (m0, m1) = cluster
    m1.rpc.register_handler("echo", lambda p: {"got": p})
    ledger = Ledger()
    result = m0.rpc.call("mac1", "echo", "ping", ledger)
    assert result == {"got": "ping"}
    assert ledger.pending >= DEFAULT_COST_MODEL.rpc_roundtrip_ns
    assert m1.rpc.calls_served == 1


def test_rpc_unknown_method(cluster):
    _, _, (m0, _) = cluster
    with pytest.raises(RpcError):
        m0.rpc.call("mac1", "nope", None, Ledger())


def test_rpc_handler_failure_wrapped(cluster):
    _, _, (m0, m1) = cluster

    def bad(_payload):
        raise ValueError("inner")

    m1.rpc.register_handler("bad", bad)
    with pytest.raises(RpcError, match="inner"):
        m0.rpc.call("mac1", "bad", None, Ledger())


def test_rpc_duplicate_handler_rejected(cluster):
    _, _, (_, m1) = cluster
    m1.rpc.register_handler("x", lambda p: p)
    with pytest.raises(RpcError):
        m1.rpc.register_handler("x", lambda p: p)


def test_rpc_to_partitioned_machine_fails(cluster):
    _, fabric, (m0, m1) = cluster
    m1.rpc.register_handler("echo", lambda p: p)
    fabric.partition("mac1")
    with pytest.raises(Disconnected):
        m0.rpc.call("mac1", "echo", 1, Ledger())


def test_payload_size_estimate():
    assert estimate_payload_bytes(None) == 0
    assert estimate_payload_bytes(b"12345") == 5
    assert estimate_payload_bytes("abc") == 3
    assert estimate_payload_bytes(7) == 8
    assert estimate_payload_bytes({"k": b"1234"}) > 4
    assert estimate_payload_bytes([1, 2, 3]) >= 24


snapshots = st.dictionaries(st.integers(0, 1 << 40), st.integers(0, 1 << 40),
                            max_size=300)
leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                   st.binary(max_size=20), st.text(max_size=20))
payloads = st.recursive(
    leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.integers(), st.booleans(),
                                  st.text(max_size=5)), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=80, deadline=None)
@given(snapshot=snapshots, extra=payloads)
def test_payload_estimate_prices_a_snapshot_as_the_recursive_walk(snapshot,
                                                                  extra):
    """A ``{vpn: pfn}`` snapshot is priced ``16 + 16 n`` without walking
    it; that must be exactly what the entry-by-entry estimate gives, for
    the auth reply it rides in and for any other payload."""
    reply = {"vm_start": 0, "vm_end": 1 << 30, "snapshot": snapshot,
             "extra_pages": 3}
    for payload in (snapshot, reply, extra, {"nested": [snapshot, extra]}):
        assert estimate_payload_bytes(payload) == \
            estimate_payload_bytes_recursive(payload)
    assert estimate_payload_bytes(snapshot) == 16 + 16 * len(snapshot)
