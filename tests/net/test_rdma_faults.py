"""RDMA failure semantics: typed errors with the detection time charged.

A one-sided READ against memory that no longer exists (deregistered,
reclaimed, or wiped by a crash) must surface as
:class:`~repro.errors.RemoteAccessError` — not an assert — and the verb
must charge the simulated time it burned before the error completion
arrived (the NAK round-trip), exactly like a broken QP does.
"""

import pytest

from repro.errors import (Disconnected, QpBroken, RemoteAccessError,
                          ReproError)
from repro.kernel.machine import make_cluster
from repro.net.rdma import ReadRequest
from repro.sim import Engine
from repro.sim.ledger import Ledger


@pytest.fixture()
def pair():
    engine = Engine()
    fabric, (m0, m1) = make_cluster(engine, 2)
    ledger = Ledger()
    qp = m0.nic.connect("mac1", ledger)
    ledger.drain()  # drop connect charges; tests meter only the verbs
    return fabric, m0, m1, qp, ledger


def test_read_of_reclaimed_frame_raises_typed_error(pair):
    _fabric, _m0, m1, qp, ledger = pair
    frame = m1.physical.allocate()
    pfn = frame.pfn
    m1.physical.put(pfn)  # remote memory reclaimed from under the reader
    with pytest.raises(RemoteAccessError) as err:
        qp.read(ReadRequest(pfn), ledger)
    assert isinstance(err.value, ReproError)
    # the failed verb burned its detection round-trip in simulated time
    assert ledger.total("rdma-fault") > 0
    assert qp.failed_verbs == 1


def test_batched_read_fails_on_first_bad_page(pair):
    _fabric, _m0, m1, qp, ledger = pair
    good = m1.physical.allocate()
    bad = m1.physical.allocate()
    m1.physical.put(bad.pfn)
    with pytest.raises(RemoteAccessError):
        qp.read_batch([ReadRequest(good.pfn), ReadRequest(bad.pfn)],
                      ledger)
    assert ledger.total("rdma-fault") > 0


def test_broken_qp_raises_and_charges(pair):
    _fabric, _m0, m1, qp, ledger = pair
    frame = m1.physical.allocate()
    qp.break_qp()
    with pytest.raises(QpBroken):
        qp.read(ReadRequest(frame.pfn), ledger)
    assert ledger.total("rdma-fault") > 0


def test_partition_is_transient_qp_survives_heal(pair):
    fabric, _m0, m1, qp, ledger = pair
    frame = m1.physical.allocate()
    fabric.partition("mac1")
    with pytest.raises(Disconnected):
        qp.read(ReadRequest(frame.pfn), ledger)
    assert ledger.total("rdma-fault") > 0
    fabric.heal("mac1")
    # the QP was not poisoned by the transient partition
    assert qp.read(ReadRequest(frame.pfn), ledger) == bytes(4096)


def test_remote_restart_stales_the_qp(pair):
    _fabric, _m0, m1, qp, ledger = pair
    frame = m1.physical.allocate()
    m1.crash()
    m1.restart()
    with pytest.raises(QpBroken):
        qp.read(ReadRequest(frame.pfn), ledger)
    assert qp.broken  # permanently: the remote QP context died


def test_successful_read_charges_no_fault_time(pair):
    _fabric, _m0, m1, qp, ledger = pair
    frame = m1.physical.allocate()
    qp.read(ReadRequest(frame.pfn), ledger)
    assert ledger.total("rdma-fault") == 0
    assert ledger.total("rdma-read") > 0
