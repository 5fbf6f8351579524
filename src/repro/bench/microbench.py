"""Microbenchmark harness: one producer, one consumer, one state transfer.

This is the Fig 11 measurement loop.  Stage attribution follows the paper:

* **T** (transform) — producer-side work to make the state sendable:
  serialization, or CoW marking (+ traversal when prefetching);
* **N** (network) — moving bytes: the messaging/storage path, or the rmap
  auth RPC plus RDMA page reads (demand faults included, since the
  microbenchmark reads the whole state at the consumer);
* **R** (reconstruct) — deserialization, or (for RMMAP) the near-zero
  mapping setup;
* plain memory-walk cost of *reading* the received value is identical for
  every approach and reported separately as ``access``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.kernel.machine import make_cluster
from repro.mem import AddressRange, AddressSpace, AnonymousVMA
from repro.runtime.heap import ManagedHeap
from repro.sim import Engine
from repro.transfer import (Endpoint, StateTransport, TransferBreakdown,
                            get_transport)
from repro.units import MB, CostModel, DEFAULT_COST_MODEL

PRODUCER_BASE = 0x1000_0000
CONSUMER_BASE = 0x9000_0000


def make_pair(heap_bytes: int = 256 * MB,
              cost: CostModel = DEFAULT_COST_MODEL,
              resident_lib_bytes: int = 128 * MB
              ) -> Tuple[Engine, Endpoint, Endpoint]:
    """Two machines, one producer endpoint, one consumer endpoint.

    ``resident_lib_bytes`` models the interpreter + imported libraries
    resident in the producer container: whole-address-space registration
    must CoW-mark those pages and ship their PTEs, which is RMMAP's main
    fixed cost (Section 6).  Pass a small value for slim containers.
    """
    engine = Engine()
    _fabric, (m0, m1) = make_cluster(engine, 2, cost=cost)
    endpoints = []
    for machine, base, name in ((m0, PRODUCER_BASE, "producer"),
                                (m1, CONSUMER_BASE, "consumer")):
        space = AddressSpace(machine.physical, name=name, cost=cost)
        space.extra_resident_pages = resident_lib_bytes // (4 << 10)
        rng = AddressRange(base, base + heap_bytes)
        space.map_vma(AnonymousVMA(rng, name=f"{name}-heap"))
        heap = ManagedHeap(space, rng=rng, name=name)
        endpoints.append(Endpoint(machine, heap))
    return engine, endpoints[0], endpoints[1]


@dataclass
class MicrobenchResult:
    """One measured transfer."""

    transport: str
    breakdown: TransferBreakdown
    wire_bytes: int
    object_count: int
    value: Any

    @property
    def e2e_ns(self) -> int:
        return self.breakdown.e2e_ns


def measure_transfer(transport: StateTransport, producer: Endpoint,
                     consumer: Endpoint, value: Any,
                     consume: bool = True) -> MicrobenchResult:
    """Run one producer->consumer transfer and attribute stage costs.

    ``consume=True`` additionally loads the full state at the consumer, so
    demand-paged RMMAP pays its page reads inside the measurement (matching
    the paper's microbenchmark, which touches the whole object).
    """
    root = producer.heap.box(value)
    pmeter, cmeter = producer.meter(), consumer.meter()

    token = transport.send(producer, root)
    breakdown = pmeter.delta()          # T: producer-side transform

    handle = transport.receive(consumer, token)
    breakdown.add(cmeter.delta())       # N (+R for deserializing paths)

    loaded = None
    if consume:
        loaded = handle.load()
        breakdown.add(cmeter.delta())   # demand faults -> N; local walk ->
        #                                 "access" (excluded from T/N/R)
    return MicrobenchResult(transport=transport.name, breakdown=breakdown,
                            wire_bytes=token.wire_bytes,
                            object_count=token.object_count, value=loaded)


#: The five approaches compared throughout Section 5, by registry name.
STANDARD_TRANSPORTS = ("messaging", "storage", "storage-rdma", "rmmap",
                       "rmmap-prefetch")


def measure_each(transports: Sequence[str], value: Any,
                 **pair_opts) -> Dict[str, MicrobenchResult]:
    """Measure *value* over each named transport, every one on a fresh
    endpoint pair built with *pair_opts* (see :func:`make_pair`)."""
    out: Dict[str, MicrobenchResult] = {}
    for name in transports:
        _engine, producer, consumer = make_pair(**pair_opts)
        out[name] = measure_transfer(get_transport(name), producer,
                                     consumer, value)
    return out
