"""The RMMAP transport: register_mem at the producer, rmap at the consumer.

Figure 6's flow.  The token routed through the coordinator carries only the
``VmMeta`` plus the state's root pointer (and, with prefetch, the page list
from the producer-side semantic traversal) — a constant-size message
regardless of state size.  The consumer's handle is a
:class:`~repro.runtime.proxy.RemoteRoot`: pages arrive on demand through the
remote pager, or in one doorbell-batched read when prefetching.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.kernel.remote_pager import FETCH_RDMA
from repro.obs.telemetry import current as _telemetry
from repro.runtime.proxy import RemoteRoot
from repro.runtime.traverse import ObjectTraverser
from repro.sim.ledger import Ledger
from repro.transfer.base import (Endpoint, StateHandle, StateTransport,
                                 TransferToken)


class RmmapHandle(StateHandle):
    """State handle backed by a remote mapping."""

    def __init__(self, proxy: RemoteRoot):
        super().__init__(proxy.heap, proxy.root_addr,
                         on_release=proxy.release)
        self.proxy = proxy


class RmmapTransport(StateTransport):
    """(De)serialization-free transfer via remote memory map."""

    def __init__(self, prefetch: bool = True,
                 prefetch_threshold: Optional[int] = None,
                 fetch_mode: str = FETCH_RDMA,
                 registration_mode: str = "whole",
                 page_table_mode: str = "eager",
                 rpc_fallback: bool = False):
        # ``prefetch_threshold`` bounds producer-side traversal (Section
        # 4.4): states with more objects fall back to demand paging.
        # ``page_table_mode="ondemand"`` enables lazy region-granular PTE
        # fetch (Section 6's future-work direction).
        # ``rpc_fallback`` degrades broken-QP page reads to the two-sided
        # RPC path instead of failing the fault (repro.chaos resilience).
        self.prefetch = prefetch
        self.prefetch_threshold = prefetch_threshold
        self.fetch_mode = fetch_mode
        self.registration_mode = registration_mode
        self.page_table_mode = page_table_mode
        self.rpc_fallback = rpc_fallback
        # Per-instance so identically-seeded runs mint identical fid
        # strings (a module-global counter leaks prior runs' progress
        # into the RPC payload-size estimate via the fid length).
        self._fid_counter = itertools.count()

    @property
    def name(self) -> str:
        return "rmmap-prefetch" if self.prefetch else "rmmap"

    def send(self, producer: Endpoint, root_addr: int) -> TransferToken:
        fid = f"rmmap-{next(self._fid_counter)}"
        key = (hash(fid) ^ 0x5EED) & 0xFFFFFFFF
        hub = _telemetry()
        lin = hub.lineage if hub is not None else None
        page_addrs = None
        object_count = 0
        if self.prefetch:
            result = ObjectTraverser(
                producer.heap,
                max_objects=self.prefetch_threshold).traverse(root_addr)
            if result is not None:
                page_addrs = result.page_addrs
                object_count = result.object_count
                if lin is not None:
                    lin.attach_objects(fid, result.objects)
        meta = producer.kernel.register_mem(
            producer.space, fid, key, mode=self.registration_mode)
        # only metadata travels: meta + root ptr (+ page list)
        wire_bytes = 64 + (8 * len(page_addrs) if page_addrs else 0)
        if lin is not None:
            lin.sent(fid, self.name, wire_bytes)
        return TransferToken(
            transport=self.name,
            payload=meta,
            root_addr=root_addr,
            wire_bytes=wire_bytes,
            object_count=object_count,
            extra={"page_addrs": page_addrs, "fid": fid, "key": key},
        )

    def receive(self, consumer: Endpoint,
                token: TransferToken) -> RmmapHandle:
        meta = token.payload
        # a resilience layer (circuit breaker) may force the degraded
        # two-sided path for this one transfer via token metadata
        fetch_mode = token.extra.get("fetch_mode", self.fetch_mode)
        handle = consumer.kernel.rmap(
            consumer.space, meta.mac_addr, meta.fid, meta.key,
            fetch_mode=fetch_mode,
            page_table_mode=self.page_table_mode,
            rpc_fallback=self.rpc_fallback)
        try:
            page_addrs = token.extra.get("page_addrs")
            if self.prefetch and page_addrs:
                handle.prefetch(page_addrs)
        except BaseException:
            # a half-received state must not occupy the planned range:
            # unmap so a retry (possibly via another transport) can rmap
            # the same addresses again
            handle.unmap()
            raise
        proxy = RemoteRoot(consumer.heap, handle, token.root_addr)
        return RmmapHandle(proxy)

    def forward(self, token: TransferToken,
                element_root: Optional[int] = None) -> TransferToken:
        """Multi-hop forwarding (the Section 4.4 future-work design).

        A middle function that merely passes a producer's state onward can
        hand the *original* registration metadata to the next consumer —
        no copy, no re-registration; the final consumer maps the original
        producer directly.  ``element_root`` optionally narrows the token
        to a sub-object of the forwarded state.
        """
        return TransferToken(
            transport=token.transport, payload=token.payload,
            root_addr=(element_root if element_root is not None
                       else token.root_addr),
            wire_bytes=token.wire_bytes, object_count=token.object_count,
            extra=dict(token.extra))

    def cleanup(self, producer: Endpoint, token: TransferToken,
                ledger: Optional[Ledger] = None) -> None:
        """Coordinator-triggered ``deregister_mem`` (Section 4.2)."""
        meta = token.payload
        producer.kernel.deregister_mem(meta.fid, meta.key)
