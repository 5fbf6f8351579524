"""Page-provenance lineage: byte-level observability for state transfer.

The rest of :mod:`repro.obs` sees *time* — spans, latencies, SLO burn.
This module sees *bytes*: a :class:`LineageTracker` follows every page of
transferred state through its lifecycle

    producer heap write -> kernel ``register_mem`` -> remote ``rmap``
    -> one-sided pull / prefetch / CoW divergence -> consumer access

and attributes the physical bytes moved back to Python objects (via the
managed heap's object graph) and to workflow DAG edges (via the
coordinator's ambient edge context).  From the collected graph it derives
the metrics nothing else in the stack can compute:

* **transfer amplification** — bytes moved over the fabric divided by the
  bytes the consumer actually touched;
* **prefetch waste** — pages pulled ahead of demand that were never
  accessed, plus PTE-metadata regions the coalescing on-demand page-table
  fetch speculatively pulled for nothing;
* **duplicate pulls** — the same ``(fid, page)`` fetched more than once
  (chaos retries, re-execution);
* **per-object / per-edge byte attribution** across all registered
  transports.  Serializing transports (messaging, storage, naos) report
  *logical* bytes at their charge sites, so amplification is comparable
  across the whole Fig 14 matrix: for them "touched" is the payload the
  consumer materializes, and "moved" is what actually crossed the wire
  (inflation, put+get double movement, compression).

Like every other :mod:`repro.obs` facility the tracker is a **pure
observer**: it is reached through the hub (``hub.enable_lineage()``), it
only mutates its own dictionaries, and no instrumentation site charges a
ledger or touches the event queue — a run with lineage enabled is
bit-identical to one without.  Instrumentation follows the hub pattern::

    hub = _telemetry()
    if hub is not None and hub.lineage is not None:
        hub.lineage.page_pulled(vma_name, space_name, vpn, "demand",
                                PAGE_SIZE)

Byte conservation: the physical bytes the tracker records mirror the
substrate's own accounting exactly — one ``PAGE_SIZE`` per RDMA page
READ, the inflated wire bytes messaging charges for, one put plus one
get for storage — so ``tests/property/test_byte_conservation.py`` can
assert lineage totals equal the independently recorded transport byte
counters for every transport.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.units import PAGE_SIZE

#: Version stamp of :meth:`LineageTracker.report`.
LINEAGE_SCHEMA = "lineage/v1"

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1

#: PTE metadata region granularity; mirrors
#: :data:`repro.kernel.remote_pager.REGION_PAGES` (not imported to keep
#: the observer layer free of kernel imports).
_REGION_PAGES = 512


def _fid_of(vma_name: str) -> str:
    """Registration fid from a remote VMA name (``"rmap:<fid>"``)."""
    if vma_name.startswith("rmap:"):
        return vma_name[5:]
    return vma_name


class _Binding:
    """One consumer-side mapping of a registered fid (one rmap'd VMA)."""

    __slots__ = ("fid", "space", "edge", "transport", "vm_start", "vm_end",
                 "pulls", "prefetched", "touched", "kinds", "bytes_moved",
                 "bytes_moved_rpc", "duplicate_pulls", "cow_breaks",
                 "pte_fetches", "pte_regions", "attempts", "first_ns",
                 "last_ns")

    def __init__(self, fid: str, space: str, vm_start: int, vm_end: int):
        self.fid = fid
        self.space = space
        self.edge: Optional[str] = None
        self.transport: Optional[str] = None
        self.vm_start = vm_start
        self.vm_end = vm_end
        #: vpn -> data-moving pull count (demand/prefetch/rpc)
        self.pulls: Dict[int, int] = {}
        #: vpns installed ahead of demand (prefetch-waste candidates)
        self.prefetched: set = set()
        #: vpn -> consumer-accessed bytes, capped at PAGE_SIZE
        self.touched: Dict[int, int] = {}
        self.kinds: Dict[str, int] = {}
        self.bytes_moved = 0
        self.bytes_moved_rpc = 0
        self.duplicate_pulls = 0
        self.cow_breaks = 0
        self.pte_fetches = 0
        self.pte_regions = 0
        self.attempts = 1
        self.first_ns: Optional[int] = None
        self.last_ns: Optional[int] = None

    def stamp(self, ts: int) -> None:
        if self.first_ns is None:
            self.first_ns = ts
        self.last_ns = ts


class _FidState:
    """Producer-side provenance of one ``register_mem`` registration."""

    __slots__ = ("fid", "owner", "registered_pages", "vm_start", "vm_end",
                 "registered_at", "metadata_bytes", "transport", "objects",
                 "bindings")

    def __init__(self, fid: str, owner: str = "?", registered_pages: int = 0,
                 vm_start: int = 0, vm_end: int = 0,
                 registered_at: Optional[int] = None):
        self.fid = fid
        self.owner = owner
        self.registered_pages = registered_pages
        self.vm_start = vm_start
        self.vm_end = vm_end
        self.registered_at = registered_at
        self.metadata_bytes = 0
        self.transport: Optional[str] = None
        #: TypeTag name -> [object count, object-span bytes]
        self.objects: Dict[str, List[int]] = {}
        self.bindings: Dict[str, _Binding] = {}


class _LogicalEdge:
    """Byte accounting of a serializing transport on one DAG edge."""

    __slots__ = ("transfers", "bytes_moved", "bytes_payload",
                 "object_count", "first_ns", "last_ns")

    def __init__(self):
        self.transfers = 0
        self.bytes_moved = 0
        self.bytes_payload = 0
        self.object_count = 0
        self.first_ns: Optional[int] = None
        self.last_ns: Optional[int] = None


def _amplification(moved: int, touched: int) -> Optional[float]:
    if touched <= 0:
        return None
    return round(moved / touched, 4)


class LineageTracker:
    """Accumulates page/byte provenance for one (or several) runs.

    Attach via ``hub.enable_lineage()``; every instrumentation site in
    mem/kernel/net/transfer reaches it as ``hub.lineage``.
    All state is deterministic given the seeded simulation, so
    :meth:`report` is byte-identical across replays of the same run.
    """

    def __init__(self, hub=None):
        self._hub = hub
        self.clear()

    def clear(self) -> None:
        self._fids: Dict[str, _FidState] = {}
        #: (edge label, transport) -> logical byte log
        self._logical: Dict[Tuple[str, str], _LogicalEdge] = {}
        #: consumer space name -> live bindings (the touch fast path)
        self._watch: Dict[str, List[_Binding]] = {}
        #: ambient (edge label, transport) set by the coordinator
        self._edge: Optional[Tuple[str, str]] = None
        #: (transport, key) -> put bytes awaiting their first get
        self._pending_puts: Dict[Tuple[str, Any], int] = {}

    def _now(self) -> int:
        return self._hub.now() if self._hub is not None else 0

    # -- ambient DAG-edge context (set by the coordinator) -------------------

    def set_edge(self, label: Optional[str], transport: Optional[str]
                 ) -> Optional[Tuple[str, str]]:
        """Set the ambient edge; returns the previous value for restore."""
        previous = self._edge
        self._edge = (label, transport) if label is not None else None
        return previous

    def restore_edge(self, previous: Optional[Tuple[str, str]]) -> None:
        self._edge = previous

    # -- producer side -------------------------------------------------------

    def registered(self, fid: str, owner: str, pages: int,
                   vm_start: int, vm_end: int) -> None:
        """A ``register_mem`` pinned *pages* pages of *owner*'s space."""
        state = self._fids.get(fid)
        if state is None:
            self._fids[fid] = _FidState(fid, owner, pages, vm_start, vm_end,
                                        registered_at=self._now())
        else:
            state.owner = owner
            state.registered_pages = pages
            state.vm_start, state.vm_end = vm_start, vm_end

    def attach_objects(self, fid: str,
                       objects: Dict[str, Tuple[int, int]]) -> None:
        """Per-TypeTag ``{tag: (count, bytes)}`` object map of *fid*."""
        state = self._fid(fid)
        for tag, (count, nbytes) in objects.items():
            entry = state.objects.setdefault(tag, [0, 0])
            entry[0] += count
            entry[1] += nbytes

    def sent(self, fid: str, transport: str, metadata_bytes: int) -> None:
        """The producer shipped *fid*'s page-list token (control bytes)."""
        state = self._fid(fid)
        state.transport = transport
        state.metadata_bytes += metadata_bytes

    # -- consumer side -------------------------------------------------------

    def bound(self, fid: str, space: str, vm_start: int,
              vm_end: int) -> None:
        """An ``rmap`` mapped *fid* into consumer *space*."""
        state = self._fid(fid)
        binding = state.bindings.get(space)
        if binding is None:
            binding = state.bindings[space] = _Binding(fid, space,
                                                       vm_start, vm_end)
        else:
            binding.attempts += 1
            binding.vm_start, binding.vm_end = vm_start, vm_end
        if self._edge is not None:
            binding.edge, binding.transport = self._edge
        watching = self._watch.setdefault(space, [])
        if binding not in watching:
            watching.append(binding)
        binding.stamp(self._now())

    def vma_unmapped(self, space: str, vma_name: str) -> None:
        """The rmap'd VMA was unmapped; stop watching (stats persist)."""
        watching = self._watch.get(space)
        if not watching:
            return
        fid = _fid_of(vma_name)
        self._watch[space] = [b for b in watching if b.fid != fid]
        if not self._watch[space]:
            del self._watch[space]

    def page_pulled(self, vma_name: str, space: str, vpn: int, kind: str,
                    nbytes: int, rpc: bool = False) -> None:
        """One page materialized in the consumer's remote mapping.

        *kind* is ``demand`` / ``prefetch`` / ``zero_fill`` / ``shared``;
        *nbytes* is the physical bytes that crossed the fabric for it (0
        for zero-fill and same-machine shared mappings).  ``rpc=True``
        marks bytes that traveled the two-sided RPC path rather than a
        one-sided READ.
        """
        binding = self._binding(_fid_of(vma_name), space)
        binding.kinds[kind] = binding.kinds.get(kind, 0) + 1
        if nbytes:
            seen = binding.pulls.get(vpn, 0)
            if seen:
                binding.duplicate_pulls += 1
            binding.pulls[vpn] = seen + 1
            binding.bytes_moved += nbytes
            if rpc:
                binding.bytes_moved_rpc += nbytes
            if kind == "prefetch":
                binding.prefetched.add(vpn)
        binding.stamp(self._now())

    def pte_fetched(self, vma_name: str, space: str, fetches: int,
                    regions: int) -> None:
        """On-demand PTE metadata arrived (coalesced region spans)."""
        if not fetches and not regions:
            return
        binding = self._binding(_fid_of(vma_name), space)
        binding.pte_fetches += fetches
        binding.pte_regions += regions

    def touched(self, space: str, vaddr: int, length: int) -> None:
        """The consumer read/wrote *length* bytes at *vaddr*."""
        watching = self._watch.get(space)
        if not watching:
            return
        for binding in watching:
            if binding.vm_start <= vaddr < binding.vm_end:
                end = min(vaddr + length, binding.vm_end)
                accum = binding.touched
                addr = vaddr
                while addr < end:
                    vpn = addr >> _PAGE_SHIFT
                    page_end = min(end, (vpn + 1) << _PAGE_SHIFT)
                    seen = accum.get(vpn, 0)
                    if seen < PAGE_SIZE:
                        accum[vpn] = min(PAGE_SIZE,
                                         seen + (page_end - addr))
                    addr = page_end
                binding.stamp(self._now())
                return

    def cow_broken(self, space: str, vpn: int) -> None:
        """A consumer write diverged a CoW page into a private copy."""
        watching = self._watch.get(space)
        if not watching:
            return
        vaddr = vpn << _PAGE_SHIFT
        for binding in watching:
            if binding.vm_start <= vaddr < binding.vm_end:
                binding.cow_breaks += 1
                binding.stamp(self._now())
                return

    # -- serializing transports (logical bytes) ------------------------------

    def logical_transfer(self, transport: str, moved: int, payload: int,
                         objects: int = 0) -> None:
        """A serializing transport delivered *payload* bytes by moving
        *moved* bytes (inflation / double movement included)."""
        label = self._edge[0] if self._edge is not None else "?"
        log = self._logical.get((label, transport))
        if log is None:
            log = self._logical[(label, transport)] = _LogicalEdge()
        log.transfers += 1
        log.bytes_moved += moved
        log.bytes_payload += payload
        log.object_count += objects
        ts = self._now()
        if log.first_ns is None:
            log.first_ns = ts
        log.last_ns = ts

    def storage_put(self, transport: str, key: Any, nbytes: int) -> None:
        """Bytes written into shared storage, attributed at first get."""
        slot = (transport, key)
        self._pending_puts[slot] = self._pending_puts.get(slot, 0) + nbytes

    def storage_get(self, transport: str, key: Any, nbytes: int) -> None:
        """Bytes read back from storage; claims the matching put."""
        put = self._pending_puts.pop((transport, key), 0)
        self.logical_transfer(transport, moved=nbytes + put, payload=nbytes)

    # -- internals -----------------------------------------------------------

    def _fid(self, fid: str) -> _FidState:
        state = self._fids.get(fid)
        if state is None:
            state = self._fids[fid] = _FidState(fid)
        return state

    def _binding(self, fid: str, space: str) -> _Binding:
        state = self._fid(fid)
        binding = state.bindings.get(space)
        if binding is None:
            binding = state.bindings[space] = _Binding(fid, space, 0, 0)
            if self._edge is not None:
                binding.edge, binding.transport = self._edge
        return binding

    # -- report --------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """JSON-ready lineage report (deterministic; sorted keys)."""
        edges: Dict[str, Dict[str, Any]] = {}
        for label, transport in sorted(self._logical):
            log = self._logical[(label, transport)]
            edges[f"{label}@{transport}"] = {
                "kind": "logical",
                "transport": transport,
                "transfers": log.transfers,
                "bytes_moved": log.bytes_moved,
                "bytes_payload": log.bytes_payload,
                "bytes_touched": log.bytes_payload,
                "amplification": _amplification(log.bytes_moved,
                                                log.bytes_payload),
                "objects": {"serialized": {"count": log.object_count,
                                           "bytes": log.bytes_payload}},
                "window": {"first_ns": log.first_ns, "last_ns": log.last_ns},
            }
        for fid in sorted(self._fids):
            state = self._fids[fid]
            for space in sorted(state.bindings):
                binding = state.bindings[space]
                label = binding.edge or f"{state.owner}->{space}"
                transport = binding.transport or state.transport or "rmmap"
                self._merge_binding(edges, f"{label}@{transport}", transport,
                                    state, binding)
        totals = {"bytes_moved": 0, "bytes_moved_rpc": 0, "bytes_touched": 0,
                  "prefetch_waste_bytes": 0, "duplicate_pulls": 0}
        by_transport: Dict[str, Dict[str, int]] = {}
        for entry in edges.values():
            agg = by_transport.setdefault(
                entry["transport"],
                {"bytes_moved": 0, "bytes_moved_rpc": 0, "bytes_touched": 0,
                 "prefetch_waste_bytes": 0, "duplicate_pulls": 0})
            for tgt in (totals, agg):
                tgt["bytes_moved"] += entry["bytes_moved"]
                tgt["bytes_moved_rpc"] += entry.get("bytes_moved_rpc", 0)
                tgt["bytes_touched"] += entry["bytes_touched"]
                tgt["prefetch_waste_bytes"] += \
                    entry.get("prefetch_waste", {}).get("bytes", 0)
                tgt["duplicate_pulls"] += \
                    entry.get("pages", {}).get("duplicate_pulls", 0)
        unclaimed = sum(self._pending_puts.values())
        for (transport, _key), nbytes in self._pending_puts.items():
            totals["bytes_moved"] += nbytes
            if transport in by_transport:
                by_transport[transport]["bytes_moved"] += nbytes
        for agg in [totals] + list(by_transport.values()):
            agg["amplification"] = _amplification(agg["bytes_moved"],
                                                  agg["bytes_touched"])
        return {
            "schema": LINEAGE_SCHEMA,
            "page_size": PAGE_SIZE,
            "edges": {k: edges[k] for k in sorted(edges)},
            "by_transport": {k: by_transport[k]
                             for k in sorted(by_transport)},
            "totals": totals,
            "unclaimed_put_bytes": unclaimed,
        }

    @staticmethod
    def _merge_binding(edges: Dict[str, Dict[str, Any]], key: str,
                       transport: str, state: _FidState,
                       binding: _Binding) -> None:
        entry = edges.get(key)
        if entry is None:
            entry = edges[key] = {
                "kind": "pages",
                "transport": transport,
                "fids": [],
                "attempts": 0,
                "bytes_moved": 0,
                "bytes_moved_rpc": 0,
                "bytes_touched": 0,
                "bytes_payload": 0,
                "metadata_bytes": 0,
                "amplification": None,
                "pages": {"registered": 0, "pulled": 0, "demand": 0,
                          "prefetch": 0, "zero_fill": 0, "shared": 0,
                          "touched": 0, "duplicate_pulls": 0,
                          "cow_breaks": 0},
                "prefetch_waste": {"pages": 0, "bytes": 0, "pte_fetches": 0,
                                   "pte_regions_fetched": 0,
                                   "pte_regions_unused": 0},
                "objects": {},
                "window": {"first_ns": None, "last_ns": None},
            }
        touched_bytes = sum(min(v, PAGE_SIZE)
                            for v in binding.touched.values())
        waste_pages = sum(1 for vpn in binding.prefetched
                          if binding.touched.get(vpn, 0) == 0)
        regions_used = len({vpn // _REGION_PAGES for vpn in binding.pulls})
        entry["fids"] = sorted(set(entry["fids"]) | {binding.fid})
        entry["attempts"] += binding.attempts
        entry["bytes_moved"] += binding.bytes_moved
        entry["bytes_moved_rpc"] += binding.bytes_moved_rpc
        entry["bytes_touched"] += touched_bytes
        entry["metadata_bytes"] += state.metadata_bytes
        pages = entry["pages"]
        pages["registered"] += state.registered_pages
        pages["pulled"] += sum(binding.pulls.values())
        for kind in ("demand", "prefetch", "zero_fill", "shared"):
            pages[kind] += binding.kinds.get(kind, 0)
        pages["touched"] += len(binding.touched)
        pages["duplicate_pulls"] += binding.duplicate_pulls
        pages["cow_breaks"] += binding.cow_breaks
        waste = entry["prefetch_waste"]
        waste["pages"] += waste_pages
        waste["bytes"] += waste_pages * PAGE_SIZE
        waste["pte_fetches"] += binding.pte_fetches
        waste["pte_regions_fetched"] += binding.pte_regions
        waste["pte_regions_unused"] += max(0,
                                           binding.pte_regions - regions_used)
        for tag, (count, nbytes) in sorted(state.objects.items()):
            slot = entry["objects"].setdefault(tag,
                                               {"count": 0, "bytes": 0})
            slot["count"] += count
            slot["bytes"] += nbytes
        entry["amplification"] = _amplification(entry["bytes_moved"],
                                                entry["bytes_touched"])
        window = entry["window"]
        for attr, pick in (("first_ns", min), ("last_ns", max)):
            value = getattr(binding, attr)
            if value is not None:
                window[attr] = (value if window[attr] is None
                                else pick(window[attr], value))
