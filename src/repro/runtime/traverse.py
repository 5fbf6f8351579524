"""Semantic-aware object traversal for prefetching (Section 4.4).

The producer-side runtime walks the objects reachable from a state's root to
compute precisely which virtual pages hold the state; the consumer
doorbell-batch-reads exactly those pages in one round-trip.

Traversal runs at *language* speed — iterating a plain Python list touches
every element PyObject through ``__iter__``/``__next__`` (~60 ns each here),
which is why prefetch is **not** always a win for many-small-object types
like ``list(int)``, ``list(str)`` and ``dict`` (Fig 11a).  Typed containers
expose internal block iterators instead: ndarray buffers, image pixels and
dataframe column blocks are covered at per-block cost (the paper's
"12 LoC wrapper" around numpy's internal iterator).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import SerializationError
from repro.mem.layout import page_round_down
from repro.runtime.heap import (_PACK_MIN, _PRIM_SLOT, ManagedHeap,
                                is_prim_run)
from repro.runtime.objects import HEADER_SIZE, TypeTag
from repro.units import PAGE_SIZE


class TraversalResult:
    """Pages (and traversal-step count) covering one state.

    ``objects`` maps lower-cased TypeTag names to ``[count, bytes]`` for
    the objects the walk visited; element runs a block iterator covered
    without visiting appear under the pseudo-tag ``"packed"``.  The map
    is a free by-product of the walk (no extra reads, no extra charges)
    and feeds lineage's per-object byte attribution.
    """

    def __init__(self, page_addrs: List[int], object_count: int,
                 objects: Optional[Dict[str, List[int]]] = None):
        self.page_addrs = page_addrs
        self.object_count = object_count
        self.objects = objects if objects is not None else {}

    @property
    def page_count(self) -> int:
        return len(self.page_addrs)

    @property
    def nbytes(self) -> int:
        return self.page_count * PAGE_SIZE


class ObjectTraverser:
    """Computes the page set of a state by walking its object graph."""

    def __init__(self, heap: ManagedHeap,
                 max_objects: Optional[int] = None):
        self.heap = heap
        # Section 4.4: a threshold bounds traversal cost; exceeding it makes
        # the producer fall back to non-prefetch mode.
        self.max_objects = max_objects

    # -- helpers -------------------------------------------------------------

    def _add_span(self, pages: Set[int], start: int, nbytes: int) -> None:
        first = page_round_down(start)
        last = page_round_down(start + nbytes - 1)
        pages.update(range(first, last + 1, PAGE_SIZE))

    def _packed_block(self, ptrs: List[int]):
        """(base, nbytes) when *ptrs* form a contiguous stride-24 run."""
        if not is_prim_run(ptrs):
            return None
        return int(ptrs[0]), len(ptrs) * _PRIM_SLOT

    def _dense_block(self, ptrs: List[int]):
        """(base, nbytes) when *ptrs* sit in one dense allocation region
        (e.g. a string column's cells, allocated back to back).  The
        column's block iterator then covers them without visiting each
        element."""
        n = len(ptrs)
        if n < _PACK_MIN:
            return None
        lo, hi = min(ptrs), max(ptrs)
        if hi - lo > 256 * n:
            return None
        _tag, _flags, size_hi = self.heap.header_of(hi)
        return lo, hi + HEADER_SIZE + size_hi - lo

    # -- traversal -------------------------------------------------------------

    def traverse(self, root: int) -> Optional[TraversalResult]:
        """Page list for the state rooted at *root*.

        Returns ``None`` when traversal is not possible (a type without an
        iterator) or not worthwhile (step count exceeds the threshold) —
        the caller then falls back to demand paging.
        """
        heap = self.heap
        cost = heap.cost
        pages: Set[int] = set()
        seen: Set[int] = set()
        objects: Dict[str, List[int]] = {}
        steps = 0
        charge = 0
        stack = [(root, False)]
        try:
            while stack:
                addr, is_column = stack.pop()
                if addr in seen:
                    continue
                seen.add(addr)
                steps += 1
                if self.max_objects is not None \
                        and steps > self.max_objects:
                    heap.ledger.charge(charge, "traverse")
                    return None
                tag, _flags, size = heap.header_of(addr)
                self._add_span(pages, addr, HEADER_SIZE + size)
                slot = objects.setdefault(tag.name.lower(), [0, 0])
                slot[0] += 1
                slot[1] += HEADER_SIZE + size
                if is_column and tag == TypeTag.LIST:
                    # typed column: internal block iterator covers the
                    # whole element run at per-block cost
                    ptrs = heap.children(addr)
                    block = self._packed_block(ptrs) \
                        or self._dense_block(ptrs)
                    if block is not None:
                        base, nbytes = block
                        self._add_span(pages, base, nbytes)
                        run = objects.setdefault("packed", [0, 0])
                        run[0] += len(ptrs)
                        run[1] += nbytes
                        charge += cost.traverse_per_block_ns
                        continue
                    stack.extend((p, False) for p in ptrs)
                    charge += len(ptrs) * cost.traverse_per_object_ns
                    continue
                charge += cost.traverse_per_object_ns
                if tag == TypeTag.DATAFRAME:
                    ptrs = heap.children(addr)
                    # alternating (name, column-list) pointers
                    for i, p in enumerate(ptrs):
                        stack.append((p, i % 2 == 1))
                else:
                    stack.extend((p, False) for p in heap.children(addr))
        except SerializationError:
            # type without an iterator (e.g. numpy without the wrapper)
            heap.ledger.charge(charge, "traverse")
            return None
        heap.ledger.charge(charge, "traverse")
        return TraversalResult(sorted(pages), steps, objects)


def pages_of_state(heap: ManagedHeap, root: int,
                   max_objects: Optional[int] = None
                   ) -> Optional[TraversalResult]:
    """Convenience wrapper over :class:`ObjectTraverser`."""
    return ObjectTraverser(heap, max_objects=max_objects).traverse(root)
