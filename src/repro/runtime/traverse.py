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

Simulated cost is charged per object, host work is done per block: a
container's leaf children that sit in one dense region of present pages
are read from their frames in one step
(:func:`~repro.runtime.heap.read_leaf_block`), and every header read the
per-object walk would have made is still charged one walk per page and
reported to lineage, in the order it would have been made.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SerializationError
from repro.mem.address_space import PageCursor
from repro.runtime.heap import (_PACK_MIN, _PRIM_SLOT, ManagedHeap,
                                is_prim_run, read_dense_span, read_leaf_block)
from repro.runtime.objects import HEADER_SIZE, LAYOUT, TypeTag, layout_at
from repro.units import PAGE_SHIFT, PAGE_SIZE


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

    def traverse(self, root: int) -> Optional[TraversalResult]:
        """Page list for the state rooted at *root*.

        Returns ``None`` when traversal is not possible (a type without an
        iterator) or not worthwhile (step count exceeds the threshold) —
        the caller then falls back to demand paging.
        """
        with PageCursor(self.heap.space) as cursor:
            charge, result = self._walk(cursor, root)
        self.heap.ledger.charge(charge, "traverse")
        return result

    def _walk(self, cursor: PageCursor, root: int
              ) -> Tuple[int, Optional[TraversalResult]]:
        """``(traversal cost, result)`` of the walk from *root*."""
        heap, cost = self.heap, self.heap.cost
        pages: Set[int] = set()
        seen: Set[int] = set()
        objects: Dict[str, List[int]] = {}
        steps = charge = 0

        def add_span(start: int, nbytes: int, name: str, count: int) -> None:
            pages.update(range(start & -PAGE_SIZE, start + nbytes, PAGE_SIZE))
            slot = objects.setdefault(name, [0, 0])
            slot[0] += count
            slot[1] += nbytes

        stack = [(root, False)]
        while stack:
            addr, is_column = stack.pop()
            if addr in seen:
                continue
            seen.add(addr)
            steps += 1
            if self.max_objects is not None and steps > self.max_objects:
                return charge, None
            row, size = layout_at(cursor.read(addr, HEADER_SIZE))
            add_span(addr, HEADER_SIZE + size, row.name, 1)
            column = is_column and row.tag is TypeTag.LIST
            if not column:
                charge += cost.traverse_per_object_ns
            try:
                ptrs = heap.children_at(cursor, addr)
            except SerializationError:
                # type without an iterator (e.g. numpy without the wrapper)
                return charge, None
            if column:
                # typed column: internal block iterator covers the whole
                # element run at per-block cost — a packed run, or cells
                # allocated back to back (e.g. a string column's)
                block = ((ptrs[0], len(ptrs) * _PRIM_SLOT)
                         if is_prim_run(ptrs)
                         else read_dense_span(cursor, ptrs))
                if block is not None:
                    add_span(*block, "packed", len(ptrs))
                    charge += cost.traverse_per_block_ns
                    continue
                charge += len(ptrs) * cost.traverse_per_object_ns
            if row.tag is TypeTag.DATAFRAME:
                # alternating (name, column list) pointers
                stack.extend((ptr, i % 2 == 1) for i, ptr in enumerate(ptrs))
                continue
            block = (read_leaf_block(heap.space, ptrs)
                     if len(ptrs) >= _PACK_MIN else None)
            if block is None or not seen.isdisjoint(ptrs) or (
                    self.max_objects is not None
                    and steps + len(ptrs) > self.max_objects):
                stack.extend((ptr, False) for ptr in ptrs)
                continue
            # the leaves the loop would pop next, last one first: two
            # header reads, one step and one object's cost each
            block.elide_headers(cursor, 2)
            seen.update(ptrs)
            steps += len(ptrs)
            charge += len(ptrs) * cost.traverse_per_object_ns
            # leaf i spans pages first[i] .. first[i] + spans[i] - 1
            nbytes = block.sizes + HEADER_SIZE
            first = block.addrs >> PAGE_SHIFT
            spans = ((block.addrs + nbytes - 1) >> PAGE_SHIFT) - first + 1
            nth = np.arange(spans.sum()) - np.repeat(spans.cumsum() - spans,
                                                     spans)
            pages.update((np.unique(np.repeat(first, spans) + nth)
                          << PAGE_SHIFT).tolist())
            count = np.bincount(block.tags)
            nbytes = np.bincount(block.tags, nbytes)
            for tag in dict.fromkeys(block.tags[::-1].tolist()):
                slot = objects.setdefault(LAYOUT[tag].name, [0, 0])
                slot[0] += int(count[tag])
                slot[1] += int(nbytes[tag])
        return charge, TraversalResult(sorted(pages), steps, objects)


def pages_of_state(heap: ManagedHeap, root: int,
                   max_objects: Optional[int] = None
                   ) -> Optional[TraversalResult]:
    """Convenience wrapper over :class:`ObjectTraverser`."""
    return ObjectTraverser(heap, max_objects=max_objects).traverse(root)
