"""The remote-fork path: instantiate a child container from a source.

A :class:`ForkedContainer` is a regular :class:`Container` whose planned
segments are backed not by demand-zero anonymous memory but by a single
:class:`~repro.kernel.remote_pager.RemoteVMA` rmapped from the parent's
registration — at identical virtual addresses, which the static VM plan
guarantees is conflict-free (same slot → same layout).  Faults pull the
parent's pages lazily over one-sided RDMA READs and map them
copy-on-write, so parent and child diverge safely; pages the parent
never materialized demand-zero locally, exactly like anonymous memory.

:func:`remote_fork` is the syscall-shaped entry point.  Every cost —
auth RPC, kernel-space QP connect, PTE metadata (coalesced on-demand
regions), and the doorbell-batched working-set pull — lands on the
child's ledger, so the scheduler can charge the fork's exact latency as
simulated time and runs stay bit-identical at a fixed seed.  Any transport or kernel failure raises
:class:`~repro.errors.ForkFailed` with the partial child torn down; the
caller falls back to a cold start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import ForkFailed, KernelError, MemoryError_, NetworkError
from repro.kernel.kernel import PT_ONDEMAND, RmapHandle
from repro.mem.layout import page_number
from repro.platform.container import Container
from repro.platform.dag import FunctionSpec
from repro.platform.planner import Slot
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.fork.source import ForkSource
    from repro.kernel.machine import Machine

#: exceptions remote_fork converts into ForkFailed (anything else is a
#: programming error and propagates)
_FORK_ERRORS = (KernelError, NetworkError, MemoryError_)

#: pages pulled eagerly at fork time (doorbell-batched) from the head of
#: the heap segment, where the runtime's live state sits; the rest
#: arrive lazily on first fault
WORKING_SET_PAGES = 64


class ForkedContainer(Container):
    """A container whose address space is CoW-backed by its parent.

    Its PTE metadata arrives on demand, in coalesced region fetches, so
    fork setup stays O(working set) even for a fat parent; page pulls
    degrade to two-sided RPCs when the QP breaks but the source machine
    is still up.
    """

    def __init__(self, machine: "Machine", spec: FunctionSpec, slot: Slot,
                 source: "ForkSource"):
        self._fork_source = source
        self.fork_handle: Optional[RmapHandle] = None
        super().__init__(machine, spec, slot)
        # the interpreter/libraries are demand-paged from the parent,
        # not resident at birth — the fork's memory-footprint win
        self.space.extra_resident_pages = 0

    def _map_segments(self, machine: "Machine", space, layout) -> None:
        meta = self._fork_source.meta
        assert meta is not None, "fork source must be registered first"
        self.fork_handle = machine.kernel.rmap(
            space, meta.mac_addr, self._fork_source.fid,
            self._fork_source.key,
            page_table_mode=PT_ONDEMAND, rpc_fallback=True)

    def working_set_vaddrs(self) -> List[int]:
        """The :data:`WORKING_SET_PAGES` addresses at the head of the
        heap segment, pulled eagerly at fork time."""
        heap_rng = self.space.segments.heap
        first = page_number(heap_rng.start)
        last = page_number(heap_rng.end - 1)
        return [vpn * PAGE_SIZE for vpn in
                range(first, min(first + WORKING_SET_PAGES, last + 1))]


def remote_fork(source: "ForkSource", machine: "Machine",
                spec: FunctionSpec, slot: Slot) -> ForkedContainer:
    """Fork *source*'s container onto *machine*; returns the child.

    The child is immediately schedulable: its whole planned range is
    mapped (remotely backed), segments are pinned, and a fresh managed
    heap sits over the heap segment.  Raises
    :class:`~repro.errors.ForkFailed` — with no partial state left
    behind — when the source is unusable or the setup/pull path fails.
    """
    if not source.usable():
        raise ForkFailed(f"fork source {source.fid!r} is not usable")
    try:
        source.ensure_registered()
    except _FORK_ERRORS as err:
        raise ForkFailed(f"registering fork source {source.fid!r}: "
                         f"{err}") from err
    try:
        child = ForkedContainer(machine, spec, slot, source)
    except _FORK_ERRORS as err:
        raise ForkFailed(f"rmap of {source.fid!r} onto "
                         f"{machine.mac_addr}: {err}") from err
    try:
        child.fork_handle.prefetch(child.working_set_vaddrs())
    except _FORK_ERRORS as err:
        child.destroy()
        raise ForkFailed(f"working-set pull from {source.fid!r}: "
                         f"{err}") from err
    source.forks_served += 1
    return child
