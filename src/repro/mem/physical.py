"""Physical memory: bytearray-backed frames with ``page_t`` refcounts."""

from __future__ import annotations

from itertools import takewhile
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import MemoryError_, OutOfMemory
from repro.obs.telemetry import current as _telemetry
from repro.units import PAGE_SIZE


class Frame:
    """One 4 KB physical frame.

    ``refcount`` mirrors Linux's ``page_t`` counter: CoW sharing and the
    kernel's shadow-copy pinning (Section 4.1) both bump it.  ``data`` is
    not copied: an RDMA READ may share it with the remote frame.
    """

    __slots__ = ("pfn", "data", "refcount")

    def __init__(self, pfn: int, data: Optional[bytearray] = None):
        self.pfn = pfn
        self.data = bytearray(PAGE_SIZE) if data is None else data
        self.refcount = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame pfn={self.pfn} rc={self.refcount}>"


class PhysicalMemory:
    """Frame allocator for one machine.

    Frames are lazily materialized; ``capacity_frames`` bounds the resident
    set so memory-consumption experiments (Fig 16a) can observe peaks.
    """

    def __init__(self, capacity_bytes: int = 64 << 30):
        if capacity_bytes < PAGE_SIZE:
            raise MemoryError_("capacity below one page")
        self.capacity_frames = capacity_bytes // PAGE_SIZE
        self._frames: Dict[int, Frame] = {}
        self._free_pfns: List[int] = []
        self._next_pfn = 0
        self.peak_frames = 0
        # telemetry label; the owning Machine sets this to its MAC
        self.owner = "pm"

    # --- accounting ---------------------------------------------------------

    @property
    def used_frames(self) -> int:
        return len(self._frames)

    @property
    def peak_bytes(self) -> int:
        return self.peak_frames * PAGE_SIZE

    def wipe(self) -> None:
        """Power loss: every frame vanishes regardless of refcount.

        Used by machine-crash injection; peak accounting is preserved so
        memory-consumption experiments still see the pre-crash high-water
        mark."""
        self._frames.clear()
        self._free_pfns.clear()

    # --- allocation -----------------------------------------------------------

    def allocate(self) -> Frame:
        """Allocate a zeroed frame with refcount 1."""
        return self.allocate_run((bytearray(PAGE_SIZE),))[0]

    def allocate_run(self, buffers: Sequence[bytearray]) -> List[Frame]:
        """One frame with refcount 1 per buffer, owning it (no copy), with
        the pfns and records as many :meth:`allocate` calls would give —
        or :class:`OutOfMemory`, allocating nothing, if they do not fit."""
        frames, free, out = self._frames, self._free_pfns, []
        if len(frames) + len(buffers) > self.capacity_frames:
            raise OutOfMemory(
                f"physical memory exhausted ({self.capacity_frames} frames)")
        hub = _telemetry()
        for data in buffers:
            if free:
                pfn = free.pop()
            else:
                pfn = self._next_pfn
                self._next_pfn += 1
            frames[pfn] = frame = Frame(pfn, data)
            out.append(frame)
            used = len(frames)
            if used > self.peak_frames:
                self.peak_frames = used
                if hub is not None:
                    hub.gauge_max(self.owner, "mem", "frames.resident.hw",
                                  used)
        return out

    def live_pfns(self) -> List[int]:
        """PFNs of every resident frame (for leak audits)."""
        return list(self._frames)

    def frame(self, pfn: int) -> Frame:
        try:
            return self._frames[pfn]
        except KeyError:
            raise MemoryError_(f"no frame with pfn {pfn}") from None

    def get(self, pfn: int) -> Frame:
        """Bump *pfn*'s refcount (CoW share / shadow-copy pin)."""
        frame = self.frame(pfn)
        frame.refcount += 1
        return frame

    def put(self, pfn: int) -> None:
        """Drop one reference; frees the frame at zero."""
        self.put_run((pfn,))

    def put_run(self, pfns: Iterable[int]) -> None:
        """Drop one reference on each of *pfns*, in order: freed pfns
        join the free list in that order, which decides their reuse."""
        frames, free = self._frames, self._free_pfns
        for pfn in pfns:
            frame = self.frame(pfn)
            if frame.refcount <= 0:
                raise MemoryError_(f"refcount underflow on pfn {pfn}")
            frame.refcount -= 1
            if frame.refcount == 0:
                del frames[pfn]
                free.append(pfn)

    def duplicate(self, pfn: int) -> Frame:
        """CoW break: copy *pfn* into a fresh frame (refcount 1)."""
        return self.allocate_run((bytearray(self.frame(pfn).data),))[0]

    # --- raw access (physical addressing, used by the RDMA NIC) -------------

    def read_frame(self, pfn: int, offset: int = 0,
                   length: Optional[int] = None) -> bytes:
        if length is None:
            length = PAGE_SIZE - offset
        if not (0 <= offset and offset + length <= PAGE_SIZE):
            raise MemoryError_("frame read out of bounds")
        return bytes(memoryview(self.frame(pfn).data)[offset:offset + length])

    def resident_prefix(self, pfns: Iterable[Optional[int]]) -> List[int]:
        """The leading *pfns* that name resident frames."""
        return list(takewhile(self._frames.__contains__, pfns))
