"""Fork sources: running containers whose address space children map.

A :class:`ForkSource` wraps one live container and lazily registers its
whole address space with the local kernel (``register_mem`` — the same
Table-1 syscall rmmap producers use), so any machine in the fabric can
``rmap`` it and instantiate a copy-on-write child.  The registration's
shadow-copy pins keep the snapshot frames alive even if the parent
container is later evicted, and the PR-1 lease scanner reclaims the
registration if every interested party dies (Section 4.2's fallback).

The :class:`ForkManager` owns the source table for a scheduler: one
source per ``(workflow, function, slot)`` pod key, adopted
deterministically from the warm pool and invalidated when its machine
crashes.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.kernel.registry import VmMeta
from repro.platform.container import STATE_DEAD, Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.machine import Machine

PodKey = Tuple[str, str, int]


def fork_fid(key: PodKey) -> str:
    """The deterministic registration id for one pod key."""
    workflow, function, index = key
    return f"fork:{workflow}/{function}#{index}"


def fork_key(fid: str) -> int:
    """A deterministic 16-bit auth key (crc32, not ``hash`` — Python
    randomizes string hashes across processes)."""
    return zlib.crc32(fid.encode("utf-8")) & 0xFFFF


class ForkSource:
    """One container's address space, registered for remote forking."""

    def __init__(self, container: Container, fid: str, key: int):
        self.container = container
        self.machine = container.machine
        self.fid = fid
        self.key = key
        self.meta: Optional[VmMeta] = None
        self._incarnation = self.machine.incarnation
        self.forks_served = 0

    def ensure_registered(self) -> VmMeta:
        """Register the parent's space (idempotent); returns the VmMeta
        a child needs to rmap.  Registration cost lands on the parent's
        ledger — it is off the child's critical path once warm."""
        if self.meta is not None and self.usable():
            return self.meta
        if not self.machine.alive:
            raise KernelError(
                f"fork source machine {self.machine.mac_addr} is down")
        self.meta = self.machine.kernel.register_mem(
            self.container.space, self.fid, self.key)
        self._incarnation = self.machine.incarnation
        return self.meta

    def usable(self) -> bool:
        """Can this source still serve forks *right now*?  The machine
        must be up in the same incarnation (a crash wiped the frames and
        dropped the registry) and, once registered, the registration
        must still be present (not lease-reclaimed)."""
        if not self.machine.alive \
                or self.machine.incarnation != self._incarnation:
            return False
        if self.meta is None:
            # not registered yet; a live parent container can register
            return self.container.state != STATE_DEAD
        try:
            self.machine.kernel.registry.lookup(self.fid, self.key)
        except KernelError:
            return False
        return True

    def release(self) -> None:
        """Drop the registration (and its shadow pins), if still held."""
        if self.meta is None or not self.machine.alive \
                or self.machine.incarnation != self._incarnation:
            self.meta = None
            return
        try:
            self.machine.kernel.deregister_mem(self.fid, self.key)
        except KernelError:
            pass  # already reclaimed (lease scan) — nothing to release
        self.meta = None


class ForkManager:
    """The scheduler's source table plus fork accounting."""

    def __init__(self):
        self.sources: Dict[PodKey, ForkSource] = {}
        #: lifetime fork count (read back by stats/tests)
        self.forks = 0

    def source_for(self, key: PodKey,
                   pool: List[Container]) -> Optional[ForkSource]:
        """The usable source for *key*, adopting one from *pool* if the
        current source died.  Adoption is deterministic: the
        lexicographically-first live container becomes the parent."""
        source = self.sources.get(key)
        if source is not None and source.usable():
            return source
        if source is not None:
            self.sources.pop(key, None)
        candidates = [c for c in pool
                      if c.state != STATE_DEAD and c.machine.alive]
        if not candidates:
            return None
        parent = min(candidates, key=lambda c: c.name)
        fid = fork_fid(key)
        source = ForkSource(parent, fid, fork_key(fid))
        self.sources[key] = source
        return source

    def source_machine(self, workflow: str,
                       function: str) -> Optional["Machine"]:
        """The machine serving forks for ``workflow/function`` (lowest
        slot index wins) — the chaos injector's crash target."""
        matches = [(key, src) for key, src in self.sources.items()
                   if key[0] == workflow and key[1] == function
                   and src.usable()]
        if not matches:
            return None
        return min(matches, key=lambda kv: kv[0])[1].machine

    def machine_failed(self, machine: "Machine") -> int:
        """Forget every source on a dead machine; returns drops."""
        dead = [key for key, src in self.sources.items()
                if src.machine is machine]
        for key in dead:
            del self.sources[key]
        return len(dead)

    def fork_backed(self, containers) -> int:
        """How many of *containers* are fork-backed children."""
        return sum(1 for c in containers
                   if getattr(c, "fork_handle", None) is not None)
