"""Per-address-space page tables."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import MemoryError_

PTE_PRESENT = 0x1
PTE_WRITE = 0x2
PTE_COW = 0x4


class PTE:
    """A page-table entry: physical frame number plus flag bits."""

    __slots__ = ("pfn", "flags")

    def __init__(self, pfn: int, flags: int = PTE_PRESENT | PTE_WRITE):
        self.pfn = pfn
        self.flags = flags

    @property
    def present(self) -> bool:
        return bool(self.flags & PTE_PRESENT)

    @property
    def writable(self) -> bool:
        return bool(self.flags & PTE_WRITE)

    @property
    def cow(self) -> bool:
        return bool(self.flags & PTE_COW)

    def mark_cow(self) -> None:
        """Clear the write bit and set CoW (register_mem's marking step)."""
        self.flags = (self.flags | PTE_COW) & ~PTE_WRITE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = "".join(b for b, f in (("P", PTE_PRESENT), ("W", PTE_WRITE),
                                      ("C", PTE_COW)) if self.flags & f)
        return f"<PTE pfn={self.pfn} {bits}>"


class PageTable:
    """Sparse map from virtual page number to :class:`PTE`."""

    def __init__(self):
        self._entries: Dict[int, PTE] = {}
        #: ``lookup(vpn) -> Optional[PTE]``: the dict's own ``get`` — the
        #: most-called function of a page-bound run gets no frame of its own
        self.lookup = self._entries.get

    def __len__(self) -> int:
        return len(self._entries)

    def map(self, vpn: int, pfn: int,
            flags: int = PTE_PRESENT | PTE_WRITE) -> PTE:
        return self.map_run(vpn, (pfn,), flags)[0]

    def map_run(self, vpn: int, pfns: Sequence[int],
                flags: int) -> List[PTE]:
        """Map ``len(pfns)`` adjacent pages from *vpn* on, all *flags*."""
        entries, out = self._entries, []
        for vpn, pfn in enumerate(pfns, vpn):
            if vpn in entries:
                raise MemoryError_(f"vpn {vpn:#x} already mapped")
            entries[vpn] = pte = PTE(pfn, flags)
            out.append(pte)
        return out

    def remap(self, vpn: int, pfn: int, flags: int) -> PTE:
        """Replace an existing mapping (CoW break)."""
        if vpn not in self._entries:
            raise MemoryError_(f"vpn {vpn:#x} not mapped")
        pte = PTE(pfn, flags)
        self._entries[vpn] = pte
        return pte

    def unmap(self, vpn: int) -> PTE:
        try:
            return self._entries.pop(vpn)
        except KeyError:
            raise MemoryError_(f"vpn {vpn:#x} not mapped") from None

    def entries_in(self, first_vpn: int, last_vpn: int
                   ) -> Iterator[Tuple[int, PTE]]:
        """Present entries with ``first_vpn <= vpn <= last_vpn``, in
        ascending vpn order."""
        entries = self._entries
        if len(entries) <= last_vpn - first_vpn + 1:
            vpns = sorted(v for v in entries if first_vpn <= v <= last_vpn)
        else:
            vpns = [v for v in range(first_vpn, last_vpn + 1) if v in entries]
        for vpn in vpns:
            yield vpn, entries[vpn]

    def snapshot(self, first_vpn: int, last_vpn: int) -> Dict[int, int]:
        """vpn -> pfn copy for a range (shipped during the rmap auth RPC)."""
        return {vpn: pte.pfn
                for vpn, pte in self.entries_in(first_vpn, last_vpn)}

    def all_pfns(self) -> List[int]:
        """Every mapped physical frame (the chaos frame-leak audit)."""
        return [pte.pfn for pte in self._entries.values()]
