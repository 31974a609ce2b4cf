"""Per-process page tables, ptes and pfd back-mappings.

Mirrors the mapping machinery of Section 4: page table entries point at
pfds; the paper adds (i) back-mappings from each pfd to the ptes mapping
it, and (ii) a lock on each pte so mappings can change without holding the
coarse region lock.  Replicated pages are mapped read-only so a store
traps into the collapse path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.common.errors import VmError
from repro.kernel.vm.page import PageFrame


class Pte:
    """One page-table entry: (process, logical page) -> frame."""

    __slots__ = ("process", "logical_page", "frame", "writable", "region_id")

    def __init__(
        self,
        process: int,
        logical_page: int,
        frame: PageFrame,
        writable: bool = True,
        region_id: int = 0,
    ) -> None:
        self.process = process
        self.logical_page = logical_page
        self.frame = frame
        self.writable = writable
        self.region_id = region_id

    def remap(self, new_frame: PageFrame) -> None:
        """Point this pte at a different frame, fixing back-mappings."""
        if new_frame.logical_page != self.logical_page:
            raise VmError("cannot remap a pte to a different logical page")
        self.frame.detach_pte(self)
        self.frame = new_frame
        new_frame.attach_pte(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Pte(proc={self.process}, page={self.logical_page}, "
            f"frame={self.frame.frame_id}, w={self.writable})"
        )


class PageTable:
    """One process's page table."""

    def __init__(self, process: int) -> None:
        self.process = process
        self._entries: Dict[int, Pte] = {}

    def map(
        self,
        logical_page: int,
        frame: PageFrame,
        writable: bool = True,
        region_id: int = 0,
    ) -> Pte:
        """Install a mapping and register the back-mapping."""
        if logical_page in self._entries:
            raise VmError(
                f"process {self.process} already maps page {logical_page}"
            )
        pte = Pte(self.process, logical_page, frame, writable, region_id)
        self._entries[logical_page] = pte
        frame.attach_pte(pte)
        return pte

    def lookup(self, logical_page: int) -> Optional[Pte]:
        """The pte for ``logical_page``, or None when unmapped."""
        return self._entries.get(logical_page)

    def unmap(self, logical_page: int) -> Pte:
        """Remove a mapping and its back-mapping."""
        pte = self._entries.pop(logical_page, None)
        if pte is None:
            raise VmError(
                f"process {self.process} does not map page {logical_page}"
            )
        pte.frame.detach_pte(pte)
        return pte

    def unmap_all(self) -> int:
        """Tear down every mapping (process exit); returns count removed."""
        count = 0
        for logical_page in list(self._entries):
            self.unmap(logical_page)
            count += 1
        return count

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Pte]:
        return iter(self._entries.values())


class PageTableDirectory:
    """All processes' page tables, created on demand."""

    def __init__(self) -> None:
        self._tables: Dict[int, PageTable] = {}

    def table(self, process: int) -> PageTable:
        """Page table for ``process`` (created if absent)."""
        table = self._tables.get(process)
        if table is None:
            table = self._tables[process] = PageTable(process)
        return table

    def lookup(self, process: int, logical_page: int) -> Optional[Pte]:
        """``process``'s pte for ``logical_page``, or None; creates nothing."""
        table = self._tables.get(process)
        return table._entries.get(logical_page) if table is not None else None

    def drop(self, process: int) -> int:
        """Destroy a process's table; returns mappings removed."""
        table = self._tables.pop(process, None)
        return table.unmap_all() if table is not None else 0

    def processes(self) -> List[int]:
        """Processes with live page tables."""
        return sorted(self._tables)

    def mappings_of_frame(self, frame: PageFrame) -> List[Pte]:
        """All ptes mapping ``frame`` (straight off the back-mappings)."""
        return list(frame.ptes)

    def __len__(self) -> int:
        return len(self._tables)
