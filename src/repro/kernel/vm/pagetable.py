"""Per-process page tables, ptes and pfd back-mappings.

Mirrors the mapping machinery of Section 4: page table entries point at
pfds; the paper adds (i) back-mappings from each pfd to the ptes mapping
it, and (ii) a lock on each pte so mappings can change without holding the
coarse region lock.  Replicated pages are mapped read-only so a store
traps into the collapse path.

A first-touch fault may *record* a mapping instead of building its pte:
the table then holds the mapping's order (an int) until the VM builds
the page's objects, at the first lookup of any of its mappings or the
kernel's first action on the page (see :mod:`repro.kernel.vm.system`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

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


#: What a page table holds per page: the pte, or the mapping order of a
#: recorded mapping whose pte is not built yet.
Entry = Union[Pte, int]


class PageTable:
    """One process's page table."""

    def __init__(
        self,
        process: int,
        materialize: Optional[Callable[[int], object]] = None,
    ) -> None:
        self.process = process
        self._entries: Dict[int, Entry] = {}
        # Builds a recorded page's frame and ptes (set by the VM).
        self._materialize = materialize

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

    def record(self, logical_page: int, order: int) -> None:
        """Note a mapping by its order alone; its pte is built later."""
        if logical_page in self._entries:
            raise VmError(
                f"process {self.process} already maps page {logical_page}"
            )
        self._entries[logical_page] = order

    def build(self, logical_page: int, frame: PageFrame) -> Pte:
        """The pte of a recorded mapping, pointing at ``frame``."""
        if self._entries.get(logical_page).__class__ is not int:
            raise VmError(
                f"process {self.process} has no recorded mapping of "
                f"page {logical_page}"
            )
        pte = Pte(self.process, logical_page, frame)
        self._entries[logical_page] = pte
        frame.attach_pte(pte)
        return pte

    def entry(self, logical_page: int) -> Optional[Entry]:
        """The pte, the order of a recorded mapping, or None; builds nothing."""
        return self._entries.get(logical_page)

    def entries(self) -> Iterator[Tuple[int, Entry]]:
        """Every (page, entry) pair, in mapping order; builds nothing."""
        return iter(self._entries.items())

    def lookup(self, logical_page: int) -> Optional[Pte]:
        """The pte for ``logical_page``, or None when unmapped."""
        pte = self._entries.get(logical_page)
        if pte.__class__ is int:
            self._materialize(logical_page)
            pte = self._entries[logical_page]
        return pte

    def unmap(self, logical_page: int) -> Pte:
        """Remove a mapping and its back-mapping."""
        pte = self.lookup(logical_page)
        if pte is None:
            raise VmError(
                f"process {self.process} does not map page {logical_page}"
            )
        del self._entries[logical_page]
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
        return iter([self.lookup(page) for page in list(self._entries)])


class PageTableDirectory:
    """All processes' page tables, created on demand."""

    def __init__(
        self, materialize: Optional[Callable[[int], object]] = None
    ) -> None:
        self._tables: Dict[int, PageTable] = {}
        self._materialize = materialize

    def table(self, process: int) -> PageTable:
        """Page table for ``process`` (created if absent)."""
        table = self._tables.get(process)
        if table is None:
            table = self._tables[process] = PageTable(
                process, self._materialize
            )
        return table

    def lookup(self, process: int, logical_page: int) -> Optional[Pte]:
        """``process``'s pte for ``logical_page``, or None; creates no table."""
        table = self._tables.get(process)
        return table.lookup(logical_page) if table is not None else None

    def entry(self, process: int, logical_page: int) -> Optional[Entry]:
        """:meth:`PageTable.entry`; creates no table."""
        table = self._tables.get(process)
        return table.entry(logical_page) if table is not None else None

    def recorded(self, logical_page: int) -> List[Tuple[int, PageTable]]:
        """(order, table) of each recorded mapping of a page, in order."""
        found = []
        for table in self._tables.values():
            order = table._entries.get(logical_page)
            if order.__class__ is int:
                found.append((order, table))
        found.sort(key=lambda item: item[0])
        return found

    def tables(self) -> List[PageTable]:
        """Every live page table, in creation order."""
        return list(self._tables.values())

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
