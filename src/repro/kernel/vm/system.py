"""The VM system facade: faults, migration, replication, collapse.

This module glues the hash table, page tables, allocator and locks into
the operations the pager performs (Figure 2 of the paper).  It implements
*mechanism only* — which pages to move is the policy's business — and it
keeps every invariant checkable:

* exactly one master frame per resident logical page, linked in the hash
  table, with replicas chained off it;
* every pte points at some copy of its logical page, and every frame's
  back-map lists exactly the ptes pointing at it;
* replicated pages are mapped read-only everywhere, so a store faults into
  the collapse path.

A page has two forms.  A first touch *records* the page: its master
node in the VM's placement table (in first-touch order) and each
process's mapping, by its order, in that process's page table; the
allocator reserves the frame.  Its frame descriptor and ptes are built
the first time anything needs them (:meth:`VmSystem.master_of`, a
page-table lookup, :meth:`~VmSystem.migrate`,
:meth:`~VmSystem.replicate`, :meth:`~VmSystem.collapse`), ptes in
mapping order and the master linked at its first-touch place in the
hash table, so the objects are those eager faults would have built.
Most pages are never acted on and keep the recorded form: one copy,
writable mappings, nothing to reclaim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import AllocationError, VmError
from repro.kernel.vm.allocator import PageFrameAllocator
from repro.kernel.vm.hashtable import PageHashTable
from repro.kernel.vm.locks import LockRegistry
from repro.kernel.vm.page import PageFrame
from repro.kernel.vm.pagetable import PageTableDirectory, Pte


@dataclass
class VmStats:
    """Counters of VM-level events."""

    faults: int = 0
    migrations: int = 0
    replications: int = 0
    collapses: int = 0
    replicas_reclaimed: int = 0
    base_pages: int = 0           # distinct logical pages ever resident

    extra: Dict[str, int] = field(default_factory=dict)


class VmSystem:
    """Mechanism layer for page placement, movement and replication."""

    def __init__(
        self,
        n_nodes: int,
        frames_per_node: int,
        pressure_watermark: float = 0.04,
        locks: Optional[LockRegistry] = None,
    ) -> None:
        self.allocator = PageFrameAllocator(
            n_nodes, frames_per_node, pressure_watermark
        )
        self.hash_table = PageHashTable()
        self.page_tables = PageTableDirectory(materialize=self._materialize)
        self.locks = locks or LockRegistry()
        self.stats = VmStats()
        # Recorded pages (no descriptors yet): page -> master node, in
        # first-touch order.
        self._recorded: Dict[int, int] = {}

    # -- lookups -----------------------------------------------------------------

    def master_of(self, page: int) -> Optional[PageFrame]:
        """Resident master frame for a logical page, or None."""
        master = self.hash_table.lookup(page)
        if master is None and page in self._recorded:
            master = self._materialize(page)
        return master

    def frame_for(self, process: int, page: int) -> Optional[PageFrame]:
        """The frame ``process``'s mapping of ``page`` points at."""
        pte = self.page_tables.lookup(process, page)
        return pte.frame if pte is not None else None

    def location_for(self, process: int, page: int) -> Optional[int]:
        """Node the process's copy of the page lives on (None if unmapped).

        Builds nothing: a recorded mapping's copy is its page's master.
        """
        entry = self.page_tables.entry(process, page)
        if entry is None:
            return None
        if entry.__class__ is int:
            return self._recorded[page]
        return entry.frame.node

    def is_resident(self, page: int) -> bool:
        """True once ``page`` has a master copy; builds nothing."""
        return page in self._recorded or page in self.hash_table

    # -- page faults ----------------------------------------------------------------

    def fault(
        self,
        processes: Sequence[int],
        pages: Sequence[int],
        nodes: Sequence[int],
    ) -> List[int]:
        """A run of first-touch faults, in order; returns the mapped nodes.

        Fault ``k`` maps ``pages[k]`` for ``processes[k]``, exactly as
        :meth:`fault_page` would, but records a new page instead of
        building its frame and pte (see the module docstring).
        """
        record = self._record
        return [
            record(process, page, node)
            for process, page, node in zip(processes, pages, nodes)
        ]

    def fault_page(self, process: int, page: int, node: int) -> Pte:
        """One first-touch fault, with the page's objects built at once.

        If the page is resident the process is mapped to the copy nearest
        ``node``; otherwise a master frame is allocated on ``node``
        (falling back to other nodes when full, as IRIX would).
        """
        self._record(process, page, node)
        return self.page_tables.table(process).lookup(page)

    def _record(self, process: int, page: int, node: int) -> int:
        """Map ``page`` for ``process`` (preferring ``node``); its node."""
        table = self.page_tables.table(process)
        entry = table.entry(page)
        if entry is not None:
            if entry.__class__ is int:
                return self._recorded[page]
            return entry.frame.node
        stats = self.stats
        order = stats.faults
        stats.faults = order + 1
        home = self._recorded.get(page)
        if home is not None:
            table.record(page, order)
            return home
        master = self.hash_table.lookup(page)
        if master is not None:
            copy = master.nearest_copy(node)
            # Mappings to a replicated page are read-only (Section 4).
            table.map(page, copy, writable=not master.has_replicas)
            return copy.node
        try:
            home = self.allocator.reserve_fallback(node)
        except AllocationError:
            # Memory pressure: the pageout daemon preferentially
            # reclaims replicated pages (Section 7.2.3) so base pages
            # always fit.
            self._reclaim_anywhere(want=1, preferred=node)
            home = self.allocator.reserve_fallback(node)
        self._recorded[page] = home
        stats.base_pages += 1
        table.record(page, order)
        return home

    def _materialize(self, page: int) -> PageFrame:
        """Build a recorded page's master frame and ptes."""
        mappings = self.page_tables.recorded(page)
        frame = self.allocator.claim(self._recorded.pop(page), page)
        # The first mapping is the first touch.
        self.hash_table.insert(frame, order=mappings[0][0])
        for _, table in mappings:
            table.build(page, frame)
        return frame

    # -- migration -------------------------------------------------------------------

    def migrate(self, page: int, to_node: int) -> PageFrame:
        """Move the (unreplicated) master of ``page`` to ``to_node``.

        Raises :class:`AllocationError` when ``to_node`` has no free frame
        and no reclaimable replicas, and :class:`VmError` when called on a
        replicated page (policy never migrates those).
        """
        old = self.master_of(page)
        if old is None:
            raise VmError(f"page {page} is not resident")
        if old.has_replicas:
            raise VmError("cannot migrate a replicated page; collapse first")
        if old.node == to_node:
            raise VmError("page already lives on the target node")
        # A full target node fails the operation (Table 4's "no page");
        # replica reclaim is the pageout daemon's job, not the pager's.
        new = self.allocator.allocate(to_node, page)
        self.hash_table.replace_master(old, new)
        for pte in list(old.ptes):
            pte.remap(new)
        self.allocator.free(old)
        self.stats.migrations += 1
        return new

    # -- replication ------------------------------------------------------------------

    def replicate(
        self,
        page: int,
        to_node: int,
        node_of_process: Callable[[int], int],
    ) -> PageFrame:
        """Create a replica of ``page`` on ``to_node``.

        After chaining the replica, *every* pte of the logical page is
        re-pointed to the copy nearest its process's current node and
        marked read-only (the paper's step 8: mappings updated to the
        closest replica; writes must trap so replicas can be collapsed).
        """
        master = self.master_of(page)
        if master is None:
            raise VmError(f"page {page} is not resident")
        if to_node in master.copy_nodes():
            raise VmError(f"page {page} already has a copy on node {to_node}")
        replica = self.allocator.allocate(to_node, page)
        # ``allocate`` assigned it as a master; rewind that and chain it.
        replica.logical_page = None
        master.add_replica(replica)
        self.allocator.note_replica_created(to_node)
        self._repoint_to_nearest(master, node_of_process, writable=False)
        self.stats.replications += 1
        return replica

    # -- collapse ----------------------------------------------------------------------

    def collapse(
        self,
        page: int,
        keep_node: Optional[int] = None,
    ) -> PageFrame:
        """Collapse all replicas of ``page`` to a single copy.

        Keeps the copy on ``keep_node`` when one exists (the writer's
        node), else the master.  All ptes are re-pointed at the survivor
        and made writable again.
        """
        master = self.master_of(page)
        if master is None:
            raise VmError(f"page {page} is not resident")
        if not master.has_replicas:
            raise VmError(f"page {page} has no replicas to collapse")
        survivor = master.nearest_copy(keep_node) if keep_node is not None else master
        # Re-point every mapping at the survivor and restore writability.
        for copy in master.all_copies():
            for pte in list(copy.ptes):
                if pte.frame is not survivor:
                    pte.remap(survivor)
                pte.writable = True
        # If the survivor is a replica it becomes the new master.
        if survivor is not master:
            master.remove_replica(survivor)
            survivor.assign(page)
            # Move remaining replicas (if any) onto the new master — the
            # collapse frees them all below, but links must stay coherent.
            for replica in list(master.replicas):
                master.remove_replica(replica)
                self.allocator.note_replica_destroyed(replica.node)
                self.allocator.free(replica)
            self.hash_table.replace_master(master, survivor)
            self.allocator.note_replica_destroyed(survivor.node)
            # Old master frame is now unmapped and unchained.
            self.allocator.free(master)
        else:
            for replica in list(master.replicas):
                master.remove_replica(replica)
                self.allocator.note_replica_destroyed(replica.node)
                self.allocator.free(replica)
        self.stats.collapses += 1
        return survivor

    # -- pressure-driven reclaim ----------------------------------------------------------

    def reclaim_replicas(self, node: int, want: int) -> int:
        """Free up to ``want`` replica frames on ``node``.

        Mappings pointing at a reclaimed replica are re-pointed to the
        master.  Returns the number of frames actually reclaimed.
        """
        reclaimed = 0
        if want <= 0:
            return 0
        for master in list(self.hash_table):
            if reclaimed >= want:
                break
            for replica in list(master.replicas):
                if replica.node != node:
                    continue
                for pte in list(replica.ptes):
                    pte.remap(master)
                master.remove_replica(replica)
                self.allocator.note_replica_destroyed(node)
                self.allocator.free(replica)
                reclaimed += 1
                if not master.has_replicas:
                    for pte in master.ptes:
                        pte.writable = True
                if reclaimed >= want:
                    break
        self.stats.replicas_reclaimed += reclaimed
        return reclaimed

    # -- helpers --------------------------------------------------------------------------

    def _reclaim_anywhere(self, want: int, preferred: int) -> int:
        """Reclaim replicas, preferring the ``preferred`` node's memory."""
        reclaimed = self.reclaim_replicas(preferred, want)
        if reclaimed >= want:
            return reclaimed
        for node in range(self.allocator.n_nodes):
            if node == preferred:
                continue
            reclaimed += self.reclaim_replicas(node, want - reclaimed)
            if reclaimed >= want:
                break
        return reclaimed

    def _repoint_to_nearest(
        self,
        master: PageFrame,
        node_of_process: Callable[[int], int],
        writable: bool,
    ) -> None:
        """Point every pte of the page at the copy nearest its process."""
        for copy in master.all_copies():
            for pte in list(copy.ptes):
                nearest = master.nearest_copy(node_of_process(pte.process))
                if pte.frame is not nearest:
                    pte.remap(nearest)
                pte.writable = writable

    # -- invariants (used by tests and property checks) ------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`VmError` if any VM invariant is violated."""
        replicas = 0
        for master in self.hash_table:
            if not master.is_master:
                raise VmError(f"hash table holds non-master {master!r}")
            page = master.logical_page
            replicated = master.has_replicas
            copies = master.all_copies() if replicated else (master,)
            replicas += len(copies) - 1
            if replicated:
                nodes = [copy.node for copy in copies]
                if len(nodes) != len(set(nodes)):
                    raise VmError(f"page {page} has two copies on one node")
            for copy in copies:
                for pte in copy.ptes:
                    if pte.logical_page != page:
                        raise VmError("back-map points at a foreign pte")
                    if pte.frame is not copy:
                        raise VmError("back-map / pte frame mismatch")
                    if replicated and pte.writable:
                        raise VmError(
                            f"writable mapping to replicated page {page}"
                        )
        self._check_recorded(replicas)

    def _check_recorded(self, replicas: int) -> None:
        """Recorded pages against the page tables and the allocator.

        Each recorded page has one copy, on a real node, and at least one
        recorded mapping; every mapping is a recorded one of a recorded
        page or a pte of its own process and page; the mappings number
        the faults, and the allocator's counts match the two forms.
        """
        recorded, allocator = self._recorded, self.allocator
        n_nodes = allocator.n_nodes
        reserved = [0] * n_nodes
        for page, node in recorded.items():
            if not 0 <= node < n_nodes:
                raise VmError(f"recorded page {page} lives on no node ({node})")
            if page in self.hash_table:
                raise VmError(f"page {page} is both recorded and linked")
            reserved[node] += 1
        mapped = set()
        mappings = 0
        for table in self.page_tables.tables():
            for page, entry in table.entries():
                mappings += 1
                if entry.__class__ is int:
                    if page not in recorded:
                        raise VmError(
                            f"process {table.process} records a mapping of "
                            f"page {page}, which is not recorded"
                        )
                    mapped.add(page)
                elif (entry.process != table.process
                      or entry.logical_page != page):
                    raise VmError(
                        f"process {table.process}'s entry for page {page} "
                        f"is {entry!r}"
                    )
        if len(mapped) != len(recorded):
            raise VmError("a recorded page has no mapping")
        if mappings != self.stats.faults:
            raise VmError(
                f"{mappings} mappings after {self.stats.faults} faults"
            )
        for node in range(n_nodes):
            if allocator.reserved_frames(node) != reserved[node]:
                raise VmError(
                    f"node {node} reserves {allocator.reserved_frames(node)} "
                    f"frames for {reserved[node]} recorded pages"
                )
        masters = len(self.hash_table)
        if allocator.frames_in_use() != masters + replicas + len(recorded):
            raise VmError(
                f"{allocator.frames_in_use()} frames in use for {masters} "
                f"linked and {len(recorded)} recorded pages and {replicas} "
                f"replicas"
            )
        if self.stats.base_pages != masters + len(recorded):
            raise VmError(
                f"{self.stats.base_pages} base pages, but {masters} linked "
                f"and {len(recorded)} recorded"
            )

    def memory_usage_pages(self) -> int:
        """Frames in use machine-wide."""
        return self.allocator.frames_in_use()

    def replication_overhead(self) -> float:
        """Peak replica frames as a fraction of distinct base pages."""
        if self.stats.base_pages == 0:
            return 0.0
        return self.allocator.peak_replica_frames / self.stats.base_pages
