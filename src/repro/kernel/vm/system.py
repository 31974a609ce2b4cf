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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

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
        self.page_tables = PageTableDirectory()
        self.locks = locks or LockRegistry()
        self.stats = VmStats()

    # -- lookups -----------------------------------------------------------------

    def master_of(self, page: int) -> Optional[PageFrame]:
        """Resident master frame for a logical page, or None."""
        return self.hash_table.lookup(page)

    def frame_for(self, process: int, page: int) -> Optional[PageFrame]:
        """The frame ``process``'s mapping of ``page`` points at."""
        pte = self.page_tables.table(process).lookup(page)
        return pte.frame if pte is not None else None

    def location_for(self, process: int, page: int) -> Optional[int]:
        """Node the process's copy of the page lives on (None if unmapped)."""
        frame = self.frame_for(process, page)
        return frame.node if frame is not None else None

    # -- page faults ----------------------------------------------------------------

    def fault(
        self,
        process: int,
        page: int,
        node: int,
        writable: bool = True,
        region_id: int = 0,
    ) -> Pte:
        """Handle a (first-touch style) fault: make ``page`` mapped.

        If the page is resident the process is mapped to the copy nearest
        ``node``; otherwise a master frame is allocated on ``node``
        (falling back to other nodes when full, as IRIX would).
        """
        table = self.page_tables.table(process)
        existing = table.lookup(page)
        if existing is not None:
            return existing
        self.stats.faults += 1
        master = self.hash_table.lookup(page)
        if master is None:
            try:
                frame = self.allocator.allocate_fallback(node, page)
            except AllocationError:
                # Memory pressure: the pageout daemon preferentially
                # reclaims replicated pages (Section 7.2.3) so base pages
                # always fit.
                self._reclaim_anywhere(want=1, preferred=node)
                frame = self.allocator.allocate_fallback(node, page)
            self.hash_table.insert(frame)
            self.stats.base_pages += 1
            return table.map(page, frame, writable=writable, region_id=region_id)
        copy = master.nearest_copy(node)
        # Mappings to a replicated page are read-only (Section 4).
        effective_writable = writable and not master.has_replicas
        return table.map(
            page, copy, writable=effective_writable, region_id=region_id
        )

    # -- migration -------------------------------------------------------------------

    def migrate(self, page: int, to_node: int) -> PageFrame:
        """Move the (unreplicated) master of ``page`` to ``to_node``.

        Raises :class:`AllocationError` when ``to_node`` has no free frame
        and no reclaimable replicas, and :class:`VmError` when called on a
        replicated page (policy never migrates those).
        """
        old = self.hash_table.lookup(page)
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
        master = self.hash_table.lookup(page)
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
        master = self.hash_table.lookup(page)
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
        for master in self.hash_table:
            if not master.is_master:
                raise VmError(f"hash table holds non-master {master!r}")
            page = master.logical_page
            replicated = master.has_replicas
            copies = master.all_copies() if replicated else (master,)
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

    def memory_usage_pages(self) -> int:
        """Frames in use machine-wide."""
        return self.allocator.frames_in_use()

    def replication_overhead(self) -> float:
        """Peak replica frames as a fraction of distinct base pages."""
        if self.stats.base_pages == 0:
            return 0.0
        return self.allocator.peak_replica_frames / self.stats.base_pages
