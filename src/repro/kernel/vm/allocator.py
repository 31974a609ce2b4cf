"""Per-node page-frame allocation, memory pressure, replica accounting.

The pager allocates the destination frame for a migration or replication
from the memory of a specific node; when that node's free list is empty
the operation fails — the "% No Page" column of Table 4 (24 % for the
splash workload, whose per-node memory runs out even though the machine as
a whole has room).

The allocator also implements the paper's memory-pressure response
(Section 7.2.3): below a free-frame watermark a node is "under pressure",
which the decision tree consults before allowing replication, and
replicated frames are preferentially reclaimable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import AllocationError, ConfigurationError
from repro.kernel.vm.page import PageFrame


class PageFrameAllocator:
    """Free lists of :class:`PageFrame` per NUMA node."""

    def __init__(
        self,
        n_nodes: int,
        frames_per_node: int,
        pressure_watermark: float = 0.04,
    ) -> None:
        if n_nodes <= 0 or frames_per_node <= 0:
            raise ConfigurationError("need positive node and frame counts")
        if not 0.0 <= pressure_watermark < 1.0:
            raise ConfigurationError("watermark must lie in [0, 1)")
        self.n_nodes = n_nodes
        self.frames_per_node = frames_per_node
        self.pressure_watermark = pressure_watermark
        # Each node hands out freed frames first, last freed first, then
        # its never-used frames in ascending id order.  Node ``n`` owns
        # ids ``n * frames_per_node`` and up; a never-used frame is only
        # built when first allocated.  A reserved frame is in use but has
        # no descriptor yet: it takes one of those frames when claimed.
        self._free: List[List[PageFrame]] = [[] for _ in range(n_nodes)]
        self._fresh: List[int] = [frames_per_node] * n_nodes
        self._reserved: List[int] = [0] * n_nodes
        self._in_use: List[int] = [0] * n_nodes
        self._in_use_total = 0
        # statistics
        self.allocations = 0
        self.failures = 0
        self.peak_in_use = 0
        self.replica_frames: Dict[int, int] = {n: 0 for n in range(n_nodes)}
        self.peak_replica_frames = 0

    # -- capacity queries ---------------------------------------------------

    def free_frames(self, node: int) -> int:
        """Free frames on ``node``."""
        return len(self._free[node]) + self._fresh[node] - self._reserved[node]

    def frames_in_use(self, node: Optional[int] = None) -> int:
        """Frames in use on ``node`` (or machine-wide when None)."""
        if node is None:
            return self._in_use_total
        return self._in_use[node]

    def under_pressure(self, node: int) -> bool:
        """True when the node's free fraction is below the watermark."""
        return self.free_frames(node) < self.frames_per_node * self.pressure_watermark

    # -- allocation -------------------------------------------------------------

    def allocate(self, node: int, logical_page: int) -> PageFrame:
        """Allocate a frame on exactly ``node`` for ``logical_page``.

        Raises :class:`AllocationError` when the node is out of frames —
        the Table 4 "no page" outcome.
        """
        return self.claim(self.reserve(node), logical_page)

    def reserve(self, node: int) -> int:
        """Take a frame on exactly ``node`` without building its descriptor.

        Counts as one allocation; :meth:`claim` builds the descriptor
        later.  Raises :class:`AllocationError` when the node is full.
        """
        reserved = self._reserved[node]
        if len(self._free[node]) + self._fresh[node] <= reserved:
            self.failures += 1
            raise AllocationError(node)
        self._reserved[node] = reserved + 1
        self._in_use[node] += 1
        self._in_use_total += 1
        self.allocations += 1
        if self._in_use_total > self.peak_in_use:
            self.peak_in_use = self._in_use_total
        return node

    def reserve_fallback(self, preferred: int) -> int:
        """:meth:`reserve` on ``preferred``, falling back round-robin.

        Used for first-touch page faults: IRIX would not fail the fault
        just because the local node is full.  Returns the node.
        """
        for delta in range(self.n_nodes):
            node = (preferred + delta) % self.n_nodes
            try:
                return self.reserve(node)
            except AllocationError:
                continue
        raise AllocationError(preferred, "machine out of memory")

    def claim(self, node: int, logical_page: int) -> PageFrame:
        """The descriptor of a frame reserved on ``node``, bound to a page."""
        if self._reserved[node] <= 0:
            raise AllocationError(node, "no reserved frame to claim")
        self._reserved[node] -= 1
        free = self._free[node]
        if free:
            frame = free.pop()
        else:
            fresh = self._fresh[node]
            self._fresh[node] = fresh - 1
            per_node = self.frames_per_node
            frame = PageFrame(node * per_node + per_node - fresh, node)
        frame.assign(logical_page)
        return frame

    def reserved_frames(self, node: int) -> int:
        """Frames reserved on ``node`` whose descriptors are not built."""
        return self._reserved[node]

    def free(self, frame: PageFrame) -> None:
        """Return ``frame`` to its node's free list."""
        if frame.is_replica or frame.logical_page is not None:
            # ``release`` validates there are no live links.
            frame.release()
        self._free[frame.node].append(frame)
        self._in_use[frame.node] -= 1
        self._in_use_total -= 1

    # -- replica accounting -------------------------------------------------------

    def note_replica_created(self, node: int) -> None:
        """Track a replica frame for pressure-driven reclaim statistics."""
        self.replica_frames[node] += 1
        self.peak_replica_frames = max(
            self.peak_replica_frames, sum(self.replica_frames.values())
        )

    def note_replica_destroyed(self, node: int) -> None:
        """A replica frame on ``node`` was collapsed or reclaimed."""
        if self.replica_frames[node] <= 0:
            raise AllocationError(node, "replica count underflow")
        self.replica_frames[node] -= 1

    def total_replica_frames(self) -> int:
        """Live replica frames machine-wide."""
        return sum(self.replica_frames.values())
