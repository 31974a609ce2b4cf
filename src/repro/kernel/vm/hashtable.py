"""The (vnode, offset) -> physical page open hash table.

IRIX translates logical pages to physical frames through a global open
hash table of pfds protected by ``memlock``; the paper's replication
support links replicas off the master pfd so that exactly one frame per
logical page is in the table (Section 4, "Replication support").

Logical pages are identified by a single integer id throughout the
library; :func:`logical_id` and :func:`vnode_offset` convert between that
id and the (vnode, offset) pair IRIX would use, so the bucket structure is
faithful while the rest of the system stays simple.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import VmError
from repro.kernel.vm.page import PageFrame

_OFFSET_BITS = 20  # 2^20 pages (4 GB) per vnode


def logical_id(vnode: int, offset: int) -> int:
    """Pack a (vnode, page offset) pair into a logical page id."""
    if vnode < 0 or offset < 0:
        raise VmError("vnode and offset must be non-negative")
    if offset >= (1 << _OFFSET_BITS):
        raise VmError("offset too large")
    return (vnode << _OFFSET_BITS) | offset


def vnode_offset(page_id: int) -> Tuple[int, int]:
    """Unpack a logical page id into its (vnode, page offset) pair."""
    if page_id < 0:
        raise VmError("page id must be non-negative")
    return page_id >> _OFFSET_BITS, page_id & ((1 << _OFFSET_BITS) - 1)


class PageHashTable:
    """Open hash of master pfds keyed by logical page id.

    Each bucket lists its masters in insertion order, or in the order
    given to :meth:`insert`: a page linked late (its descriptor built
    after other pages were) still takes its first-touch place.
    """

    def __init__(self, n_buckets: int = 4096) -> None:
        if n_buckets <= 0:
            raise VmError("need at least one bucket")
        self._n_buckets = n_buckets
        self._buckets: List[Dict[int, PageFrame]] = [
            {} for _ in range(n_buckets)
        ]
        self._order: Dict[int, int] = {}
        self._next_order = 0
        self._count = 0

    def _bucket(self, page_id: int) -> Dict[int, PageFrame]:
        return self._buckets[page_id % self._n_buckets]

    def insert(self, frame: PageFrame, order: Optional[int] = None) -> None:
        """Link a master frame into the table (memlock held by caller).

        ``order`` places it among its bucket's masters (default: after
        every master linked so far).
        """
        if not frame.is_master:
            raise VmError("only master frames live in the hash table")
        page = frame.logical_page
        bucket = self._bucket(page)
        if page in bucket:
            raise VmError(f"logical page {page} already present")
        if order is None:
            order = self._next_order
        self._next_order = max(self._next_order, order + 1)
        order_of = self._order
        order_of[page] = order
        late = bool(bucket) and order < order_of[next(reversed(bucket))]
        bucket[page] = frame
        if late:
            ranked = sorted(bucket.items(), key=lambda item: order_of[item[0]])
            bucket.clear()
            bucket.update(ranked)
        self._count += 1

    def lookup(self, page_id: int) -> Optional[PageFrame]:
        """Master frame for ``page_id``, or None if not resident."""
        return self._buckets[page_id % self._n_buckets].get(page_id)

    def remove(self, page_id: int) -> PageFrame:
        """Unlink and return the master frame for ``page_id``."""
        bucket = self._bucket(page_id)
        frame = bucket.pop(page_id, None)
        if frame is None:
            raise VmError(f"logical page {page_id} is not resident")
        del self._order[page_id]
        self._count -= 1
        return frame

    def replace_master(self, old: PageFrame, new: PageFrame) -> None:
        """Swap the table entry from ``old`` to ``new`` (migration step).

        The caller has already assigned ``new`` to the same logical page.
        """
        if old.logical_page != new.logical_page:
            raise VmError("replacement must be for the same logical page")
        bucket = self._bucket(old.logical_page)
        if bucket.get(old.logical_page) is not old:
            raise VmError("old frame is not the current master")
        bucket[old.logical_page] = new

    def __contains__(self, page_id: int) -> bool:
        return self.lookup(page_id) is not None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[PageFrame]:
        for bucket in self._buckets:
            yield from bucket.values()

    def longest_chain(self) -> int:
        """Longest bucket chain (a health metric for the open hash)."""
        return max((len(b) for b in self._buckets), default=0)
