"""Derive a TLB-miss trace from a cache-miss trace (Section 8.3).

"The miss behavior of the TLB can be modelled as a cache with the line
size being a page" — we run each CPU's page-touch stream through a real
64-entry LRU TLB.  A weighted cache-miss record stands for a *burst* of
misses to one page; the burst touches the TLB once on entry, and — when
the page's working set exceeds the TLB reach between successive misses —
re-touches it during the burst.  That intra-burst behaviour is summarised
by the page group's ``tlb_factor`` (TLB misses emitted per cache miss once
the page is not TLB-resident):

* hot *code* pages loop tightly inside a handful of pages, so they suffer
  enormous cache-miss counts with almost no TLB misses (factor ~0.01) —
  the mechanism behind TLB information failing on the engineering
  workload;
* sparse *data* sweeps change pages as fast as they miss, so their TLB
  miss counts track their cache-miss counts much more closely.

The derived trace keeps the original timestamps, so reset intervals align
between the two streams.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import TraceError
from repro.machine.config import TlbConfig
from repro.trace.record import FLAG_INSTR, FLAG_KERNEL, FLAG_WRITE, Trace

DEFAULT_TLB_FACTOR = 0.3


class TlbTraceDeriver:
    """Stateful TLB-miss derivation, one chunk of cache misses at a time.

    The per-CPU TLB contents and the per-page factor cache survive
    across :meth:`feed` calls, so feeding a trace chunk by chunk (for
    example from :meth:`repro.store.ContainerReader.iter_chunks`)
    produces exactly the records :func:`derive_tlb_trace` would emit
    for the concatenated trace — with only one chunk's cache-miss
    columns live at a time.

    Each CPU's TLB is a plain ``dict`` kept in LRU order: insertion
    order is recency, so a hit re-inserts its page at the end and a
    miss into a full TLB evicts the first key.
    """

    def __init__(
        self,
        n_cpus: int,
        tlb_config: Optional[TlbConfig] = None,
        factor_of_page: Optional[Callable[[int], float]] = None,
    ) -> None:
        self.n_cpus = int(n_cpus)
        self._entries = (tlb_config or TlbConfig()).entries
        self._tlbs: List[dict] = [{} for _ in range(self.n_cpus)]
        self._factor_of_page = factor_of_page
        self._factor_cache: dict = {}

    def _resolve_factor(self, chunk: Trace) -> Callable[[int], float]:
        if self._factor_of_page is None:
            if chunk.meta is not None:
                self._factor_of_page = chunk.meta.tlb_factor_of_page
            else:
                self._factor_of_page = lambda page: DEFAULT_TLB_FACTOR
        return self._factor_of_page

    def _miss_indices(self, cpus: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Record indices (in record order) whose page missed its CPU's TLB."""
        order = np.argsort(cpus, kind="stable")
        bounds = np.searchsorted(cpus[order], np.arange(self.n_cpus + 1))
        sorted_pages = pages[order].tolist()
        entries = self._entries
        missed: List[int] = []
        for cpu in range(self.n_cpus):
            lo, hi = int(bounds[cpu]), int(bounds[cpu + 1])
            tlb = self._tlbs[cpu]
            for k, page in enumerate(sorted_pages[lo:hi], lo):
                if tlb.pop(page, False):
                    tlb[page] = True
                    continue
                if len(tlb) >= entries:
                    del tlb[next(iter(tlb))]
                tlb[page] = True
                missed.append(k)
        return np.sort(order[np.array(missed, dtype=np.intp)])

    def feed(self, chunk: Trace) -> Trace:
        """The TLB-miss sub-trace this chunk of cache misses produces.

        Timestamps are preserved; the result may be empty when every
        touch hit a TLB.  A chunk with a CPU outside ``[0, n_cpus)`` is
        rejected before any TLB state changes.
        """
        cpus = chunk.cpu
        if len(chunk):
            low, high = int(cpus.min()), int(cpus.max())
            if low < 0 or high >= self.n_cpus:
                bad = low if low < 0 else high
                raise TraceError(f"record cpu {bad} outside machine")
        factor_of_page = self._resolve_factor(chunk)
        miss = self._miss_indices(cpus, chunk.page)
        pages = chunk.page[miss]
        unique, inverse = np.unique(pages, return_inverse=True)
        factor_cache = self._factor_cache
        factors = np.empty(len(unique), dtype=np.float64)
        for j, page in enumerate(unique.tolist()):
            factor = factor_cache.get(page)
            if factor is None:
                factor = factor_cache[page] = float(factor_of_page(page))
            factors[j] = factor
        # np.rint rounds half to even, like Python's round().
        weight = np.maximum(
            1, np.rint(chunk.weight[miss] * factors[inverse])
        ).astype(np.int64)
        # A software TLB reload sees whether the faulting reference was a
        # store, so write information survives in the TLB stream.
        return Trace(
            chunk.time_ns[miss],
            cpus[miss],
            chunk.process[miss],
            pages,
            weight,
            chunk.flags[miss] & (FLAG_WRITE | FLAG_INSTR | FLAG_KERNEL),
            meta=chunk.meta,
        )


def derive_tlb_trace(
    trace: Trace,
    n_cpus: Optional[int] = None,
    tlb_config: Optional[TlbConfig] = None,
    factor_of_page: Optional[Callable[[int], float]] = None,
) -> Trace:
    """Produce the TLB-miss trace corresponding to ``trace``.

    ``factor_of_page`` defaults to the workload spec attached to the
    trace (``trace.meta.tlb_factor_of_page``) and falls back to a uniform
    factor when no metadata is available.

    Every TLB-metric and page-table cell of a workload replays the same
    TLB-miss stream, so with the default ``tlb_config`` and
    ``factor_of_page`` the result is memoized on ``trace`` per
    ``n_cpus`` (:meth:`Trace.memo`) and read-only.  Explicit arguments
    derive afresh.
    """
    if n_cpus is None:
        n_cpus = int(trace.cpu.max()) + 1 if len(trace) else 1
    if tlb_config is not None or factor_of_page is not None:
        deriver = TlbTraceDeriver(
            n_cpus, tlb_config=tlb_config, factor_of_page=factor_of_page
        )
        return deriver.feed(trace)
    return trace.memo(
        ("tlb", n_cpus),
        lambda: TlbTraceDeriver(n_cpus).feed(trace).freeze(),
    )


def replay_columns(trace: Trace) -> Tuple[np.ndarray, ...]:
    """The columns a dynamic replay reads, timestamps first:
    ``(time_ns, cpu, page, weight, is_write)``."""
    return (trace.time_ns, trace.cpu, trace.page, trace.weight,
            trace.is_write)


def merge_cost_driver(
    cost: Sequence[np.ndarray],
    driver: Sequence[np.ndarray],
    cost_meta=None,
    driver_meta=None,
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Merge a cost stream and a driver stream into one time order.

    The one tie rule of every cost/driver replay: ``cost`` and
    ``driver`` are equal-length tuples of aligned columns, timestamps
    first, and a stable sort over the cost block then the driver block
    puts cost records *before* driver records at equal timestamps, so a
    policy acting on a driver event never retroactively cheapens the
    miss that produced it.  Each side keeps its own record order.

    Returns the merged columns (dtypes kept) and ``costmask``, True for
    the records that came from ``cost``.  Raises
    :class:`~repro.common.errors.TraceError` when both metas are given
    and name different workloads.
    """
    if (
        cost_meta is not None
        and driver_meta is not None
        and cost_meta is not driver_meta
        and cost_meta.name != driver_meta.name
    ):
        raise TraceError("cost and driver traces are from different workloads")
    times = np.concatenate([cost[0], driver[0]])
    order = np.argsort(times, kind="stable")
    merged = (times[order],) + tuple(
        np.concatenate([c, d])[order] for c, d in zip(cost[1:], driver[1:])
    )
    return merged, order < len(cost[0])


def merged_tlb_stream(
    chunks: Iterable[Trace],
    n_cpus: int,
    tlb_config: Optional[TlbConfig] = None,
    factor_of_page: Optional[Callable[[int], float]] = None,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Stream the cost/TLB-driver merge over time-ordered chunks.

    Derives each chunk's TLB-miss sub-trace statefully
    (:class:`TlbTraceDeriver`) and merges it back into the cache-miss
    stream by :func:`merge_cost_driver`, so the concatenated batches
    equal the whole-trace merge.  Yields ``(times, cpus, pages,
    weights, is_write, costmask)`` column batches — ``costmask`` True
    for cache-miss (stall-charging) records, False for derived TLB
    (counter-driving) records.

    A derived record whose timestamp reaches the chunk's last cost
    timestamp is *held back* and merged with a later batch: a future
    chunk may still contain cost events at or below that timestamp,
    which must sort before it.  Cost timestamps are non-decreasing
    across chunks, so anything strictly earlier is safe to emit.
    """
    deriver = TlbTraceDeriver(
        n_cpus, tlb_config=tlb_config, factor_of_page=factor_of_page
    )
    carry: Optional[Tuple[np.ndarray, ...]] = None
    for chunk in chunks:
        derived = deriver.feed(chunk)
        if not len(chunk):
            continue
        pool = replay_columns(derived)
        if carry is not None:
            pool = tuple(
                np.concatenate([c, d]) for c, d in zip(carry, pool)
            )
        ready = pool[0] < int(chunk.time_ns[-1])
        carry = tuple(col[~ready] for col in pool)
        merged, costmask = merge_cost_driver(
            replay_columns(chunk), tuple(col[ready] for col in pool)
        )
        yield (*merged, costmask)
    if carry is not None and len(carry[0]):
        yield (*carry, np.zeros(len(carry[0]), dtype=bool))
