"""Directory-controller miss counting, sampling and hot-page interrupts.

On FLASH the directory controller (MAGIC) runs software handlers on every
cache miss; the paper extends those handlers to keep a per-page, per-CPU
miss counter and to interrupt a processor when a counter crosses the
trigger threshold within a reset interval.  To amortise interrupt and TLB
flush costs the controller batches several hot pages per interrupt
(Section 4).  Sampling (Section 8.3, 1-in-10) is implemented with exact
weight accounting so a sampled counter sees, in expectation *and* in
long-run total, 1/N of the offered misses.

The counters also answer the space-overhead arithmetic of Section 7.2.1,
exposed by :func:`counter_space_overhead`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.folds import (
    group_sums,
    last_index,
    pair_sums,
    running_counts,
)
from repro.common.units import PAGE_SIZE
from repro.obs.events import HotPageTriggered
from repro.obs.tracer import as_tracer


class PageCounters:
    """Hardware counters for one logical page.

    ``miss`` is a plain Python list: the replay hot path increments one
    slot per counted miss, and list indexing avoids boxing a numpy
    scalar on every touch (a measurable win at trace scale).
    """

    __slots__ = ("miss", "writes", "migrates")

    def __init__(self, n_cpus: int) -> None:
        self.miss = [0] * n_cpus
        self.writes = 0
        self.migrates = 0

    def hottest_other_cpu(self, cpu: int) -> Tuple[int, int]:
        """(cpu, count) of the highest miss counter excluding ``cpu``."""
        best_cpu, best = -1, -1
        for other, count in enumerate(self.miss):
            if other == cpu:
                continue
            if count > best:
                best_cpu, best = other, int(count)
        return best_cpu, best


class MissCounterBank:
    """Per-page counter storage with periodic reset.

    Pages are tracked lazily: a page with no counted miss this interval
    costs nothing, which mirrors the paper's observation that only hot
    pages matter.
    """

    def __init__(self, n_cpus: int) -> None:
        if n_cpus <= 0:
            raise ConfigurationError("need at least one CPU")
        self.n_cpus = n_cpus
        self._pages: Dict[int, PageCounters] = {}
        self.resets = 0

    def record(self, page: int, cpu: int, weight: int = 1, is_write: bool = False) -> int:
        """Add ``weight`` misses from ``cpu`` to ``page``; return the new count."""
        counters = self._pages.get(page)
        if counters is None:
            counters = self._pages[page] = PageCounters(self.n_cpus)
        miss = counters.miss
        count = miss[cpu] + weight
        miss[cpu] = count
        if is_write:
            counters.writes += weight
        return count

    def add_writes(self, page: int, weight: int) -> None:
        """Credit write misses without touching the per-CPU counts.

        Used by the vectorized engine's batched write-back, which sums
        a segment's write weights per page instead of recording them
        event by event.
        """
        counters = self._pages.get(page)
        if counters is None:
            counters = self._pages[page] = PageCounters(self.n_cpus)
        counters.writes += weight

    def record_columns(self, pages, cpus, weights, writes) -> None:
        """:meth:`record` columns of misses, one call per (page, CPU) pair.

        Each pair gets its summed weight, then each page its
        ``writes``-selected weight (:meth:`add_writes`); no trigger is
        checked.  The vector engines write cold counters back this way.
        """
        upages, ucpus, sums = pair_sums(pages, cpus, self.n_cpus, weights)
        record = self.record
        for page, cpu, s in zip(upages.tolist(), ucpus.tolist(),
                                sums.astype(np.int64).tolist()):
            record(page, cpu, s)
        if writes.any():
            wpages, wsums = group_sums(pages[writes], weights[writes])
            add_writes = self.add_writes
            for page, s in zip(wpages.tolist(), wsums.astype(np.int64).tolist()):
                add_writes(page, s)

    def note_migration(self, page: int) -> None:
        """Bump the page's migrate counter (set by the pager on migration)."""
        counters = self._pages.get(page)
        if counters is None:
            counters = self._pages[page] = PageCounters(self.n_cpus)
        counters.migrates += 1

    def get(self, page: int) -> Optional[PageCounters]:
        """Counters for ``page`` this interval, or None if untouched."""
        return self._pages.get(page)

    def clear_page(self, page: int) -> None:
        """Reset one page's counters (after the pager acts on it)."""
        counters = self._pages.get(page)
        if counters is None:
            return
        migrates = counters.migrates
        self._pages[page] = PageCounters(self.n_cpus)
        # Migration history survives within the interval so the migrate
        # threshold can damp ping-ponging.
        self._pages[page].migrates = migrates

    def reset(self) -> None:
        """Interval reset: drop every counter (including migrate counts)."""
        self._pages.clear()
        self.resets += 1

    @property
    def tracked_pages(self) -> int:
        """Pages with live counters this interval."""
        return len(self._pages)


class SamplingAccumulator:
    """Exact 1-in-N sampling of weighted miss streams.

    Carries a per-CPU remainder so that over any long run the counted
    weight equals ``floor(total/N)`` — deterministic, order-independent for
    a single CPU's stream, and free of RNG state.
    """

    def __init__(self, n_cpus: int, rate: int) -> None:
        if rate <= 0:
            raise ConfigurationError("sampling rate must be >= 1")
        self.rate = rate
        #: Per-CPU remainder: the offered weight not yet counted.
        self.carry = [0] * n_cpus

    def sample(self, cpu: int, weight: int) -> int:
        """Weight that survives sampling for this record."""
        rate = self.rate
        if rate == 1:
            return weight
        carry = self.carry
        counted, carry[cpu] = divmod(carry[cpu] + weight, rate)
        return counted

    def sample_many(
        self,
        cpus: np.ndarray,
        weights: np.ndarray,
        mask: np.ndarray,
        before: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`sample` each ``mask``-selected record of a column, in order.

        Returns each record's surviving weight (0 where ``mask`` is
        false), record for record what :meth:`sample` would give, and
        advances the carries past the whole column.  A CPU's counted
        weight up to a record is ``(carry + cumsum) // rate``, so the
        per-record weights are the differences of that running quotient.
        ``before``, when given, receives each selected record's carry
        just before it (sampling at rate 1 keeps no carry).
        """
        rate = self.rate
        if rate == 1:
            return np.where(mask, weights, 0)
        counted = np.zeros(len(weights), dtype=np.int64)
        sel = np.flatnonzero(mask)
        cpus, weights = cpus[sel], weights[sel]
        carry = np.asarray(self.carry, dtype=np.int64)
        run = running_counts(cpus, weights, carry[cpus])
        prior = run - weights
        counted[sel] = run // rate - prior // rate
        if before is not None:
            before[sel] = prior % rate
        # Each CPU's carry is its last record's remainder.
        last_cpus, last = last_index(cpus)
        carry[last_cpus] = run[last] % rate
        self.carry[:] = carry.tolist()
        return counted


@dataclass
class HotPageEvent:
    """A page whose counter crossed the trigger threshold."""

    page: int
    cpu: int               # the CPU whose counter triggered
    count: int             # counter value at trigger time
    process: int = -1      # process running on the CPU at trigger time


@dataclass
class HotBatch:
    """A pager interrupt: several hot pages delivered together."""

    cpu: int                           # CPU taking the interrupt
    events: List[HotPageEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)


class DirectoryArray:
    """Machine-wide hot-page detection built on the counter bank.

    ``locator`` maps (page, cpu) to the node the CPU's mapping of the page
    currently resides on; the directory only raises interrupts for misses
    that are remote to the triggering CPU (a local hot page needs no
    action, as in the paper's decision tree node 1).
    """

    def __init__(
        self,
        n_cpus: int,
        trigger_threshold: int = 128,
        sampling_rate: int = 1,
        batch_pages: int = 4,
        tracer=None,
    ) -> None:
        if trigger_threshold <= 0:
            raise ConfigurationError("trigger threshold must be positive")
        if batch_pages <= 0:
            raise ConfigurationError("batch size must be positive")
        self.bank = MissCounterBank(n_cpus)
        self.sampler = SamplingAccumulator(n_cpus, sampling_rate)
        self.trigger_threshold = trigger_threshold
        self.batch_pages = batch_pages
        self.tracer = as_tracer(tracer)
        self._pending: Dict[int, List[HotPageEvent]] = {}
        self._armed: Dict[int, bool] = {}
        self.triggers = 0
        self.sampled_misses = 0
        self.offered_misses = 0

    def register_metrics(self, registry) -> None:
        """Expose the controller's counters under ``machine.directory``."""
        registry.register_callback(
            "machine.directory.triggers", lambda: self.triggers
        )
        registry.register_callback(
            "machine.directory.offered_misses", lambda: self.offered_misses
        )
        registry.register_callback(
            "machine.directory.sampled_misses", lambda: self.sampled_misses
        )
        registry.register_callback(
            "machine.directory.interval_resets", lambda: self.bank.resets
        )
        registry.register_callback(
            "machine.directory.tracked_pages", lambda: self.bank.tracked_pages
        )
        registry.register_callback(
            "machine.directory.trigger_threshold",
            lambda: self.trigger_threshold,
        )

    def observe(
        self,
        page: int,
        cpu: int,
        is_write: bool,
        weight: int = 1,
        is_local: bool = False,
        process: int = -1,
        now_ns: int = 0,
    ) -> Optional[HotBatch]:
        """Count a miss; return a full interrupt batch when one is ready.

        ``is_local`` tells the controller whether the missing CPU's copy of
        the page is already in its local memory; local hot pages need no
        pager attention (decision-tree node 1).
        """
        self.offered_misses += weight
        counted = self.sampler.sample(cpu, weight)
        if counted == 0:
            return None
        self.sampled_misses += counted
        count = self.bank.record(page, cpu, counted, is_write)
        if count < self.trigger_threshold:
            return None
        if self._armed.get(page):
            return None  # already queued for the pager this interval
        if is_local:
            return None  # hot but already local: nothing to gain
        self._armed[page] = True
        self.triggers += 1
        if self.tracer.active:
            self.tracer.emit(
                HotPageTriggered(
                    t=now_ns,
                    page=page,
                    cpu=cpu,
                    count=count,
                    threshold=self.trigger_threshold,
                )
            )
        pending = self._pending.setdefault(cpu, [])
        pending.append(
            HotPageEvent(page=page, cpu=cpu, count=count, process=process)
        )
        if len(pending) >= self.batch_pages:
            return self._make_batch(cpu)
        return None

    def latch(self, page: int) -> None:
        """Keep ``page`` armed (no re-interrupt) until the next reset.

        The pager calls this after a no-action decision so a page the tree
        rejected (e.g. write-shared) doesn't interrupt again every miss.
        """
        self._armed[page] = True

    def _make_batch(self, cpu: int) -> HotBatch:
        events = self._pending.pop(cpu, [])
        for event in events:
            self._armed.pop(event.page, None)
        return HotBatch(cpu=cpu, events=events)

    def drain(self) -> List[HotBatch]:
        """Flush all partially filled batches (end of interval / of run)."""
        batches = [self._make_batch(cpu) for cpu in sorted(self._pending)]
        return [b for b in batches if len(b)]

    def interval_reset(self) -> None:
        """Reset-interval expiry: clear counters and pending state."""
        self.bank.reset()
        self._pending.clear()
        self._armed.clear()

    def acted_on(self, page: int) -> None:
        """Pager handled ``page``; restart its counting afresh."""
        self.bank.clear_page(page)
        self._armed.pop(page, None)


def counter_space_overhead(
    n_nodes: int,
    counter_bytes: int = 1,
    page_size: int = PAGE_SIZE,
    grouped_cpus: int = 1,
) -> float:
    """Fractional memory overhead of the per-page per-CPU counters.

    Reproduces the arithmetic of Section 7.2.1: one counter per processor
    per page (optionally shared across groups of ``grouped_cpus``
    processors, or halved to ``counter_bytes=0.5`` under sampling).

    >>> round(counter_space_overhead(8) * 100, 1)          # 8 nodes
    0.2
    >>> round(counter_space_overhead(128) * 100, 1)        # 128 nodes
    3.1
    >>> round(counter_space_overhead(128, 0.5) * 100, 1)   # sampled, half-size
    1.6
    """
    if n_nodes <= 0 or grouped_cpus <= 0:
        raise ConfigurationError("node and group counts must be positive")
    counters_per_page = -(-n_nodes // grouped_cpus)
    return counters_per_page * counter_bytes / page_size
