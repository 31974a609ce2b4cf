"""The full-system replay in columnar segments.

:class:`~repro.sim.simulator.SystemSimulator` replays its trace through
:class:`SegmentReplay`.  Placement is a pure function of VM and pager
state, and that state changes only at a few records, which cut the
trace into segments:

* a pending pager batch falls due (the first record at or past its due
  time drains it);
* a reset boundary is reached;
* a user write hits a replicated page (the collapse path);
* a trigger crossing fills a CPU's batch whose due time falls inside
  the segment (the segment ends before the record that drains it);
* a first touch finds the machine out of frames (it reclaims replicas
  of other pages): it is alone in its segment, so the records after it
  are placed and screened for triggers on the mappings it left.

Within a segment every (process, page) maps to one node, so each
record's node, the directory's sampled weights and counter sums and
the stall tallies are numpy columns.  Work with side effects stays
scalar and goes through each layer's own entry point: records whose
(page, CPU) count has reached the trigger (``DirectoryArray.observe``,
which owns arming and batching), due batches
(``PagerHandler.handle_batch``) and collapses
(``CollapseHandler.handle_write_fault``), in record order.  First
touches go to ``VmSystem.fault`` as runs, usually one per segment,
which records their pages without building objects.  A fault sees
only its own page's master, which no record inside a segment moves,
and ``observe`` only its own record's mapping, so a segment's first
touches may run after its observes, but not after a batch one of them
raised: a run takes only the first touches no such batch can precede
(see :meth:`SegmentReplay._scalar`).  Memory contention does not
feed back into placement, so runs longer than a segment go to
``NumaMemorySystem.service_miss`` at once.

The result and the event log are byte-identical to the per-record
loop of :class:`~repro.sim.simulator.ReferenceSystemSimulator`:

* The float stall tallies are folded left to right with ``cumsum``
  seeded with the running value (a pairwise ``sum`` would change bits).
* Sampling applies the per-CPU carries as running counts per CPU
  (:meth:`~repro.machine.directory.SamplingAccumulator.sample_many`);
  an observed record's carry is set to its value before the record.
* Each counted record's (page, CPU) count is a running count seeded
  with the pair's count at the segment start
  (:func:`repro.common.folds.running_counts`).  The count only grows
  inside a segment, so the records that reach the trigger from their
  first crossing on are a suffix of the pair's counted records.  Those
  not mapped locally go through ``observe`` (a local one cannot
  trigger), with the bank first brought up to the pair's count before
  the record.  Every other count waits in the engine's mirrors and
  reaches the bank before anything reads the page's counters.  A batch
  that fills un-arms its pages while their counts stay at or above the
  trigger, so the pair's next remote record re-triggers, as in the
  reference.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Optional

import numpy as np

from repro.common.folds import last_index, node_column, running_counts
from repro.obs.batch import BatchEmitter
from repro.obs.events import HotPageTriggered, MissServiced, RunMeta
from repro.trace.record import FLAG_INSTR, FLAG_KERNEL, FLAG_WRITE

#: Records read into numpy columns at a time, so the columns' memory is
#: bounded by the chunk, not the trace; a chunk end is also a cut.
CHUNK_RECORDS = 8192

#: Same-index order of a segment's buffered events: a record's miss,
#: then the hot-page trigger its ``observe`` raised.
_SEGMENT_PHASES = {MissServiced.KIND: 0, HotPageTriggered.KIND: 1}


class SegmentReplay:
    """One run's replay state; :meth:`run` walks the trace."""

    def __init__(
        self, sim, trace, vm, memory, directory, accounting, last_cpu,
        pager, collapser, result, adaptive, pending, round_robin: bool,
    ) -> None:
        machine, params, options = sim.machine, sim.params, sim.options
        self.sim, self.trace = sim, trace
        self.vm, self.memory, self.directory = vm, memory, directory
        self.accounting, self.last_cpu = accounting, last_cpu
        self.pager, self.collapser = pager, collapser
        self.result, self.adaptive, self.pending = result, adaptive, pending
        self.round_robin = round_robin
        self.dynamic = options.dynamic
        self.pager_delay = options.pager_delay_ns
        self.reset_ns = params.reset_interval_ns
        self.n_nodes, self.n_cpus = machine.n_nodes, machine.n_cpus
        self.node_of = node_column(machine.n_cpus, machine.node_of_cpu)

        # Placement mirrors, indexed by page: the node of each process's
        # mapping (-1 while unmapped), of each kernel page, and whether
        # the page has replicas.  Page ids index them directly unless
        # they are sparse, when a sorted table of the ids does.
        n = len(trace)
        top = int(trace.page.max()) + 1 if n else 0
        self.page_ids: Optional[np.ndarray] = None
        if top > 4 * n + 4096:
            self.page_ids = np.unique(trace.page)
            top = len(self.page_ids)
        self.pids = np.unique(trace.process)
        self.row_of: Dict[int, int] = {
            pid: row for row, pid in enumerate(self.pids.tolist())
        }
        self.node_map = np.full((len(self.pids), top), -1, dtype=np.int16)
        self.kernel_node = np.full(top, -1, dtype=np.int16)
        self.replicated = np.zeros(top, dtype=bool)
        self.n_replicated = 0

        # Directory mirrors: each (page, CPU) pair's count since the
        # page's last clear, keyed ``page * n_cpus + cpu``, and each
        # page's counted write weight.  The bank catches up with them
        # (:meth:`_settle_page`) before anything reads a page's counters.
        self.count = np.zeros(top * self.n_cpus, dtype=np.int64)
        self.owed_writes = np.zeros(top, dtype=np.int64)
        self.touched: list = []         # keys counted since the last reset

        # Stall tallies, in StallBreakdown field order.
        self.stall_ns = [0.0] * 6
        self.local_misses = self.remote_misses = 0

        self.pending_seq = itertools.count()
        self.next_reset = self.reset_ns
        self.marks = (0.0, 0, 0)
        self.interval_index = 0
        self.synced = 0                 # records before this are in last_cpu

        tracer = sim.tracer
        self.emitter: Optional[BatchEmitter] = None
        if tracer.wants(MissServiced.KIND):
            self.emitter = BatchEmitter(tracer, _SEGMENT_PHASES)

    # -- the run ---------------------------------------------------------------

    def run(self) -> None:
        """Replay every record, then fold the tallies into the result."""
        sim, directory = self.sim, self.directory
        if sim.tracer.wants(RunMeta.KIND):
            sim._emit_run_meta()
        tracer = directory.tracer
        if self.emitter is not None:
            # Hot-page triggers wait in the buffer for their miss events.
            directory.tracer = self.emitter
        try:
            for start in range(0, len(self.trace), CHUNK_RECORDS):
                self._chunk(start, min(start + CHUNK_RECORDS, len(self.trace)))
        finally:
            directory.tracer = tracer
        self._settle_touched()
        stall = self.result.stall
        (stall.kernel_instr_ns, stall.kernel_data_ns, stall.user_instr_ns,
         stall.user_data_ns, stall.local_ns, stall.remote_ns) = self.stall_ns
        stall.local_misses = self.local_misses
        stall.remote_misses = self.remote_misses

    def _chunk(self, start: int, stop: int) -> None:
        trace = self.trace
        span = slice(start, stop)
        self.base = start
        self.t = trace.time_ns[span]
        self.cpu = trace.cpu[span].astype(np.int64)
        self.pid = trace.process[span]
        self.page = trace.page[span]
        self.pidx = (self.page if self.page_ids is None
                     else np.searchsorted(self.page_ids, self.page))
        self.row = np.searchsorted(self.pids, self.pid)
        self.w = trace.weight[span]
        flags = trace.flags[span]
        self.kern = (flags & FLAG_KERNEL) != 0
        self.user = ~self.kern
        self.instr = (flags & FLAG_INSTR) != 0
        self.user_write = self.user & ((flags & FLAG_WRITE) != 0)
        self.cnode = self.node_of[self.cpu]
        self.key = self.pidx * self.n_cpus + self.cpu
        # What the scalar records read, gathered in one fancy index.
        self.fields = np.stack([self.t, self.cpu, self.pid, self.page,
                                self.cnode, self.row, self.pidx, self.w,
                                self.user_write])
        n = stop - start
        self.lat = np.empty(n)
        self.remote = np.empty(n, dtype=bool)
        self.pair = np.empty(n, dtype=np.int64)
        self.charged = 0                # records before this are charged
        self._place_kernel_pages()
        sampler = self.directory.sampler
        if self.dynamic:
            self.carry_before = np.zeros(n, dtype=np.int64)
            self.counted = sampler.sample_many(
                self.cpu, self.w, self.user, before=self.carry_before
            )
            carry_after = list(sampler.carry)
        i = 0
        while i < n:
            self._head(i)
            i = self._segment(i, self._tentative_end(i))
        if self.dynamic:
            sampler.carry[:] = carry_after
        self._sync_last_cpu(n - 1)
        self._charge(n)
        self._fold_stalls()

    def _place_kernel_pages(self) -> None:
        """Kernel pages: first-touch placement, never movable."""
        at = np.flatnonzero(self.kern)
        if not len(at):
            return
        new = self.kernel_node[self.pidx[at]] < 0
        if not new.any():
            return
        at = at[new]
        pages, first = np.unique(self.pidx[at], return_index=True)
        at = at[first]
        self.kernel_node[pages] = (
            self.page[at] % self.n_nodes if self.round_robin
            else self.cnode[at]
        )

    # -- cuts ------------------------------------------------------------------

    def _head(self, i: int) -> None:
        """The scalar work at the start of record ``i``, in reference order."""
        t = int(self.t[i])
        pending = self.pending
        if (pending and pending[0][0] <= t) or t >= self.next_reset:
            self._sync_last_cpu(i)
            # Pager interrupts whose dispatch delay has elapsed; each is
            # serviced at its own due time.
            while pending and pending[0][0] <= t:
                due, _, batch = heapq.heappop(pending)
                self._handle_batch(due, batch)
            if t >= self.next_reset:
                self._end_interval(i, t)
        if (self.n_replicated and self.user_write[i]
                and self.replicated[self.pidx[i]]):
            self._sync_last_cpu(i)
            if self.node_map[self.row[i], self.pidx[i]] < 0:
                self._fault(np.arange(i, i + 1))
            page = int(self.page[i])
            self._settle_page(page)
            self.collapser.handle_write_fault(t, page, int(self.cpu[i]))
            self._refresh(page)
            self._reload_counts(page)

    def _end_interval(self, i: int, t: int) -> None:
        # The interval's misses are counted before it ends, and its
        # tracked pages before the reset event reports them.
        self._charge(i)
        if self.sim.tracer.active:
            self._settle_touched()
        self.marks = self.sim._end_interval(
            t, self.interval_index, self.marks, self.memory,
            self.directory, self.accounting, self.pager,
            self.adaptive, self.pending, self._handle_batch,
        )
        self.interval_index += 1
        while self.next_reset <= t:
            self.next_reset += self.reset_ns
        if self.touched:
            keys = np.concatenate(self.touched)
            self.count[keys] = 0
            self.owed_writes[keys // self.n_cpus] = 0
            self.touched.clear()

    def _tentative_end(self, i: int) -> int:
        """End of the segment from ``i`` unless a batch or fault cuts it."""
        t = self.t
        end = int(np.searchsorted(t, self.next_reset))
        if self.pending:
            end = min(end, int(np.searchsorted(t, self.pending[0][0])))
        if self.n_replicated and end > i + 1:
            after = i + 1
            hit = np.flatnonzero(
                self.user_write[after:end]
                & self.replicated[self.pidx[after:end]]
            )
            if len(hit):
                end = after + int(hit[0])
        return end

    def _handle_batch(self, due: int, batch) -> None:
        for event in batch.events:
            self._settle_page(event.page)
        self.pager.handle_batch(due, batch)
        for event in batch.events:
            self._refresh(event.page)
            self._reload_counts(event.page)

    def _sync_last_cpu(self, i: int) -> None:
        """Bring ``last_cpu`` up to record ``i`` (included)."""
        a, b = self.synced - self.base, i + 1
        if b <= a:
            return
        pids, last = last_index(self.pid[a:b])
        self.last_cpu.update(zip(pids.tolist(), self.cpu[a + last].tolist()))
        self.synced = self.base + b

    # -- placement mirrors -------------------------------------------------------

    def _index(self, page: int) -> int:
        if self.page_ids is None:
            return page
        return int(np.searchsorted(self.page_ids, page))

    def _refresh(self, page: int) -> None:
        """Re-read ``page``'s mappings after the kernel acted on it."""
        master = self.vm.master_of(page)
        if master is None:
            return
        index = self._index(page)
        node_map, row_of = self.node_map, self.row_of
        for copy in master.all_copies():
            for pte in copy.ptes:
                node_map[row_of[pte.process], index] = copy.node
        replicated = master.has_replicas
        if replicated != self.replicated[index]:
            self.replicated[index] = replicated
            self.n_replicated += 1 if replicated else -1

    def _settle_page(self, page: int) -> None:
        """Bring the bank's counters of ``page`` up to the mirrors."""
        index, n_cpus = self._index(page), self.n_cpus
        want = self.count[index * n_cpus:(index + 1) * n_cpus]
        writes = int(self.owed_writes[index])
        if not (writes or want.any()):
            return
        bank = self.directory.bank
        counters = bank.get(page)
        have = counters.miss if counters is not None else [0] * n_cpus
        for cpu, (count, had) in enumerate(zip(want.tolist(), have)):
            if count != had:
                bank.record(page, cpu, count - had, False)
        if writes:
            bank.add_writes(page, writes)
            self.owed_writes[index] = 0

    def _settle_touched(self) -> None:
        """:meth:`_settle_page` every page counted since the last reset."""
        if not self.touched:
            return
        pages = np.unique(np.concatenate(self.touched) // self.n_cpus)
        if self.page_ids is not None:
            pages = self.page_ids[pages]
        for page in pages.tolist():
            self._settle_page(page)

    def _reload_counts(self, page: int) -> None:
        """Mirror ``page``'s counters after the kernel acted on them."""
        index, n_cpus = self._index(page), self.n_cpus
        counters = self.directory.bank.get(page)
        self.count[index * n_cpus:(index + 1) * n_cpus] = (
            counters.miss if counters is not None else 0
        )

    def _fault(self, at: np.ndarray) -> None:
        """The first touches of records ``at``, in order, as one fault run.

        Out of frames, a first touch reclaims replicas of other pages,
        whose mappings are then re-read.
        """
        vm = self.vm
        page = self.page[at]
        preferred = page % self.n_nodes if self.round_robin else self.cnode[at]
        reclaimed = vm.stats.replicas_reclaimed
        self.node_map[self.row[at], self.pidx[at]] = vm.fault(
            self.pid[at].tolist(), page.tolist(), preferred.tolist()
        )
        if vm.stats.replicas_reclaimed != reclaimed:
            self._refresh_all()

    def _free_frames(self) -> int:
        allocator = self.vm.allocator
        return sum(allocator.free_frames(node) for node in range(self.n_nodes))

    def _refresh_all(self) -> None:
        """Out of frames, a fault reclaimed replicas of other pages."""
        for master in list(self.vm.hash_table):
            self._refresh(master.logical_page)

    # -- one segment -------------------------------------------------------------

    def _segment(self, s: int, e: int) -> int:
        """Replay records ``[s, e)`` or a prefix of them; return the cut."""
        row, pidx = self.row[s:e], self.pidx[s:e]
        mapped = self.node_map[row, pidx]
        faults = np.zeros(0, dtype=np.int64)
        unmapped = self.user[s:e] & (mapped < 0)
        if unmapped.any():
            at = np.flatnonzero(unmapped)
            _, first = np.unique(
                row[at] * self.node_map.shape[1] + pidx[at], return_index=True
            )
            faults = s + np.sort(at[first])
        pairs = self._pairs(s, e, mapped) if self.dynamic else None
        if len(faults) or (pairs is not None and len(pairs.cand_at)):
            e = self._scalar(s, e, faults, pairs)
            if len(faults):
                mapped = self.node_map[row[:e - s], pidx[:e - s]]
        n = e - s
        kern, cnode = self.kern[s:e], self.cnode[s:e]
        node = np.where(kern, self.kernel_node[pidx[:n]], mapped[:n]).astype(
            np.int64
        )
        self.remote[s:e] = cnode != node
        self.pair[s:e] = cnode * self.n_nodes + node
        if self.dynamic:
            self._settle_counts(s, e, pairs)
        if self.emitter is not None:
            self._charge(e)
            self._emit_misses(s, e, node)
        return e

    def _pairs(self, s: int, e: int, mapped: np.ndarray) -> Optional["_Pairs"]:
        """``[s, e)``'s counted records and those that may trigger.

        A record may trigger when its (page, CPU) count reaches the
        trigger and its mapping is not local at the segment start (an
        unmapped one is faulted first, so it may be remote).
        """
        counted = self.counted[s:e]
        at = np.flatnonzero(counted)
        if not len(at):
            return None
        keys, weight = self.key[s + at], counted[at]
        start = self.count[keys]
        trigger = self.directory.trigger_threshold
        cand_at = want = np.zeros(0, dtype=np.int64)
        if start.max() + weight.sum() >= trigger:
            reach = running_counts(keys, weight, start)
            hit = np.flatnonzero(
                (reach >= trigger) & (mapped[at] != self.cnode[s + at])
            )
            cand_at, want = s + at[hit], (reach - weight)[hit]
        return _Pairs(at, keys, weight, cand_at, want)

    def _scalar(self, s: int, e: int, faults: np.ndarray, pairs) -> int:
        """First touches and trigger candidates of ``[s, e)`` in order.

        Returns the cut, which a due time or a fault can pull in.  The
        first touches before the cut go to the VM as one run, after the
        candidates: no record of a segment acts on the VM or the pager,
        and ``observe`` reads only its own record's mapping.  A
        candidate whose mapping is first touched in this segment needs
        its fault made first, together with every first touch that no
        batch raised from there on can precede.
        """
        e = self._fault_cut(s, e, faults)
        done = 0                        # faults[:done] are made
        if pairs is not None and len(pairs.cand_at):
            at = pairs.cand_at
            t, cpu, pid, page, cnode, row, pidx, weight, write = (
                self.fields[:, at].tolist()
            )
            node_map, want = self.node_map, pairs.want.tolist()
            directory = self.directory
            observe, bank = directory.observe, directory.bank
            record, get = bank.record, bank.get
            carry, emitter = directory.sampler.carry, self.emitter
            carry_before = self.carry_before[at].tolist()
            pending, times, delay = self.pending, self.t, self.pager_delay
            for k, j in enumerate(at.tolist()):
                if j >= e:
                    break
                if node_map[row[k], pidx[k]] < 0:
                    # A batch raised from here on drains a pager delay
                    # after this record at the earliest, and after it.
                    ahead = max(int(np.searchsorted(times, t[k] + delay)),
                                j + 1)
                    done = self._fault_before(faults, done, min(ahead, e))
                c = cpu[k]
                # The pair's counts before this record reach the bank first.
                count = want[k]
                counters = get(page[k])
                had = counters.miss[c] if counters is not None else 0
                if count != had:
                    record(page[k], c, count - had, False)
                carry[c] = carry_before[k]
                if emitter is not None:
                    emitter.index = j
                batch = observe(
                    page[k], c, write[k], weight[k],
                    is_local=int(node_map[row[k], pidx[k]]) == cnode[k],
                    process=pid[k], now_ns=t[k],
                )
                if batch is not None:
                    # Small per-CPU skew so simultaneous interrupts from
                    # different CPUs do not serialise on memlock at the
                    # exact same instant.
                    due = t[k] + delay + (c * 997_001) % 4_000_000
                    heapq.heappush(
                        pending, (due, next(self.pending_seq), batch)
                    )
                    drain = max(int(np.searchsorted(times, due)), j + 1)
                    if drain < e:
                        e = drain
        self._fault_before(faults, done, e)
        return e

    def _fault_before(self, faults: np.ndarray, done: int, end: int) -> int:
        """Make ``faults[done:]`` before record ``end`` as one run.

        Returns how many faults are made.
        """
        stop = int(np.searchsorted(faults, end))
        if stop <= done:
            return done
        self._fault(faults[done:stop])
        return stop

    def _fault_cut(self, s: int, e: int, faults: np.ndarray) -> int:
        """``e``, or the first touch that finds the machine out of frames.

        That fault reclaims replicas of other pages, so it runs alone:
        the segment ends before it, or just after it when it is ``s``.
        """
        free = self._free_frames()
        if len(faults) <= free:
            return e
        vm, new = self.vm, set()
        for j, page in zip(faults.tolist(), self.page[faults].tolist()):
            if j >= e:
                break
            if page in new or vm.is_resident(page):
                continue
            if len(new) == free:
                return j if j > s else s + 1
            new.add(page)
        return e

    def _settle_counts(self, s: int, e: int, pairs) -> None:
        """Fold what ``observe`` did not see of ``[s, e)`` into the mirrors."""
        directory = self.directory
        offered = int(self.w[s:e][self.user[s:e]].sum())
        if pairs is None:
            directory.offered_misses += offered
            return
        live = int(np.searchsorted(pairs.at, e - s))
        keys, weight = pairs.keys[:live], pairs.weight[:live]
        at = s + pairs.at[:live]
        np.add.at(self.count, keys, weight)
        self.touched.append(keys)
        seen = np.zeros(live, dtype=bool)
        seen[np.searchsorted(at, pairs.cand_at[pairs.cand_at < e])] = True
        directory.offered_misses += offered - int(self.w[at[seen]].sum())
        directory.sampled_misses += int(weight[~seen].sum())
        writes = ~seen & self.user_write[at]
        if writes.any():
            np.add.at(self.owed_writes, self.pidx[at[writes]], weight[writes])

    # -- memory ------------------------------------------------------------------

    def _charge(self, e: int) -> None:
        """Service the records up to ``e`` in the memory system.

        Placement does not feed back into latency within a window, so
        records are charged in runs longer than segments: before a
        reset reads the miss counts, at the chunk's end, or per segment
        when their miss events are wanted.
        """
        s = self.charged
        if e > s:
            self.charged = e
            self.lat[s:e] = self.memory.service_miss(
                self.t[s:e], self.pair[s:e], self.w[s:e]
            )

    def _fold_stalls(self) -> None:
        """Fold the chunk's stalls into the tallies in record order."""
        stall = self.lat * self.w
        kern, instr, remote = self.kern, self.instr, self.remote
        masks = (kern & instr, kern & ~instr, ~kern & instr, ~kern & ~instr,
                 ~remote, remote)
        tallies = self.stall_ns
        for k, mask in enumerate(masks):
            part = stall[mask]
            if len(part):
                part[0] += tallies[k]
                tallies[k] = float(np.cumsum(part)[-1])
        self.remote_misses += int(self.w[remote].sum())
        self.local_misses += int(self.w[~remote].sum())

    def _emit_misses(self, s: int, e: int, node: np.ndarray) -> None:
        """Every record's miss event, then the segment's buffered events."""
        emitter = self.emitter
        rows = zip(
            self.t[s:e].tolist(), self.cpu[s:e].tolist(),
            self.page[s:e].tolist(), node.tolist(), self.w[s:e].tolist(),
            self.lat[s:e].tolist(), self.remote[s:e].tolist(),
            self.kern[s:e].tolist(),
        )
        for j, (t, cpu, page, where, weight, latency, remote, kernel) in (
            enumerate(rows, s)
        ):
            emitter.index = j
            emitter.emit(
                MissServiced(
                    t=t, cpu=cpu, page=page, node=where, weight=weight,
                    latency_ns=latency, remote=remote, kernel=kernel,
                )
            )
        emitter.flush()


class _Pairs:
    """A segment's counted records and its trigger candidates.

    ``at`` holds the counted records' offsets in the segment, ``keys``
    their (page, CPU) pairs and ``weight`` their counted weights;
    ``cand_at`` the records that go through ``observe`` and ``want``
    each one's pair count before it.
    """

    __slots__ = ("at", "keys", "weight", "cand_at", "want")

    def __init__(self, at, keys, weight, cand_at, want) -> None:
        self.at, self.keys, self.weight = at, keys, weight
        self.cand_at, self.want = cand_at, want
