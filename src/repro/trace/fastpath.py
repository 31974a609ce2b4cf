"""Vectorized segmented replay for the trace policy simulator.

The scalar core in :mod:`repro.trace.policysim` pays the interpreter on
every cache miss even though on most events the policy provably does
nothing: the page's counters cannot cross the trigger threshold this
reset interval, the page is not replicated, so the event's only effect
is a stall accumulation a numpy mask computes in bulk.

This engine exploits two structural facts of the replay semantics:

* **Resets are statically placed.**  An interval reset fires exactly
  when ``time_ns // reset_interval_ns`` increases, so the stream splits
  into per-interval segments before any state is simulated.
* **Cold pages are inert.**  Within a segment, a page can change the
  simulation state only if (a) some CPU's counted-miss sum for it
  reaches the trigger threshold *and* that CPU is remote to the page's
  segment-start placement (local crossings are no-ops in the scalar
  core), (b) it is replicated at segment start and the cost stream
  writes to it (collapse), or (c) it is still armed from an earlier
  chunk of the same interval.  Everything else — the vast majority —
  keeps a constant placement, so its stall, locality and totals reduce
  to masked sums over a per-page bitmask of nodes holding copies.

Only the *hot-candidate* pages' events are replayed through a scalar
sub-loop that shares the pager-action state machine
(``policysim._pager_act``) with the reference engine.  Sampling is
reproduced exactly: the per-CPU remainder carries of
:class:`~repro.machine.directory.SamplingAccumulator` are applied
vectorially (``counted_i = (carry + csum_i)//rate - (carry +
csum_{i-1})//rate``), so every event's surviving weight matches the
scalar engine's record for record.

Byte-identity of the floating-point fields falls out of integer
arithmetic: every stall/overhead addend is an integer (weight x
latency), and all partial sums stay far below 2**53, where float64
addition is exact — so bulk sums reproduce the scalar engine's
per-event float accumulation bit for bit, in any order.

The public entry points are :func:`replay_dynamic_vector` (whole
trace, optional merged TLB driver stream), :func:`replay_stream_vector`
(streamed column batches: trace chunks or the TLB-driver merge of
:func:`repro.trace.tlbsim.merged_tlb_stream`; intervals spanning a
batch boundary carry bank/armed/pending state across, with cold counter
sums written back to the bank in batch) and
:func:`replay_competitive_vector` (the [BGW89] competitive baseline).
Results — the full :class:`~repro.trace.policysim.PolicySimResult`,
including ``extra["local_stall_ns"]`` — are byte-identical to the
scalar engine; the differential suites in
``tests/trace/test_fastpath.py`` and
``tests/integration/test_engine_identity.py`` enforce it.

An active tracer composes with the engine through
:class:`repro.obs.batch.BatchEmitter`: emissions are buffered with
their global stream index and flushed in scalar order at every interval
reset, so traced vector runs produce the *same event sequence* as the
scalar core.  Deferred pager actions are emitted at the index of the
record the scalar core would drain them on (the first record whose
timestamp reaches the due time); between that record and the point the
vector engine actually executes the action only cold events can occur
(a hot event at or past the due time would have drained it), and cold
events never touch a candidate page's state — so the emitted decision
contents match the scalar core's exactly, not just their order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

import numpy as np

from repro.common.errors import TraceError
from repro.machine.directory import MissCounterBank
from repro.obs.batch import DATA_REPLAY_PHASES, BatchEmitter
from repro.obs.events import (
    CollapseEvent,
    HotPageTriggered,
    IntervalReset,
    MissServiced,
)


class _VectorEngine:
    """Segmented replay state, shared by whole-trace and chunked modes."""

    def __init__(
        self,
        config,
        params,
        result,
        sampling_rate: int,
        placement: Optional[np.ndarray] = None,
        initial_kind: Optional[str] = None,
        tracer=None,
    ) -> None:
        # Imported here (not at module top) because policysim imports
        # this module at load time.
        from repro.trace.policysim import _pager_act

        self._pager_act = _pager_act
        self.params = params
        self.result = result
        self.rate = sampling_rate
        self.n_cpus = config.n_cpus
        self.n_nodes = config.n_nodes
        self.node_list = [config.node_of_cpu(c) for c in range(config.n_cpus)]
        self.node_arr = np.asarray(self.node_list, dtype=np.int64)
        self.local_ns = config.local_ns
        self.remote_ns = config.remote_ns
        self.op_cost = config.op_cost_ns
        self.delay = config.decision_delay_ns
        self.interval = params.reset_interval_ns
        self.trigger = params.trigger_threshold

        self.bank = MissCounterBank(config.n_cpus)
        self.armed: Set[int] = set()
        self.pending: deque = deque()  # (due_time, page, cpu)
        self.copies: Dict[int, Set[int]] = {}   # materialized candidate sets
        self._dirty: Set[int] = set()           # sets newer than their mask
        self._cold_tracked: Set[int] = set()    # traced-only cold page count
        self.carry = [0] * config.n_cpus        # sampling remainders per CPU
        self.cur_iid = 0
        self.local_stall = 0.0

        # Batched emission: buffered with global stream indices, flushed
        # in scalar order at every interval reset (see repro.obs.batch).
        if tracer is not None and tracer.active:
            self.em: Optional[BatchEmitter] = BatchEmitter(
                tracer, DATA_REPLAY_PHASES
            )
            self.emit_miss = tracer.wants(MissServiced.KIND)
        else:
            self.em = None
            self.emit_miss = False
        self.gpos = 0               # global index of the next record
        self.interval_index = 0
        self._seg_times = None      # current segment's times (drain keys)
        self._seg_gstart = 0

        if placement is not None:
            # Whole-trace mode: the initial placement array covers every
            # page, so first-touch initialisation is already folded in.
            self.masks = np.int64(1) << placement.astype(np.int64)
            self.touched = None
        else:
            # Streaming mode: pages appear incrementally.
            self.masks = np.zeros(0, dtype=np.int64)
            self.touched = np.zeros(0, dtype=bool)
        self.initial_kind = initial_kind        # "ft" | "rr" | None
        self._flag = np.zeros(len(self.masks), dtype=bool)

    # -- page table growth / first touch --------------------------------------

    def _ensure_pages(self, max_page: int) -> None:
        n = len(self.masks)
        if max_page < n:
            return
        grown = max(max_page + 1, 2 * n, 1024)
        self.masks = np.concatenate(
            [self.masks, np.zeros(grown - n, dtype=np.int64)]
        )
        self._flag = np.zeros(grown, dtype=bool)
        if self.touched is not None:
            self.touched = np.concatenate(
                [self.touched, np.zeros(grown - n, dtype=bool)]
            )

    def _first_touch(self, pages: np.ndarray, cpus: np.ndarray) -> None:
        """Set initial placements for pages this batch touches first.

        Count-only driver events first-touch pages too in the scalar
        engine, so this runs over *all* events of a batch.  Setting a
        placement before the page's first event is processed is
        harmless: nothing reads an untouched page's mask.
        """
        if self.touched is None or not len(pages):
            return
        self._ensure_pages(int(pages.max()))
        first_pages, first_idx = np.unique(pages, return_index=True)
        new = ~self.touched[first_pages]
        new_pages = first_pages[new]
        if not len(new_pages):
            return
        if self.initial_kind == "ft":
            nodes = self.node_arr[cpus[first_idx[new]]]
        else:  # round-robin
            nodes = new_pages % self.n_nodes
        self.masks[new_pages] = np.int64(1) << nodes
        self.touched[new_pages] = True

    # -- exact vectorized sampling ---------------------------------------------

    def _counted(self, cpus, weights, cntmask) -> np.ndarray:
        """Per-event weights surviving 1-in-N sampling, carries applied."""
        if self.rate == 1:
            return np.where(cntmask, weights, 0)
        out = np.zeros(len(weights), dtype=np.int64)
        rate = self.rate
        for cpu in range(self.n_cpus):
            sel = cntmask & (cpus == cpu)
            if not sel.any():
                continue
            w = weights[sel]
            tot = (self.carry[cpu] + np.cumsum(w)) // rate
            counted = np.empty(len(w), dtype=np.int64)
            counted[0] = tot[0]          # carry//rate == 0 (carry < rate)
            counted[1:] = tot[1:] - tot[:-1]
            out[sel] = counted
            self.carry[cpu] = (self.carry[cpu] + int(w.sum())) % rate
        return out

    # -- feeding events --------------------------------------------------------

    def run_batch(
        self, times, cpus, pages, weights, iswrite, costmask, cntmask,
        streaming: bool,
    ) -> None:
        """Process one time-ordered batch (a whole trace or one chunk).

        With ``streaming=True`` the interval containing the batch's last
        event may continue into the next batch, so that segment's cold
        counter sums are written back to the bank.
        """
        n = len(times)
        if n == 0:
            return
        counted = self._counted(cpus, weights, cntmask)
        self._first_touch(pages, cpus)
        iids = times // self.interval
        change = np.flatnonzero(iids[1:] != iids[:-1]) + 1
        bounds = [0, *change.tolist(), n]
        last = len(bounds) - 2
        for si in range(len(bounds) - 1):
            s, e = bounds[si], bounds[si + 1]
            iid = int(iids[s])
            if iid != self.cur_iid:
                self._interval_reset(self.gpos + s, int(times[s]))
                self.cur_iid = iid
            self._process_segment(
                times[s:e], cpus[s:e], pages[s:e], weights[s:e],
                iswrite[s:e], costmask[s:e], counted[s:e],
                gstart=self.gpos + s,
                writeback=streaming and si == last,
            )
        self.gpos += n

    def finish(self) -> None:
        """Flush in-flight pager interrupts and finalise the result."""
        # Remaining interrupts fall due after the last record; the scalar
        # core drains them after its loop, so they sort last (``gpos``).
        self._flush_pending(self.gpos, None)
        if self.em is not None:
            self.em.flush()
        self.result.extra["local_stall_ns"] = self.local_stall

    # -- interval machinery ----------------------------------------------------

    def _flush_pending(self, at_gidx: int = 0, at_time=None) -> None:
        pending = self.pending
        act = self._act
        dirty = self._dirty
        em = self.em
        if em is None:
            while pending:
                due, page, cpu = pending.popleft()
                dirty.add(page)
                act(due, page, cpu)
            return
        # Traced: entries already due at the flush record drain there
        # (phase 0, like any drained action); entries flushed before
        # falling due sort after them (phase 1), before the reset event.
        while pending:
            due, page, cpu = pending.popleft()
            dirty.add(page)
            em.index = at_gidx
            em.phase = 0 if (at_time is None or due <= at_time) else 1
            act(due, page, cpu)
        em.phase = None

    def _interval_reset(self, reset_gidx: int, reset_time: int) -> None:
        # Flush in-flight interrupts against pre-reset counters, write
        # any placement changes back to the masks, then start afresh.
        self._flush_pending(reset_gidx, reset_time)
        self._writeback_dirty()
        em = self.em
        if em is not None:
            # Cold pages counted only by the set-aside (see the traced
            # branch of step 4) join the bank's own page count; a page
            # can sit in both when an interval spans a chunk boundary.
            bank_get = self.bank.get
            tracked = self.bank.tracked_pages + sum(
                1 for p in self._cold_tracked if bank_get(p) is None
            )
            em.index = reset_gidx
            em.phase = None
            em.emit(
                IntervalReset(
                    t=reset_time,
                    index=self.interval_index,
                    tracked_pages=tracked,
                    triggers=self.result.hot_events,
                )
            )
        self.interval_index += 1
        self.bank.reset()
        self._cold_tracked.clear()
        self.armed.clear()
        if em is not None:
            em.flush()

    def _act(self, now: int, page: int, cpu: int) -> None:
        em = self.em
        self._pager_act(
            now, page, cpu, self.copies, self.bank, self.armed,
            self.result, self.params, self.node_list, self.op_cost,
            em, em is not None,
        )

    def _writeback_dirty(self) -> None:
        masks = self.masks
        copies = self.copies
        for page in self._dirty:
            mask = 0
            for node in copies[page]:
                mask |= 1 << node
            masks[page] = mask
        self._dirty.clear()

    @staticmethod
    def _set_from_mask(mask: int) -> Set[int]:
        nodes = set()
        node = 0
        while mask:
            if mask & 1:
                nodes.add(node)
            mask >>= 1
            node += 1
        return nodes

    def _bank_carries(self, upages, ucpus) -> np.ndarray:
        """Segment-start counter values for (page, cpu) pairs.

        ``upages`` arrives page-major sorted (it comes from a unique over
        ``page * n_cpus + cpu`` keys), so one bank lookup serves each
        page's run of pairs.
        """
        out = np.zeros(len(upages), dtype=np.float64)
        get = self.bank.get
        last_page, counters = -1, None
        up = upages.tolist()
        uc = ucpus.tolist()
        for k in range(len(up)):
            page = up[k]
            if page != last_page:
                counters = get(page)
                last_page = page
            if counters is not None:
                out[k] = counters.miss[uc[k]]
        return out

    # -- one segment (a run of events inside one interval) ---------------------

    def _process_segment(
        self, times, cpus, pages, weights, iswrite, costmask, counted,
        gstart: int, writeback: bool,
    ) -> None:
        result = self.result
        masks = self.masks
        n_cpus = self.n_cpus
        em = self.em

        # 1. Hot-candidate detection.
        rec = counted > 0
        kpages = pages[rec]
        have_pairs = len(kpages) > 0
        if have_pairs:
            keys = kpages * n_cpus + cpus[rec]
            u, inv = np.unique(keys, return_inverse=True)
            sums = np.bincount(inv, weights=counted[rec])
            upages = u // n_cpus
            ucpus = u % n_cpus
            if self.bank.tracked_pages:
                carries = self._bank_carries(upages, ucpus)
            else:
                carries = 0.0
            crossing = (carries + sums) >= self.trigger
            remote = ((masks[upages] >> self.node_arr[ucpus]) & 1) == 0
            cand_parts = [upages[crossing & remote]]
        else:
            upages = ucpus = sums = None
            cand_parts = [np.zeros(0, dtype=np.int64)]
        wsel = costmask & iswrite
        wpages = pages[wsel]
        if len(wpages):
            wmask = masks[wpages]
            cand_parts.append(wpages[(wmask & (wmask - 1)) != 0])
        if self.armed:
            cand_parts.append(np.fromiter(self.armed, dtype=np.int64))
        cand = np.unique(np.concatenate(cand_parts))

        # 2. Split the segment into hot (candidate-page) and cold events.
        flag = self._flag
        if len(cand):
            flag[cand] = True
            hot = flag[pages]
        else:
            hot = np.zeros(len(pages), dtype=bool)

        # 3. Cold accounting: placement is constant, so stall and
        # locality reduce to masked integer sums (exact in float64).
        cold_cost = costmask & ~hot
        cw = weights[cold_cost]
        if len(cw):
            local = (masks[pages[cold_cost]] >> self.node_arr[cpus[cold_cost]]) & 1
            total_w = int(cw.sum())
            local_w = int((cw * local).sum())
            result.total_misses += total_w
            result.local_misses += local_w
            result.stall_ns += float(
                local_w * self.local_ns + (total_w - local_w) * self.remote_ns
            )
            self.local_stall += float(local_w * self.local_ns)
            if self.emit_miss:
                # Cold placements are segment-constant, so the serving
                # node is the placement node when local and the lowest
                # replica node (min of the copy set) when remote —
                # exactly the scalar core's MissServiced fields.
                cold_pages = pages[cold_cost]
                cmask = masks[cold_pages]
                low = np.log2((cmask & -cmask).astype(np.float64)).astype(
                    np.int64
                )
                is_local = local.astype(bool)
                serving = np.where(
                    is_local, self.node_arr[cpus[cold_cost]], low
                )
                idx_list = (gstart + np.flatnonzero(cold_cost)).tolist()
                rows = zip(
                    times[cold_cost].tolist(),
                    cpus[cold_cost].tolist(),
                    cold_pages.tolist(),
                    cw.tolist(),
                    serving.tolist(),
                    is_local.tolist(),
                )
                lat_l, lat_r = float(self.local_ns), float(self.remote_ns)
                em.phase = None
                emit = em.emit
                for j, (t, cpu, page, w, node, loc) in enumerate(rows):
                    em.index = idx_list[j]
                    emit(
                        MissServiced(
                            t=t, cpu=cpu, page=page, node=node, weight=w,
                            latency_ns=lat_l if loc else lat_r,
                            remote=not loc,
                        )
                    )

        # 4. Streaming (and any traced run): the interval may continue
        # into the next chunk, so cold pages' counted sums must land in
        # the bank (the next chunk's carries — and any act on a page
        # that only later becomes a candidate — read them).  Traced runs
        # also need them so IntervalReset.tracked_pages matches the
        # scalar core, which records every counted event.
        if writeback and have_pairs:
            cold_pair = ~flag[upages] if len(cand) else np.ones(len(upages), bool)
            if cold_pair.any():
                bank_record = self.bank.record
                for page, cpu, s in zip(
                    upages[cold_pair].tolist(),
                    ucpus[cold_pair].tolist(),
                    sums[cold_pair].astype(np.int64).tolist(),
                ):
                    bank_record(page, cpu, s, False)
                wrec = rec & iswrite
                wrec_pages = pages[wrec]
                if len(wrec_pages):
                    cold_w = ~flag[wrec_pages] if len(cand) else np.ones(
                        len(wrec_pages), bool
                    )
                    if cold_w.any():
                        wu, winv = np.unique(
                            wrec_pages[cold_w], return_inverse=True
                        )
                        wsums = np.bincount(
                            winv, weights=counted[wrec][cold_w]
                        ).astype(np.int64)
                        add_writes = self.bank.add_writes
                        for page, s in zip(wu.tolist(), wsums.tolist()):
                            add_writes(page, s)
        elif em is not None and have_pairs:
            # Traced, non-streaming: the interval ends with this segment,
            # so no later act or carry can read the cold counters — only
            # ``IntervalReset.tracked_pages`` needs them.  Count the cold
            # pages instead of materializing their counters (the scalar
            # core tracks every counted page, hot or cold).
            cold_pair = ~flag[upages] if len(cand) else np.ones(len(upages), bool)
            if cold_pair.any():
                self._cold_tracked.update(
                    np.unique(upages[cold_pair]).tolist()
                )

        if len(cand):
            flag[cand] = False

            # 5. Materialize candidate pages' copy sets and replay their
            # events through the scalar core.
            copies = self.copies
            dirty = self._dirty
            for page in cand.tolist():
                if page not in copies:
                    copies[page] = self._set_from_mask(int(masks[page]))
                dirty.add(page)
            if hot.any():
                idx = np.flatnonzero(hot)
                self._seg_times = times
                self._seg_gstart = gstart
                self._replay_hot(
                    times[idx].tolist(), cpus[idx].tolist(),
                    pages[idx].tolist(), weights[idx].tolist(),
                    iswrite[idx].tolist(), costmask[idx].tolist(),
                    counted[idx].tolist(),
                    (gstart + idx).tolist() if em is not None else None,
                )
            # Traced: drain every interrupt already due within this
            # segment so no due-but-unresolved entry survives a segment
            # boundary — its emission index is the first record whose
            # timestamp reaches the due time, resolvable only while
            # this segment's times are at hand.  (State-identical to
            # the deferred drain: the skipped-over records are all cold
            # and cold events never touch a candidate page.)
            if em is not None and self.pending:
                last_t = int(times[-1])
                pending = self.pending
                dirty = self._dirty
                act = self._act
                while pending and pending[0][0] <= last_t:
                    due, page, cpu = pending.popleft()
                    dirty.add(page)
                    em.index = gstart + int(
                        np.searchsorted(times, due, side="left")
                    )
                    em.phase = 0
                    act(due, page, cpu)
                em.phase = None
            # 6. Publish placement changes so the next segment's masks
            # (cold accounting + candidate detection) see them.
            self._writeback_dirty()

    def _replay_hot(self, t, c, p, w, iw, cf, cn, gx=None) -> None:
        """The scalar core, over candidate-page events only.

        Mirrors ``ReferenceTracePolicySimulator._replay_dynamic``
        exactly — minus interval resets (segments never span one) and
        sampling (``cn`` holds the precomputed surviving weights) — and
        shares ``_pager_act``.
        ``gx`` carries each event's global stream index for batched
        emission (None when untraced).
        """
        result = self.result
        copies = self.copies
        bank = self.bank
        armed = self.armed
        pending = self.pending
        node_list = self.node_list
        local_ns, remote_ns = self.local_ns, self.remote_ns
        op_cost = self.op_cost
        trigger = self.trigger
        delay = self.delay
        act = self._act
        record = bank.record
        em = self.em
        emit_miss = self.emit_miss
        seg_times = self._seg_times
        seg_gstart = self._seg_gstart
        for k in range(len(t)):
            time = t[k]
            while pending and pending[0][0] <= time:
                due, hot_page, hot_cpu = pending.popleft()
                if em is not None:
                    # The scalar core drains this action at the first
                    # record (of any temperature) whose time reaches the
                    # due time — that record's index orders the emission.
                    em.index = seg_gstart + int(
                        np.searchsorted(seg_times, due, side="left")
                    )
                    em.phase = 0
                act(due, hot_page, hot_cpu)
            page = p[k]
            cpu = c[k]
            page_copies = copies[page]
            node = node_list[cpu]
            if em is not None:
                em.index = gx[k]
                em.phase = None
            if cf[k]:
                weight = w[k]
                if iw[k] and len(page_copies) > 1:
                    # A store to a replicated page: collapse.
                    keep = node if node in page_copies else min(page_copies)
                    dropped = len(page_copies) - 1
                    page_copies.clear()
                    page_copies.add(keep)
                    result.collapses += 1
                    result.overhead_ns += op_cost
                    if em is not None:
                        em.emit(
                            CollapseEvent(
                                t=time, page=page, cpu=cpu,
                                keep_node=int(keep),
                                replicas_dropped=dropped,
                                latency_ns=float(op_cost),
                            )
                        )
                result.total_misses += weight
                local = node in page_copies
                if local:
                    result.local_misses += weight
                    result.stall_ns += weight * local_ns
                    self.local_stall += weight * local_ns
                else:
                    result.stall_ns += weight * remote_ns
                if emit_miss:
                    em.emit(
                        MissServiced(
                            t=time, cpu=cpu, page=page,
                            node=int(node) if local else min(page_copies),
                            weight=weight,
                            latency_ns=float(
                                local_ns if local else remote_ns
                            ),
                            remote=not local,
                        )
                    )
            cnt = cn[k]
            if cnt == 0:
                continue
            count = record(page, cpu, cnt, iw[k])
            if count < trigger or page in armed:
                continue
            if node in page_copies:
                continue  # hot but already local
            result.hot_events += 1
            armed.add(page)
            if em is not None:
                em.emit(
                    HotPageTriggered(
                        t=time, page=page, cpu=cpu, count=count,
                        threshold=trigger,
                    )
                )
            pending.append((time + delay, page, cpu))


# -- public entry points --------------------------------------------------------


def replay_dynamic_vector(
    config,
    trace,
    params,
    result,
    placement: np.ndarray,
    sampling_rate: int = 1,
    driver_trace=None,
    tracer=None,
) -> None:
    """Vectorized equivalent of the scalar whole-trace dynamic replay.

    ``params`` must already be scaled for sampling (the caller does this
    for both engines).  With ``driver_trace`` the cost and driver
    streams are merged by a stable sort — cost events win timestamp
    ties, exactly like the scalar two-pointer merge.  An active ``tracer``
    receives the scalar core's exact event sequence via batched
    emission.
    """
    engine = _VectorEngine(
        config, params, result, sampling_rate, placement=placement,
        tracer=tracer,
    )
    if driver_trace is None:
        ones = np.ones(len(trace), dtype=bool)
        engine.run_batch(
            trace.time_ns, trace.cpu, trace.page, trace.weight,
            trace.is_write, ones, ones, streaming=False,
        )
    else:
        cost, driver = trace, driver_trace
        if cost.meta is not driver.meta and cost.meta is not None:
            if driver.meta is not None and cost.meta.name != driver.meta.name:
                raise TraceError(
                    "cost and driver traces are from different workloads"
                )
        n_cost, n_driver = len(cost), len(driver)
        times = np.concatenate([cost.time_ns, driver.time_ns])
        order = np.argsort(times, kind="stable")
        costmask = np.concatenate(
            [np.ones(n_cost, dtype=bool), np.zeros(n_driver, dtype=bool)]
        )[order]
        engine.run_batch(
            times[order],
            np.concatenate([cost.cpu, driver.cpu])[order],
            np.concatenate([cost.page, driver.page])[order],
            np.concatenate([cost.weight, driver.weight])[order],
            np.concatenate([cost.is_write, driver.is_write])[order],
            costmask,
            ~costmask,
            streaming=False,
        )
    engine.finish()


def replay_stream_vector(
    config,
    batches,
    params,
    result,
    initial_kind: Optional[str],
    sampling_rate: int = 1,
    tracer=None,
    placement: Optional[np.ndarray] = None,
) -> None:
    """Vectorized streaming replay over time-ordered column batches.

    Each batch is a ``(times, cpus, pages, weights, iswrite, costmask,
    cntmask)`` tuple of aligned arrays: ``costmask`` marks events that
    charge stall, ``cntmask`` events that drive the counters.  A plain
    trace chunk does both (all-true masks); the streamed TLB-driver
    merge of :func:`repro.trace.tlbsim.merged_tlb_stream` interleaves
    cost events with TLB-miss driver events (``cntmask`` is
    ``~costmask``) in exact scalar merge order.

    ``initial_kind`` is ``"ft"`` (first-touch) or ``"rr"``
    (round-robin), or ``None`` when ``placement`` supplies a full
    initial placement array (the post-facto two-pass path: the caller
    streams the chunks once to majority-count them, then replays here).
    Bank counters, armed pages, pending interrupts and sampling carries
    flow across batch boundaries, so the streamed result is
    byte-identical to the whole-trace replay.
    """
    engine = _VectorEngine(
        config, params, result, sampling_rate,
        placement=placement, initial_kind=initial_kind,
        tracer=tracer,
    )
    for times, cpus, pages, weights, iswrite, costmask, cntmask in batches:
        engine.run_batch(
            times, cpus, pages, weights, iswrite, costmask, cntmask,
            streaming=True,
        )
    engine.finish()


def replay_competitive_vector(
    config,
    trace,
    result,
    placement: np.ndarray,
    core,
) -> None:
    """Vectorized [BGW89]-style competitive replication baseline.

    ``core`` is the shared scalar state machine
    (``policysim._CompetitiveCore``); only events of *candidate* pages —
    those whose per-(page, CPU) remote-miss weight sum can reach the
    break-even watermark — go through it.  A non-candidate page can
    never replicate (the watermark counter is bounded by that sum), so
    its placement is constant and its stall reduces to masked sums
    against the initial placement, exactly like the dynamic engine's
    cold split.  Candidate pages replay *all* their events (reads and
    writes: the written-set bookkeeping needs both).
    """
    times = trace.time_ns
    cpus = trace.cpu
    pages = trace.page
    weights = trace.weight
    iswrite = trace.is_write
    n = len(times)
    cpu_nodes = np.asarray(
        [config.node_of_cpu(c) for c in range(config.n_cpus)],
        dtype=np.int64,
    )
    remote = placement[pages] != cpu_nodes[cpus]
    rsel = np.flatnonzero(remote)
    if len(rsel):
        keys = pages[rsel] * config.n_cpus + cpus[rsel]
        u, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=weights[rsel])
        cand_pages = np.unique((u // config.n_cpus)[sums >= core.break_even])
    else:
        cand_pages = np.zeros(0, dtype=np.int64)
    if len(cand_pages):
        flag = np.zeros(len(placement), dtype=bool)
        flag[cand_pages] = True
        hot = flag[pages]
    else:
        hot = np.zeros(n, dtype=bool)

    # Cold bulk: non-candidate pages keep their initial placement
    # (no replication can fire, and collapses only drop replicas of
    # replicated — hence candidate — pages).
    cold = ~hot
    cw = weights[cold]
    if len(cw):
        local = ~remote[cold]
        total_w = int(cw.sum())
        local_w = int((cw * local).sum())
        result.total_misses += total_w
        result.local_misses += local_w
        result.stall_ns += float(
            local_w * config.local_ns
            + (total_w - local_w) * config.remote_ns
        )
        core.local_stall += float(local_w * config.local_ns)

    # Hot: replay candidate pages' events, one page at a time.  The
    # watermark machine's state (copies, written flag, per-CPU
    # counters) is entirely per-page and every result field is an
    # order-independent exact sum (integral addends below 2^53), so
    # grouping by page is byte-identical to stream order — and lets
    # the inner loop keep the whole state in locals instead of dict
    # lookups per event.  This intentionally restates
    # ``_CompetitiveCore.step``; the differential suites hold the
    # two to byte identity.
    if hot.any():
        idx = np.flatnonzero(hot)
        order = np.argsort(pages[idx], kind="stable")
        idx = idx[order]
        gpages = pages[idx]
        bounds = np.flatnonzero(
            np.r_[True, gpages[1:] != gpages[:-1], True]
        )
        ev_nodes = cpu_nodes[cpus[idx]].tolist()
        ev_cpus = cpus[idx].tolist()
        ev_w = weights[idx].tolist()
        ev_iw = iswrite[idx].tolist()
        break_even = core.break_even
        local_ns = config.local_ns
        remote_ns = config.remote_ns
        op_cost = config.op_cost_ns
        total_w = local_w = overhead = 0
        collapses = migrations = replications = hot_events = 0
        for g in range(len(bounds) - 1):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            page_copies = {int(placement[gpages[lo]])}
            counts = [0] * config.n_cpus
            written = False
            for pos in range(lo, hi):
                node = ev_nodes[pos]
                weight = ev_w[pos]
                if ev_iw[pos]:
                    written = True
                    if len(page_copies) > 1:
                        keep = (node if node in page_copies
                                else min(page_copies))
                        page_copies = {keep}
                        collapses += 1
                        overhead += op_cost
                total_w += weight
                if node in page_copies:
                    local_w += weight
                    continue
                cpu = ev_cpus[pos]
                counts[cpu] += weight
                if counts[cpu] < break_even:
                    continue
                hot_events += 1
                if written and len(page_copies) == 1:
                    page_copies = {node}
                    migrations += 1
                else:
                    page_copies.add(node)
                    replications += 1
                overhead += op_cost
                counts = [0] * config.n_cpus
        result.total_misses += total_w
        result.local_misses += local_w
        result.stall_ns += float(
            local_w * local_ns + (total_w - local_w) * remote_ns
        )
        core.local_stall += float(local_w * local_ns)
        result.collapses += collapses
        result.migrations += migrations
        result.replications += replications
        result.hot_events += hot_events
        result.overhead_ns += overhead
