"""Vectorized replay of the page-table placement policies.

The data-policy vector engine (:mod:`repro.trace.fastpath`) rests on
one observation: almost no page ever crosses the trigger threshold, so
almost every record can be accounted in bulk.  The same skew holds one
level down the translation path — almost no PT page's walk counter
crosses the walk trigger either — so the PT-family replay
(:class:`repro.ptpol.sim.PtPolicySimulator`) gets the same treatment:

* the merged data-miss/walk stream is cut into *interval segments*:
  the PT state machine clears every per-interval structure at each
  reset, so segments are exactly the reset intervals and no counter
  state carries across a boundary;
* per segment, array scans over per-pair segment totals
  (:func:`repro.common.folds.pair_sums`, as in the data engine) find
  the candidate *data pages* (pairs whose summed weight could cross
  the data trigger while remote), the candidate *PT pages* (walk
  pairs that could cross the walk trigger) and — under co-placement —
  the CPU/process set ``K`` those candidates implicate;
* every record touching a candidate, every record of a ``K`` CPU or
  process, and every first fault in a candidate PT page's span is
  *hot* and sub-replays through the scalar state machine
  (:class:`repro.ptpol.sim._PtReplayState`), so decisions, the
  co-placement arbitration and replica maintenance follow the exact
  scalar code path;
* everything else is cold: stall, locality, tallies and (when tracing)
  per-record emissions are computed in bulk against state that is
  provably constant over the segment — a cold page's single copy never
  moves (only candidates migrate), a cold walk pair's replica set
  never grows (only candidate pairs replicate), and a cold record's
  CPU is never re-homed (only ``K`` CPUs move).

Candidacy is conservative — a superset of what the scalar core acts
on — so over-promotion costs speed, never correctness.  Under
co-placement a fixpoint closes ``K``: re-homing a thread changes where
all of its later misses and walks land, so every record of an
implicated CPU or process must be hot, which can implicate further PT
pages in turn.  Policies without thread migration never move a CPU and
``K`` stays empty.

Tracing composes through :class:`repro.obs.batch.BatchEmitter` keyed
by :data:`repro.obs.batch.PT_REPLAY_PHASES`; the contract — results
*and* event logs byte-identical to the scalar engine — is enforced by
the differential tests in ``tests/ptpol`` and the engine-identity
integration suite.

Data-page *replication* is out of scope: no PT-family policy enables
it (they migrate at most), and the cold accounting here leans on every
data page holding exactly one copy.  A parameter set that enables it
is rejected up front rather than silently mis-replayed.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.folds import group_sums, pair_sums
from repro.obs.batch import PT_REPLAY_PHASES, BatchEmitter
from repro.obs.events import MissServiced
from repro.ptpol.sim import _PtReplayState, _pt_columns
from repro.trace.tlbsim import merge_cost_driver


def replay_pt_vector(sim, trace, driver, params, result) -> None:
    """Replay ``trace`` + walk ``driver`` under one PT-family policy.

    Byte-identical to :meth:`ReferencePtPolicySimulator._replay_pt` —
    results, tally, replica table and (when tracing) the event log.
    """
    if params.enable_replication:
        raise ConfigurationError(
            "PT-family replay assumes single-copy data pages, and no "
            "PT-family policy enables data replication"
        )
    st = _PtReplayState(sim, params, result)
    tracer = sim.tracer
    em: Optional[BatchEmitter] = None
    if tracer.active:
        em = BatchEmitter(tracer, PT_REPLAY_PHASES)
        st.em = em
        st.tracer = em
        st.trace_on = True
        st.emit_miss = em.wants(MissServiced.KIND)

    merged, costmask = merge_cost_driver(
        _pt_columns(trace), _pt_columns(driver), trace.meta, driver.meta
    )
    n_total = len(costmask)
    if n_total == 0:
        st.finalize()
        return
    times, cpus, pids, pages, weights = (
        col.astype(np.int64, copy=False) for col in merged[:5]
    )
    iswrite = merged[5]
    leaves = pages // sim.config.pt_span_pages

    engine = _PtSegmentEngine(st, int(pages.max()) + 1, int(leaves.max()) + 1)
    iids = times // params.reset_interval_ns
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(iids) != 0) + 1, [n_total]]
    )
    for si in range(len(starts) - 1):
        s, e = int(starts[si]), int(starts[si + 1])
        engine.boundary(s, int(times[s]))
        engine.run_segment(
            s, times[s:e], cpus[s:e], pids[s:e], pages[s:e], weights[s:e],
            iswrite[s:e], costmask[s:e], leaves[s:e],
        )
    engine.finish(n_total)


class _PtSegmentEngine:
    """Per-interval-segment driver around one :class:`_PtReplayState`."""

    def __init__(self, st: _PtReplayState, n_pages: int, n_leaves: int):
        self.st = st
        self.n_nodes = st.cfg.n_nodes
        self.n_cpus = st.cfg.n_cpus
        #: page -> its single copy's node (-1 until first faulted);
        #: synced with ``st.copies`` after every sub-replay.
        self.data_node = np.full(n_pages, -1, dtype=np.int64)
        #: leaf -> seen by any earlier record (mirror of homing state).
        self.leaf_seen = np.zeros(n_leaves, dtype=bool)

    # -- boundaries ----------------------------------------------------------------

    def boundary(self, gidx: int, t_first: int) -> None:
        """Drain (and maybe reset) at a segment's first record.

        Mirrors the top of the scalar loop at that record: actions due
        by ``t_first`` drain first (phases 0/1), then — when the record
        opens a new interval — the reset flushes the not-yet-due rest
        (phases 2/3) before emitting the :class:`IntervalReset`.
        """
        st = self.st
        st.key_of = lambda due, g=gidx, tr=t_first: (
            (g, 0, 1) if (due is not None and due <= tr) else (g, 2, 3)
        )
        # Pager actions drained here can still migrate pages armed in
        # the previous segment; the placement mirror must follow, or
        # the new segment's cold accounting and candidacy would read
        # the pre-migration home.
        moved = [entry[1] for entry in st.pending]
        st.drain(t_first)
        if t_first >= st.next_reset:
            st.reset(t_first)  # drains the rest; flushes the emitter
        elif st.em is not None:
            st.em.flush()
        data_node = self.data_node
        copies = st.copies
        for page in moved:
            copy_set = copies.get(page)
            if copy_set:
                data_node[page] = min(copy_set)

    def finish(self, n_total: int) -> None:
        """The end-of-run drain (everything lands past the last record)."""
        st = self.st
        st.key_of = lambda due, g=n_total: (g, 0, 1)
        st.drain(None)
        if st.em is not None:
            st.em.flush()
        st.finalize()

    # -- one interval segment ------------------------------------------------------

    def run_segment(self, g0, t, cpu, pid, page, w, iw, cost, leaf) -> None:
        st = self.st
        em = st.em
        result = st.result
        data_node = self.data_node
        walk = ~cost
        # Segment-start CPU homes; only K CPUs can move mid-segment and
        # all of their records are hot, so cold records resolve their
        # node against this snapshot.
        node_now = np.array(st.cpu_node, dtype=np.int64)
        node_ev = node_now[cpu]

        # 1. First faults (the records that would call pt_write) and
        # the candidate/implicated sets.
        ft_pos = self._first_touches(page, cost)
        page_flag, leaf_flag, kcpu_flag, k_pids = self._candidates(
            cpu, pid, page, w, cost, walk, leaf, node_now, node_ev, ft_pos
        )

        hot = cost & page_flag[page]
        hot |= walk & leaf_flag[leaf]
        hot |= kcpu_flag[cpu]
        if k_pids:
            hot |= np.isin(pid, np.fromiter(k_pids, dtype=np.int64))
        # First faults in a candidate PT page's span are hot too: their
        # PT-write propagation cost reads a replica count the policy
        # may change mid-segment.
        if len(ft_pos):
            hot[ft_pos] |= leaf_flag[leaf[ft_pos]]

        # 2. Home PT pages whose first sighting is a cold record (the
        # scalar core observes on every record; hot records observe
        # in-order during the sub-replay).
        unseen = ~self.leaf_seen[leaf]
        if unseen.any():
            upos = np.flatnonzero(unseen)
            ul, fi = np.unique(leaf[upos], return_index=True)
            fpos = upos[fi]
            coldf = ~hot[fpos]
            observe = st.ptrep.observe
            for leaf_, pos_ in zip(
                ul[coldf].tolist(), fpos[coldf].tolist()
            ):
                observe(leaf_, int(node_ev[pos_]))

        # 3. Cold first faults: place the page, map it, and charge the
        # mapping write's propagation to standing replicas — constant
        # over the segment, since only candidate leaves gain replicas
        # and their first faults are hot.  ``leaf_writes`` is skipped:
        # only candidate leaves' counts are ever read before the reset
        # clears them.
        cold_ft = ft_pos[~hot[ft_pos]] if len(ft_pos) else ft_pos
        if len(cold_ft):
            fp = page[cold_ft]
            data_node[fp] = node_ev[cold_ft]
            st.mapped.update(fp.tolist())
            costs = st.costs
            fleaves, fcounts = group_sums(leaf[cold_ft])
            for leaf_, n_ft in zip(fleaves.tolist(), fcounts.tolist()):
                replicas = st.ptrep.replica_count(leaf_) - 1
                if replicas <= 0:
                    continue
                cost_ns = n_ft * replicas * costs.pt_update_ns
                result.overhead_ns += cost_ns
                st.update_cost += cost_ns
                st.tally.pt_updates += n_ft * replicas

        # 4. Materialize candidate pages' (singleton) copy sets.
        hotc = hot & cost
        hot_pages = np.unique(page[hotc]) if hotc.any() else None
        if hot_pages is not None:
            copies = st.copies
            for page_ in hot_pages.tolist():
                node_ = int(data_node[page_])
                if node_ >= 0 and page_ not in copies:
                    copies[page_] = {node_}

        # 5. Sub-replay the hot records through the scalar state
        # machine, in stream order; drained actions key their emission
        # to the record the scalar core pops them on.
        st.key_of = lambda due, g=g0, tt=t: (
            g + int(np.searchsorted(tt, due, side="left")), 0, 1
        )
        if hot.any():
            hi = np.flatnonzero(hot)
            ht = t[hi].tolist()
            hc = cpu[hi].tolist()
            hpd = pid[hi].tolist()
            hp = page[hi].tolist()
            hw = w[hi].tolist()
            hwr = iw[hi].tolist()
            hco = cost[hi].tolist()
            hg = (g0 + hi).tolist() if em is not None else None
            process = st.process
            drain = st.drain
            for k in range(len(ht)):
                tk = ht[k]
                drain(tk)
                if em is not None:
                    em.index = hg[k]
                    em.phase = None
                process(tk, hc[k], hpd[k], hp[k], hw[k], hwr[k], hco[k])
        # Resolve every action already due within the segment while its
        # timestamps (the emission keys) are at hand.
        st.drain(int(t[-1]))

        # 6. Publish candidate pages' placements for the cold bulk.
        if hot_pages is not None:
            copies = st.copies
            for page_ in hot_pages.tolist():
                copy_set = copies.get(page_)
                if copy_set:
                    data_node[page_] = min(copy_set)

        # 7. Cold bulk accounting.
        cold = ~hot
        self._cold_data(g0, t, cpu, pid, page, w, iw, cold & cost, node_ev)
        self._cold_walks(g0, t, cpu, pid, page, w, cold & walk, leaf, node_ev)

        # 8. Every leaf touched this segment is now homed.
        self.leaf_seen[leaf] = True

    # -- candidacy -----------------------------------------------------------------

    def _first_touches(self, page, cost) -> np.ndarray:
        """Positions of the first fault of each not-yet-mapped page."""
        ci = np.flatnonzero(cost)
        if not len(ci):
            return ci
        cp = page[ci]
        new = self.data_node[cp] == -1
        if not new.any():
            return ci[:0]
        _, fi = np.unique(cp[new], return_index=True)
        return ci[np.flatnonzero(new)[fi]]

    def _candidates(
        self, cpu, pid, page, w, cost, walk, leaf, node_now, node_ev, ft_pos
    ):
        """Conservative candidate sets for one segment.

        Returns ``(page_flag, leaf_flag, kcpu_flag, k_pids)``: data
        pages whose counters could cross the trigger while remote, PT
        pages whose walk counters could cross the walk trigger on some
        node, and the CPUs/processes implicated by walks on those PT
        pages (non-empty only under co-placement).  All four are
        supersets of what the scalar core acts on; every record they
        touch is sub-replayed exactly.
        """
        st = self.st
        n_leaves = len(self.leaf_seen)
        page_flag = np.zeros(len(self.data_node), dtype=bool)
        leaf_flag = np.zeros(n_leaves, dtype=bool)
        kcpu_flag = np.zeros(self.n_cpus, dtype=bool)
        k_pids: Set[int] = set()

        # -- PT-page candidacy: which (leaf, node) walk counters could
        # cross pt_trigger?  Walks local at segment start never count
        # (replica sets only grow); walks by K CPUs could land on any
        # node, so they credit their whole leaf.
        if st.pt_dynamic and walk.any():
            wl = leaf[walk]
            wn = node_ev[walk]
            ww = w[walk]
            wc = cpu[walk]
            wp = pid[walk]
            n_nodes = self.n_nodes
            ul, un, sums = pair_sums(wl, wn, n_nodes, ww)
            holds = st.ptrep.holds
            pair_remote = ~np.fromiter(
                map(holds, ul.tolist(), un.tolist()), dtype=bool, count=len(ul)
            )
            while True:
                in_k = kcpu_flag[wc]
                credit = None
                if in_k.any():
                    sums = pair_sums(wl, wn, n_nodes, np.where(in_k, 0.0, ww))[2]
                    credit = np.bincount(
                        wl, weights=np.where(in_k, ww, 0.0),
                        minlength=n_leaves,
                    )
                reach = np.where(pair_remote, sums, 0.0)
                if credit is not None:
                    reach = reach + credit[ul]
                new_flag = np.zeros(n_leaves, dtype=bool)
                new_flag[ul[reach >= st.pt_trigger]] = True
                if credit is not None:
                    new_flag |= credit >= st.pt_trigger
                grew = bool((new_flag & ~leaf_flag).any())
                leaf_flag |= new_flag
                if not st.coplace or not grew:
                    break
                # Close K: a walk on a candidate leaf can trigger an
                # arbitration that re-homes its thread — so that CPU's
                # (and that process's) every record must replay exactly,
                # which in turn can push further leaves over the
                # trigger.  Monotone (flags only grow), so it
                # terminates.
                on_cand = leaf_flag[wl]
                kcpu_flag[wc[on_cand]] = True
                k_pids.update(np.unique(wp[on_cand]).tolist())

        # -- data-page candidacy (with the final K).
        if st.data_dynamic and cost.any():
            up, uc, sums = pair_sums(page[cost], cpu[cost], self.n_cpus, w[cost])
            big = sums >= st.trigger
            if big.any():
                bp = up[big]
                bc = uc[big]
                place = self.data_node[bp]
                unknown = place < 0
                if unknown.any() and len(ft_pos):
                    ft_node = np.full(len(self.data_node), -1, np.int64)
                    ft_k = np.zeros(len(self.data_node), dtype=bool)
                    fp = page[ft_pos]
                    ft_node[fp] = node_ev[ft_pos]
                    ft_k[fp] = kcpu_flag[cpu[ft_pos]]
                    place = np.where(unknown, ft_node[bp], place)
                    first_toucher_moved = unknown & ft_k[bp]
                else:
                    first_toucher_moved = np.zeros(len(bp), dtype=bool)
                cand = (
                    (node_now[bc] != place)
                    | kcpu_flag[bc]
                    | first_toucher_moved
                    | (place < 0)
                )
                page_flag[bp[cand]] = True
        return page_flag, leaf_flag, kcpu_flag, k_pids

    # -- cold bulk -----------------------------------------------------------------

    def _cold_data(self, g0, t, cpu, pid, page, w, iw, coldc, node_ev) -> None:
        """Bulk-account the cold data misses of one segment.

        Cold pages' single copies never move mid-segment, so locality
        is a straight compare against ``data_node``.  ``data_demand``
        is deliberately *not* fed: the arbitration only ever reads the
        demand of a process implicated by a candidate PT page, and all
        of that process's records are hot.
        """
        if not coldc.any():
            return
        st = self.st
        result = st.result
        cw = w[coldc]
        local = self.data_node[page[coldc]] == node_ev[coldc]
        total_w = int(cw.sum())
        local_w = int(cw[local].sum())
        result.total_misses += total_w
        result.local_misses += local_w
        local_stall = local_w * st.local_ns
        result.stall_ns += local_stall + (total_w - local_w) * st.remote_ns
        st.local_stall += local_stall
        if st.emit_miss:
            ci = np.flatnonzero(coldc)
            serving = np.where(local, node_ev[ci], self.data_node[page[ci]])
            self._emit_cold(g0, ci, t, cpu, pid, page, w, serving.tolist(),
                            local.tolist(), st.local_ns, st.remote_ns, False)
        # Cold counts land in the bank only when traced: nothing reads
        # them before the reset clears them, but the reset's
        # IntervalReset.tracked_pages counts every recorded page.
        if st.em is not None and st.data_dynamic:
            st.bank.record_columns(page[coldc], cpu[coldc], cw, iw[coldc])

    def _cold_walks(self, g0, t, cpu, pid, page, w, coldw, leaf, node_ev):
        """Bulk-account the cold page-table walks of one segment.

        A cold walk pair's replica set never grows mid-segment (only
        candidate pairs replicate, and their walks are all hot), so
        one ``holds()`` probe per unique (leaf, node) pair is the
        whole segment's truth.  ``walk_bank`` is deliberately not fed:
        a cold pair's counter can never reach the trigger, and the
        reset clears it unread.
        """
        if not coldw.any():
            return
        st = self.st
        ww = w[coldw]
        wl = leaf[coldw]
        wn = node_ev[coldw]
        # A pair's locality is constant over the segment, so the local
        # weight is the local pairs' sums.
        ul, un, sums = pair_sums(wl, wn, self.n_nodes, ww)
        holds = st.ptrep.holds
        pair_local = np.fromiter(
            map(holds, ul.tolist(), un.tolist()), dtype=bool, count=len(ul)
        )
        total_w = int(ww.sum())
        local_w = int(sums[pair_local].sum())
        tally = st.tally
        tally.walks += total_w
        tally.local_walks += local_w
        local_stall = local_w * st.walk_local_ns
        stall = local_stall + (total_w - local_w) * st.walk_remote_ns
        st.result.stall_ns += stall
        st.walk_stall += stall
        st.local_walk_stall += local_stall
        st.local_stall += local_stall
        if st.emit_miss:
            home_of = st.ptrep.home_of
            local = list(map(holds, wl.tolist(), wn.tolist()))
            serving = [
                node if loc else home_of(leaf_)
                for leaf_, node, loc in zip(wl.tolist(), wn.tolist(), local)
            ]
            self._emit_cold(g0, np.flatnonzero(coldw), t, cpu, pid, page, w,
                            serving, local, st.walk_local_ns,
                            st.walk_remote_ns, True)

    def _emit_cold(self, g0, at, t, cpu, pid, page, w, serving, local,
                   local_ns, remote_ns, walk) -> None:
        """The miss events of cold records ``at``, in record order."""
        em = self.st.em
        em.phase = None
        lat_l, lat_r = float(local_ns), float(remote_ns)
        rows = zip(
            (g0 + at).tolist(), t[at].tolist(), cpu[at].tolist(),
            page[at].tolist(), w[at].tolist(), serving, local,
            pid[at].tolist(),
        )
        for g, t_, c_, p_, w_, n_, loc, pid_ in rows:
            em.index = g
            em.emit(
                MissServiced(
                    t=t_, cpu=c_, page=p_, node=n_, weight=w_,
                    latency_ns=lat_l if loc else lat_r,
                    remote=not loc, process=pid_, walk=walk,
                )
            )
