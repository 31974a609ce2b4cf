"""Trace-driven replay of the page-table placement policies.

The simulator extends the Section 8 methodology one level down the
address-translation path: besides the data misses the existing policies
fight over, every TLB miss forces a *page-table walk*, and a walk
against a remote page-table page is a dependent chain of remote
references.  PT pages — radix-tree leaves, each mapping
``pt_span_pages`` data pages of the shared address space — are homed
first-touch: on the node whose CPU first faulted a page in their span.
In a parallel workload that is usually one node, so every other node
walks those PT pages remotely; that is the Mitosis problem.  Four
policies replay under the same walk model so their run times compare:

* **PT-FT** — first-touch data placement, PT pages stay where they were
  first faulted (the do-nothing baseline);
* **PT-Migr** — the paper's data-page migration policy on top of the
  same static page tables;
* **PT-Repl** — Mitosis-style page-table replication: a per-(PT page,
  node) remote-walk counter bank (the walk analog of the hot-page miss
  counters) triggers a replica of the walked PT page on the walking
  node;
* **CoPlace** — Phoenix-style co-placement: data migration plus, on a
  walk trigger, a cost-model arbitration between *replicating the PT
  page* onto the thread's node and *re-homing the thread* onto the PT
  page's node — whichever is cheaper under
  :class:`~repro.ptpol.costs.PtCostModel`.

Data-page decisions run through the very same ``_pager_act`` state
machine as the existing dynamic policies, with one twist: the CPU->node
map is a mutable list, so a thread re-homing by the co-placement policy
immediately re-costs that CPU's subsequent misses and walks.  (Threads
are modelled at CPU granularity — the affinity scheduler pins one
runnable thread per CPU in the trace generator, so "migrate the thread
on CPU c" and "re-home CPU c" coincide.)

Replica maintenance is charged, not assumed free: the first fault of a
data page is a PT write (a mapping is created) and propagates to every
standing replica of its PT page at ``pt_update_ns`` each; a data-page
migration rewrites the mapping and propagates the same way; installing
a replica swaps the node's root pointers under a TLB shootdown round.
All of it lands in :class:`~repro.ptpol.state.PtTally`, which must
reconcile exactly with the emitted
:class:`~repro.obs.events.PtReplicate` /
:class:`~repro.obs.events.ThreadMigrate` events
(:func:`~repro.ptpol.state.reconcile_events`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, TraceError
from repro.obs.events import (
    HotPageTriggered,
    IntervalReset,
    MissServiced,
    PtReplicate,
    ShootdownEvent,
    ThreadMigrate,
)
from repro.policy.parameters import PolicyParameters
from repro.ptpol.costs import DEFAULT_PT_COSTS, PtCostModel
from repro.ptpol.state import PtReplicaTable, PtTally
from repro.trace.policysim import (
    PolicySimResult,
    TracePolicySimulator,
    _pager_act,
)
from repro.trace.record import Trace
from repro.trace.tlbsim import derive_tlb_trace

#: The PT policy family, in presentation order.
PT_POLICIES = ("ptft", "ptmigr", "ptrepl", "coplace")

#: Display labels, keyed by policy token.
PT_POLICY_LABELS = {
    "ptft": "PT-FT",
    "ptmigr": "PT-Migr",
    "ptrepl": "PT-Repl",
    "coplace": "CoPlace",
}


def params_for_pt_policy(policy: str, trigger: int = 128) -> PolicyParameters:
    """The :class:`PolicyParameters` encoding one PT-family policy.

    ``trigger`` is the *data* hot-page trigger; the walk trigger scales
    with it (half, floor 1) because a walk-counter increment stands for
    a burst of TLB misses the same way a weighted miss record stands
    for a burst of cache misses.
    """
    pt_trigger = max(1, trigger // 2)
    if policy == "ptft":
        return PolicyParameters.base(
            trigger_threshold=trigger,
            enable_migration=False,
            enable_replication=False,
            pt_trigger_threshold=pt_trigger,
        )
    if policy == "ptmigr":
        return PolicyParameters.migration_only(
            trigger_threshold=trigger,
            pt_trigger_threshold=pt_trigger,
        )
    if policy == "ptrepl":
        return PolicyParameters.pt_replication(
            trigger_threshold=trigger,
            pt_trigger_threshold=pt_trigger,
        )
    if policy == "coplace":
        return PolicyParameters.co_placement(
            trigger_threshold=trigger,
            pt_trigger_threshold=pt_trigger,
        )
    raise ConfigurationError(
        f"unknown PT policy {policy!r}; expected one of {PT_POLICIES}"
    )


class _PtReplayState:
    """The PT-policy replay state machine, shared by both replay paths.

    Holds every piece of mutable replay state — data-page copies and
    counters, the CPU->node map (mutable, so thread re-homing sticks),
    the replica table, walk counters, the pending action queues and the
    per-interval demand/maintenance structures — plus the action
    handlers that mutate it.  The scalar reference core
    (:class:`ReferencePtPolicySimulator`) drives it one merged record
    at a time (:meth:`drain` / :meth:`reset` / :meth:`process`);
    the vector engine (:mod:`repro.ptpol.fastpath`) drives the same
    object per interval segment, bulk-accounting cold records and
    sub-replaying hot candidates through :meth:`process`, so every
    policy action runs through one implementation.

    Two hooks exist only for the vector engine and are inert under the
    scalar loop:

    * ``em`` — the :class:`~repro.obs.batch.BatchEmitter` the engine
      traces through (``tracer`` is then the same object);
    * ``key_of`` — maps an action's due time to its ``(index,
      data_phase, pt_phase)`` emission key: the global index of the
      record the scalar core would drain it on.  When set,
      :meth:`drain` also *interleaves* the two pending queues by that
      record index (data before PT at the same record), reproducing
      the scalar core's per-record drain order even though the engine
      only drains at hot events and segment boundaries.
    """

    def __init__(self, sim: "PtPolicySimulator", params, result) -> None:
        # Data-page state, exactly as in _replay_dynamic — except the
        # CPU->node map is a mutable list so thread re-homing sticks.
        from repro.machine.directory import MissCounterBank

        cfg = sim.config
        self.cfg = cfg
        self.costs = sim.costs
        self.params = params
        self.result = result
        self.tally = sim.tally = PtTally()
        self.ptrep = sim.replicas = PtReplicaTable()
        self.copies: Dict[int, Set[int]] = {}
        self.bank = MissCounterBank(cfg.n_cpus)
        self.armed: Set[int] = set()
        self.cpu_node = [cfg.node_of_cpu(c) for c in range(cfg.n_cpus)]
        self.cpus_per_node = cfg.n_cpus // cfg.n_nodes
        self.span = cfg.pt_span_pages
        self.local_ns, self.remote_ns = cfg.local_ns, cfg.remote_ns
        self.walk_local_ns = cfg.pt_walk_local_ns
        self.walk_remote_ns = cfg.pt_walk_remote_ns
        self.op_cost = cfg.op_cost_ns
        self.data_dynamic = (
            params.enable_migration or params.enable_replication
        )
        self.pt_dynamic = params.enable_pt_replication
        self.coplace = params.enable_thread_migration
        self.trigger = params.trigger_threshold
        self.pt_trigger = params.pt_trigger_threshold
        self.next_reset = params.reset_interval_ns
        self.interval_index = 0
        self.local_stall = 0.0
        self.walk_stall = 0.0
        self.local_walk_stall = 0.0
        self.update_cost = 0.0
        self.shootdown_cost = 0.0
        self.pending: deque = deque()     # (due, page, cpu) data hot pages
        self.pt_pending: deque = deque()  # (due, leaf, node, cpu, pid, walks)
        self.pt_armed: Set[Tuple[int, int]] = set()
        self.walk_bank: Dict[Tuple[int, int], int] = {}  # (leaf, node)
        # Per-interval demand/maintenance state for the arbitration.
        self.data_demand: Dict[Tuple[int, int], int] = {}  # (pid, node)
        self.leaf_writes: Dict[int, int] = {}          # leaf -> PT writes
        self.thread_moves: Dict[int, int] = {}         # pid -> re-homings
        self.mapped: Set[int] = set()                  # pages with a PTE
        self.tracer = sim.tracer
        self.trace_on = sim.tracer.active
        self.emit_miss = sim.tracer.wants(MissServiced.KIND)
        self.em = None
        self.key_of = None

    # -- action handlers -----------------------------------------------------------

    def pt_write(self, leaf: int) -> None:
        """Charge a PT write's propagation to every standing replica.

        Counted in ``leaf_writes`` even when no replica stands yet —
        that running count is what the arbitration uses to estimate
        the propagation tax a *new* replica would start paying.
        """
        self.leaf_writes[leaf] = self.leaf_writes.get(leaf, 0) + 1
        replicas = self.ptrep.replica_count(leaf) - 1
        if replicas <= 0:
            return
        cost = replicas * self.costs.pt_update_ns
        self.result.overhead_ns += cost
        self.update_cost += cost
        self.tally.pt_updates += replicas

    def act(self, now: int, page: int, cpu: int) -> None:
        before = self.result.migrations
        _pager_act(
            now, page, cpu, self.copies, self.bank, self.armed,
            self.result, self.params, self.cpu_node, self.op_cost,
            self.tracer, self.trace_on,
        )
        if self.result.migrations > before:
            # A migration rewrites the page's mapping: the write
            # propagates to every replica of its PT page.
            self.pt_write(page // self.span)

    def pt_act(
        self, now: int, leaf: int, node: int, cpu: int, pid: int, walks: int
    ) -> None:
        """Resolve one walk trigger: replicate the PT page or move the
        thread."""
        costs = self.costs
        result = self.result
        tally = self.tally
        ptrep = self.ptrep
        self.pt_armed.discard((leaf, node))
        if ptrep.holds(leaf, node):
            return  # raced: the node gained a replica while pending
        home = ptrep.home_of(leaf)
        reason = "walk-trigger"
        if self.coplace:
            tally.arbitrations += 1
            # Price the alternatives over the current interval's
            # demand, keyed by *serving* node.  Re-homing the
            # thread makes its walks of this PT page local for free
            # and flips its data locality: misses served from the
            # PT page's home node turn local, misses served from
            # the thread's current node turn remote — so the data
            # term can be a net benefit (a negative cost) when the
            # thread's data already lives with its page table.
            # Replication makes walks local at a construction +
            # flush cost plus the standing per-write propagation
            # tax observed on this PT page so far this interval.
            served_here = self.data_demand.get((pid, node), 0)
            served_home = self.data_demand.get((pid, home), 0)
            thread_cost = costs.thread_migrate_ns + (
                (served_here - served_home) * (self.remote_ns - self.local_ns)
            )
            pt_cost = (
                costs.pt_replicate_ns
                + costs.shootdown_ns(self.cpus_per_node)
                + self.leaf_writes.get(leaf, 0) * costs.pt_update_ns
            )
            if (
                thread_cost < pt_cost
                and self.thread_moves.get(pid, 0)
                < self.params.max_thread_migrations
            ):
                self.thread_moves[pid] = self.thread_moves.get(pid, 0) + 1
                self.cpu_node[cpu] = home
                result.overhead_ns += costs.thread_migrate_ns
                tally.thread_migrations += 1
                if self.trace_on:
                    self.tracer.emit(
                        ThreadMigrate(
                            t=now, process=pid, cpu=cpu, src=node,
                            dst=home, reason="cheaper-than-pt-replica",
                            latency_ns=float(costs.thread_migrate_ns),
                        )
                    )
                return
            reason = "pt-replica-cheaper" if thread_cost >= pt_cost \
                else "thread-migrations-capped"
        ptrep.add_replica(leaf, node)
        flush = costs.shootdown_ns(self.cpus_per_node)
        result.overhead_ns += costs.pt_replicate_ns + flush
        self.shootdown_cost += flush
        tally.pt_replications += 1
        tally.pt_shootdowns += 1
        if self.trace_on:
            self.tracer.emit(
                PtReplicate(
                    t=now, process=pid, cpu=cpu, pt_page=leaf,
                    node=node, src=home, walks=walks, reason=reason,
                    latency_ns=float(costs.pt_replicate_ns),
                )
            )
            self.tracer.emit(
                ShootdownEvent(
                    t=now, origin_cpu=cpu, mode="pt-root",
                    cpus_flushed=self.cpus_per_node, frames=1,
                    cost_ns=float(flush),
                )
            )

    # -- the replay loop pieces ----------------------------------------------------

    def drain(self, upto: Optional[int]) -> None:
        pending, pt_pending = self.pending, self.pt_pending
        key_of = self.key_of
        if key_of is None:
            # Scalar loop: called at every record, so every due action
            # lands on this record — the data queue first, then PT.
            while pending and (upto is None or pending[0][0] <= upto):
                due, hot_page, hot_cpu = pending.popleft()
                self.act(due, hot_page, hot_cpu)
            while pt_pending and (upto is None or pt_pending[0][0] <= upto):
                due, leaf, node, cpu, pid, walks = pt_pending.popleft()
                self.pt_act(due, leaf, node, cpu, pid, walks)
            return
        # Vector engine: a drain may span several records, so the two
        # queues are interleaved by the record each action would drain
        # on (data before PT at the same record) — PT actions re-home
        # threads and grow replica tables, so a data action landing on
        # a later record must run after them, as in the scalar core.
        em = self.em
        while True:
            d_ok = bool(pending) and (upto is None or pending[0][0] <= upto)
            p_ok = bool(pt_pending) and (
                upto is None or pt_pending[0][0] <= upto
            )
            if not d_ok and not p_ok:
                break
            if d_ok and p_ok:
                d_ok = key_of(pending[0][0])[0] \
                    <= key_of(pt_pending[0][0])[0]
            if d_ok:
                due, hot_page, hot_cpu = pending.popleft()
                if em is not None:
                    key = key_of(due)
                    em.index, em.phase = key[0], key[1]
                self.act(due, hot_page, hot_cpu)
            else:
                due, leaf, node, cpu, pid, walks = pt_pending.popleft()
                if em is not None:
                    key = key_of(due)
                    em.index, em.phase = key[0], key[2]
                self.pt_act(due, leaf, node, cpu, pid, walks)
        if em is not None:
            em.phase = None

    def reset(self, time: int) -> None:
        """Expire the interval ending at ``time`` (the reset block)."""
        self.drain(None)
        if self.trace_on:
            if self.em is not None:
                self.em.index = self.key_of(None)[0]
                self.em.phase = None
            self.tracer.emit(
                IntervalReset(
                    t=time,
                    index=self.interval_index,
                    tracked_pages=self.bank.tracked_pages,
                    triggers=self.result.hot_events,
                )
            )
        self.interval_index += 1
        self.bank.reset()
        self.armed.clear()
        self.walk_bank.clear()
        self.pt_armed.clear()
        self.data_demand.clear()
        self.leaf_writes.clear()
        self.thread_moves.clear()
        while self.next_reset <= time:
            self.next_reset += self.params.reset_interval_ns
        if self.em is not None:
            self.em.flush()

    def process(
        self, time, cpu, pid, page, weight, is_write, is_cost
    ) -> None:
        """One merged record through the policy state machine."""
        result = self.result
        tally = self.tally
        ptrep = self.ptrep
        node = self.cpu_node[cpu]
        leaf = page // self.span
        ptrep.observe(leaf, node)
        if is_cost:
            # -- a data miss: cost it, then maybe drive the data policy
            page_copies = self.copies.get(page)
            if page_copies is None:
                page_copies = self.copies[page] = {node}
            if page not in self.mapped:
                self.mapped.add(page)
                self.pt_write(leaf)  # a new mapping is a PT write
            local = node in page_copies
            result.total_misses += weight
            if local:
                result.local_misses += weight
                result.stall_ns += weight * self.local_ns
                self.local_stall += weight * self.local_ns
            else:
                result.stall_ns += weight * self.remote_ns
            if self.coplace:
                key = (pid, node if local else min(page_copies))
                self.data_demand[key] = self.data_demand.get(key, 0) + weight
            if self.emit_miss:
                self.tracer.emit(
                    MissServiced(
                        t=time, cpu=cpu, page=page,
                        node=node if local else min(page_copies),
                        weight=weight,
                        latency_ns=float(
                            self.local_ns if local else self.remote_ns
                        ),
                        remote=not local, process=pid,
                    )
                )
            if not self.data_dynamic:
                return
            count = self.bank.record(page, cpu, weight, is_write)
            if count < self.trigger or page in self.armed:
                return
            if node in page_copies:
                return  # hot but already local
            result.hot_events += 1
            self.armed.add(page)
            if self.trace_on:
                self.tracer.emit(
                    HotPageTriggered(
                        t=time, page=page, cpu=cpu, count=count,
                        threshold=self.trigger,
                    )
                )
            self.pending.append(
                (time + self.cfg.decision_delay_ns, page, cpu)
            )
        else:
            # -- a TLB miss: every one costs a page-table walk
            walk_local = ptrep.holds(leaf, node)
            tally.walks += weight
            stall = weight * (
                self.walk_local_ns if walk_local else self.walk_remote_ns
            )
            result.stall_ns += stall
            self.walk_stall += stall
            if walk_local:
                tally.local_walks += weight
                self.local_walk_stall += stall
                self.local_stall += stall
            if self.emit_miss:
                self.tracer.emit(
                    MissServiced(
                        t=time, cpu=cpu, page=page,
                        node=node if walk_local else ptrep.home_of(leaf),
                        weight=weight,
                        latency_ns=float(
                            self.walk_local_ns if walk_local
                            else self.walk_remote_ns
                        ),
                        remote=not walk_local, process=pid, walk=True,
                    )
                )
            if not self.pt_dynamic or walk_local:
                return
            key = (leaf, node)
            count = self.walk_bank.get(key, 0) + weight
            self.walk_bank[key] = count
            if count < self.pt_trigger or key in self.pt_armed:
                return
            tally.walk_triggers += 1
            self.pt_armed.add(key)
            self.pt_pending.append(
                (time + self.cfg.decision_delay_ns, leaf, node, cpu, pid,
                 count)
            )

    def finalize(self) -> None:
        """Publish the run's PT-side aggregates into ``result.extra``."""
        result = self.result
        tally = self.tally
        result.extra["local_stall_ns"] = self.local_stall
        result.extra["pt_walks"] = float(tally.walks)
        result.extra["pt_local_walks"] = float(tally.local_walks)
        result.extra["pt_walk_stall_ns"] = self.walk_stall
        result.extra["pt_local_walk_stall_ns"] = self.local_walk_stall
        result.extra["pt_replications"] = float(tally.pt_replications)
        result.extra["thread_migrations"] = float(tally.thread_migrations)
        result.extra["pt_updates"] = float(tally.pt_updates)
        result.extra["pt_update_cost_ns"] = self.update_cost
        result.extra["pt_shootdowns"] = float(tally.pt_shootdowns)
        result.extra["pt_shootdown_cost_ns"] = self.shootdown_cost


class PtPolicySimulator(TracePolicySimulator):
    """Replay a trace under the page-table placement policies.

    The replay runs interval segments through
    :mod:`repro.ptpol.fastpath`, bulk-accounting cold misses and walks
    and sub-replaying the hot candidates through
    :class:`_PtReplayState`.  :class:`ReferencePtPolicySimulator`
    drives that state machine one merged record at a time instead;
    results and event logs are byte-identical between the two.
    """

    def __init__(
        self,
        config=None,
        tracer=None,
        metrics=None,
        costs: Optional[PtCostModel] = None,
    ) -> None:
        super().__init__(config=config, tracer=tracer)
        #: Registry the run's ``ptpol.*`` tally callbacks go into, if any.
        self.metrics = metrics
        self.costs = costs or DEFAULT_PT_COSTS
        #: Tally of the most recent :meth:`simulate` run.
        self.tally: PtTally = PtTally()
        #: Replica table of the most recent run.
        self.replicas: PtReplicaTable = PtReplicaTable()

    # -- entry point ---------------------------------------------------------------

    def simulate(
        self,
        trace: Trace,
        params: PolicyParameters,
        label: Optional[str] = None,
        driver_trace: Optional[Trace] = None,
    ) -> PolicySimResult:
        """Replay ``trace`` under one PT-family policy.

        ``driver_trace`` is the TLB-miss stream (derived from ``trace``
        when omitted); it both costs walk stall and drives the walk
        counters.  The data-page side of ``params`` behaves exactly as
        in :meth:`simulate_dynamic`.
        """
        cfg = self.config
        if driver_trace is None:
            driver_trace = derive_tlb_trace(trace, n_cpus=cfg.n_cpus)
        result = PolicySimResult(label=label or self._pt_label(params))
        self._emit_run_meta(result.label, params, pt=True)
        self._replay_pt(trace, driver_trace, params, result)
        if self.metrics is not None:
            self._register_metrics()
        return result

    # -- the replay hook -----------------------------------------------------------

    def _replay_pt(
        self,
        trace: Trace,
        driver: Trace,
        params: PolicyParameters,
        result: PolicySimResult,
    ) -> None:
        """Replay hook of :meth:`simulate`: the vectorized engine."""
        from repro.ptpol.fastpath import replay_pt_vector

        replay_pt_vector(self, trace, driver, params, result)

    def _register_metrics(self) -> None:
        """Publish the run's tally under the ``ptpol.*`` namespace.

        Callbacks read the live tally, so re-running :meth:`simulate`
        on the same simulator keeps the registry current without
        re-registration (the names are claimed once).
        """
        tally = lambda: self.tally  # noqa: E731 - late-bound current tally
        names = (
            ("ptpol.walks", lambda: float(tally().walks)),
            ("ptpol.local_walks", lambda: float(tally().local_walks)),
            ("ptpol.pt_replications", lambda: float(tally().pt_replications)),
            ("ptpol.thread_migrations",
             lambda: float(tally().thread_migrations)),
            ("ptpol.pt_updates", lambda: float(tally().pt_updates)),
            ("ptpol.pt_shootdowns", lambda: float(tally().pt_shootdowns)),
            ("ptpol.walk_triggers", lambda: float(tally().walk_triggers)),
            ("ptpol.arbitrations", lambda: float(tally().arbitrations)),
        )
        for name, fn in names:
            try:
                self.metrics.register_callback(name, fn)
            except ConfigurationError:
                pass  # already registered by an earlier run

    @staticmethod
    def _pt_label(params: PolicyParameters) -> str:
        if params.enable_thread_migration:
            return PT_POLICY_LABELS["coplace"]
        if params.enable_pt_replication:
            return PT_POLICY_LABELS["ptrepl"]
        if params.enable_migration:
            return PT_POLICY_LABELS["ptmigr"]
        return PT_POLICY_LABELS["ptft"]


class ReferencePtPolicySimulator(PtPolicySimulator):
    """The scalar reference core of :class:`PtPolicySimulator`.

    Overrides only the replay hook: :class:`_PtReplayState` steps
    every merged data-miss and walk record in time order.  It also
    takes parameter sets the vector engine refuses (data replication
    on), which no PT-family policy produces.  The differential suites
    and the scalar-vs-vector benches run it against the production
    path.
    """

    def _replay_pt(
        self,
        trace: Trace,
        driver: Trace,
        params: PolicyParameters,
        result: PolicySimResult,
    ) -> None:
        """One merged record at a time, in order."""
        st = _PtReplayState(self, params, result)
        for time, cpu, pid, page, weight, is_write, is_cost in (
            self._merged_process_events(trace, driver)
        ):
            st.drain(time)
            if time >= st.next_reset:
                st.reset(time)
            st.process(time, cpu, pid, page, weight, is_write, is_cost)
        st.drain(None)
        st.finalize()

    @staticmethod
    def _merged_process_events(cost: Trace, driver: Trace):
        """Merge data misses and walks in time order, with processes.

        The PT twin of ``_merged_events``: driver (walk) events sort
        *after* cost events at equal timestamps, so a PT action never
        retroactively cheapens the walk that triggered it — and since
        every derived TLB record shares a timestamp with the cache-miss
        record that produced it, the first sighting of a page is always
        the data miss that faults its mapping in.
        """
        if cost.meta is not driver.meta and cost.meta is not None:
            if driver.meta is not None and cost.meta.name != driver.meta.name:
                raise TraceError(
                    "cost and driver traces are from different workloads"
                )
        i = j = 0
        n_cost, n_driver = len(cost), len(driver)
        c_t, d_t = cost.time_ns.tolist(), driver.time_ns.tolist()
        c_c, d_c = cost.cpu.tolist(), driver.cpu.tolist()
        c_pr, d_pr = cost.process.tolist(), driver.process.tolist()
        c_p, d_p = cost.page.tolist(), driver.page.tolist()
        c_wt, d_wt = cost.weight.tolist(), driver.weight.tolist()
        c_w, d_w = cost.is_write.tolist(), driver.is_write.tolist()
        while i < n_cost or j < n_driver:
            take_cost = j >= n_driver or (i < n_cost and c_t[i] <= d_t[j])
            if take_cost:
                yield (c_t[i], c_c[i], c_pr[i], c_p[i], c_wt[i], c_w[i], True)
                i += 1
            else:
                yield (d_t[j], d_c[j], d_pr[j], d_p[j], d_wt[j], d_w[j], False)
                j += 1


def simulate_ptpol(
    trace: Trace,
    policy: str,
    config=None,
    trigger: int = 128,
    tracer=None,
    metrics=None,
    costs: Optional[PtCostModel] = None,
    driver_trace: Optional[Trace] = None,
) -> Tuple[PolicySimResult, PtTally]:
    """One-call replay of ``trace`` under PT policy token ``policy``.

    Returns the result alongside the run's :class:`PtTally` (which the
    caller can reconcile against a captured event stream).
    """
    sim = PtPolicySimulator(
        config=config, tracer=tracer, metrics=metrics, costs=costs,
    )
    params = params_for_pt_policy(policy, trigger=trigger)
    result = sim.simulate(
        trace, params, label=PT_POLICY_LABELS[policy],
        driver_trace=driver_trace,
    )
    return result, sim.tally
