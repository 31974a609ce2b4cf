"""The pager interrupt handler: Figure 2 of the paper, executed for real.

The directory controller delivers a batch of hot pages; the handler walks
the numbered steps — read counters and decide (3), allocate (4), link and
map (5), one TLB flush for the whole batch (6), copy (7), free and
re-point mappings (8) — against the live VM data structures, charging each
step's cost (base latency plus simulated lock waits) to the matching
Table 5/6 category.

Outcomes per hot page are exactly Table 4's taxonomy: migrated,
replicated, no action, or "no page" when the target node's memory is
exhausted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import AllocationError
from repro.kernel.pager.costs import (
    CostCategory,
    KernelCostAccounting,
    KernelCostModel,
    OpType,
)
from repro.kernel.vm.page import PageFrame
from repro.kernel.vm.shootdown import ShootdownMode, ShootdownPlanner
from repro.kernel.vm.system import VmSystem
from repro.obs.events import (
    MigrationDecision,
    NoActionDecision,
    ReplicationDecision,
)
from repro.obs.tracer import as_tracer
from repro.machine.directory import DirectoryArray, HotBatch
from repro.policy.decision import Action, Decision, Reason, decide
from repro.policy.parameters import PolicyParameters


class Outcome(enum.Enum):
    """Table 4's per-hot-page outcomes."""

    MIGRATED = "migrate"
    REPLICATED = "replicate"
    NO_ACTION = "no action"
    NO_PAGE = "no page"

    __hash__ = object.__hash__  # see repro.kernel.pager.costs.CostCategory


@dataclass
class PageActionResult:
    """What happened to one hot page."""

    page: int
    cpu: int
    outcome: Outcome
    reason: Optional[Reason] = None


@dataclass
class ActionTally:
    """Running Table 4 counts, plus a per-page outcome ledger."""

    hot_pages: int = 0
    migrated: int = 0
    replicated: int = 0
    no_action: int = 0
    no_page: int = 0
    reasons: Dict[Reason, int] = field(default_factory=dict)
    by_page: Dict[int, Dict[Outcome, int]] = field(default_factory=dict)

    def add(self, result: PageActionResult) -> None:
        """Fold one outcome into the tally."""
        self.hot_pages += 1
        if result.outcome is Outcome.MIGRATED:
            self.migrated += 1
        elif result.outcome is Outcome.REPLICATED:
            self.replicated += 1
        elif result.outcome is Outcome.NO_PAGE:
            self.no_page += 1
        else:
            self.no_action += 1
        if result.reason is not None:
            self.reasons[result.reason] = self.reasons.get(result.reason, 0) + 1
        page_counts = self.by_page.setdefault(result.page, {})
        page_counts[result.outcome] = page_counts.get(result.outcome, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (enum keys become their string values)."""
        return {
            "hot_pages": self.hot_pages,
            "migrated": self.migrated,
            "replicated": self.replicated,
            "no_action": self.no_action,
            "no_page": self.no_page,
            "reasons": {r.value: n for r, n in sorted(
                self.reasons.items(), key=lambda kv: kv[0].value
            )},
            "by_page": {
                str(page): {o.value: n for o, n in counts.items()}
                for page, counts in sorted(self.by_page.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ActionTally":
        """Rebuild a tally from :meth:`to_dict` output."""
        out = cls(
            hot_pages=int(data["hot_pages"]),
            migrated=int(data["migrated"]),
            replicated=int(data["replicated"]),
            no_action=int(data["no_action"]),
            no_page=int(data["no_page"]),
        )
        for value, n in data["reasons"].items():
            out.reasons[Reason(value)] = int(n)
        for page, counts in data["by_page"].items():
            out.by_page[int(page)] = {
                Outcome(o): int(n) for o, n in counts.items()
            }
        return out

    def percentages(self) -> Dict[str, float]:
        """Table 4 row: percentage per outcome."""
        total = max(self.hot_pages, 1)
        return {
            "% Migrate": 100.0 * self.migrated / total,
            "% Replicate": 100.0 * self.replicated / total,
            "% No Action": 100.0 * self.no_action / total,
            "% No Page": 100.0 * self.no_page / total,
        }


class PagerHandler:
    """Services hot-page interrupt batches against the VM system."""

    def __init__(
        self,
        vm: VmSystem,
        directory: DirectoryArray,
        params: PolicyParameters,
        costs: KernelCostModel,
        accounting: KernelCostAccounting,
        n_cpus: int,
        node_of_cpu: Callable[[int], int],
        node_of_process: Callable[[int], int],
        cpu_of_process: Callable[[int], Optional[int]],
        shootdown_mode: ShootdownMode = ShootdownMode.ALL_CPUS,
        tracer=None,
        decision_hook: Optional[
            Callable[[int, object, "Decision"], Optional["Decision"]]
        ] = None,
    ) -> None:
        self.vm = vm
        self.directory = directory
        self.params = params
        self.costs = costs
        self.accounting = accounting
        self.n_cpus = n_cpus
        self.node_of_cpu = node_of_cpu
        self.node_of_process = node_of_process
        self.cpu_of_process = cpu_of_process
        self.shootdown_mode = shootdown_mode
        #: Optional policy seam: called after the decision tree as
        #: ``decision_hook(now_ns, hot_event, decision)``; returning a
        #: :class:`~repro.policy.decision.Decision` replaces the tree's
        #: verdict (returning None keeps it).  The co-placement layer
        #: uses this to substitute "move the thread" for "move the page"
        #: when the cost model says the thread is cheaper.
        self.decision_hook = decision_hook
        self.tracer = as_tracer(tracer)
        self.shootdown = ShootdownPlanner(
            shootdown_mode,
            n_cpus,
            cpu_of_process,
            tracer=self.tracer,
            flush_base_ns=costs.tlb_flush_base_ns,
            flush_per_cpu_ns=costs.tlb_flush_per_cpu_ns,
        )
        self.tally = ActionTally()

    @property
    def tlbs_flushed(self) -> int:
        """TLBs flushed across all of this handler's flush rounds."""
        return self.shootdown.tlbs_flushed

    @property
    def flush_operations(self) -> int:
        """Flush rounds issued (one per batch with moved pages)."""
        return self.shootdown.flush_operations

    def register_metrics(self, registry) -> None:
        """Expose the Table 4 tally and flush stats under ``kernel.pager``."""
        tally = self.tally
        registry.register_callback(
            "kernel.pager.hot_pages", lambda: tally.hot_pages
        )
        registry.register_callback(
            "kernel.pager.migrated", lambda: tally.migrated
        )
        registry.register_callback(
            "kernel.pager.replicated", lambda: tally.replicated
        )
        registry.register_callback(
            "kernel.pager.no_action", lambda: tally.no_action
        )
        registry.register_callback(
            "kernel.pager.no_page", lambda: tally.no_page
        )
        self.shootdown.register_metrics(registry, "kernel.pager")

    # -- the interrupt path (Figure 2) ------------------------------------------

    def handle_batch(self, now_ns: int, batch: HotBatch) -> List[PageActionResult]:
        """Service one pager interrupt."""
        if not len(batch):
            return []
        acct, costs = self.accounting, self.costs
        n_pages = len(batch)
        # Step 2: interrupt processing, paid once and amortised.
        acct.charge(CostCategory.INTR_PROC, costs.interrupt_ns)
        intr_share = costs.interrupt_ns / n_pages
        results: List[PageActionResult] = []
        moved_frames: List[PageFrame] = []
        op_records: List = []  # (op_type, latency so far) per moved page
        # Pages in one batch are handled sequentially by the interrupted
        # CPU; the handler clock advances so they do not contend with
        # themselves on memlock (only with other CPUs' handlers).
        op_clock = now_ns + costs.interrupt_ns
        for event in batch.events:
            result, frame, op, latency, waited = self._handle_page(
                int(op_clock), event, intr_share
            )
            results.append(result)
            self.tally.add(result)
            # Advance by the op's *work*; waits overlap other handlers'
            # work and must not feed back into lock acquisition times.
            op_clock += max(latency - intr_share - waited, 0.0)
            if frame is not None:
                moved_frames.append(frame)
                op_records.append((op, latency))
        # Step 6: one TLB flush for the whole batch.  The handler waits for
        # one parallel flush round (the Table 5 latency); every flushed CPU
        # burns its own flush time, so the *system-wide* kernel cost is the
        # per-CPU work times the number of CPUs flushed (the Table 6 cost,
        # and the reason flushing dominates that table).
        if moved_frames:
            flushed = self.shootdown.flush(now_ns, moved_frames, batch.cpu)
            system_work = (
                costs.tlb_flush_base_ns + costs.tlb_flush_per_cpu_ns * flushed
            )
            acct.charge(CostCategory.TLB_FLUSH, system_work)
            handler_wait = costs.tlb_flush_base_ns + costs.tlb_flush_per_cpu_ns
            share = handler_wait / len(moved_frames)
            for op, latency in op_records:
                acct.attribute_op(op, CostCategory.TLB_FLUSH, share)
                acct.finish_op(op, latency + share)
        return results

    def _no_action(self, now_ns: int, page: int, cpu: int, reason: str) -> None:
        """Trace one deliberate (or race-forced) leave-alone decision."""
        if self.tracer.active:
            self.tracer.emit(
                NoActionDecision(t=now_ns, page=page, cpu=cpu, reason=reason)
            )

    def _handle_page(self, now_ns: int, event, intr_share: float):
        """Steps 3–5, 7–8 for one hot page.

        Returns (result, moved_frame_or_None, op_type, latency, lock_wait).
        """
        acct, costs = self.accounting, self.costs
        page, cpu = event.page, event.cpu
        # Step 3: read counters, run the decision tree.
        acct.charge(CostCategory.POLICY_DECISION, costs.decision_ns)
        latency = intr_share + costs.decision_ns
        master = self.vm.master_of(page)
        counters = self.directory.bank.get(page)
        if master is None or counters is None:
            self.directory.acted_on(page)
            self._no_action(now_ns, page, cpu, "stale-counters")
            return (
                PageActionResult(page, cpu, Outcome.NO_ACTION),
                None,
                None,
                latency,
                0.0,
            )
        pressure = self.vm.allocator.under_pressure(self.node_of_cpu(cpu))
        decision = decide(
            counters.miss,
            counters.writes,
            counters.migrates,
            cpu,
            self.params,
            memory_pressure=pressure,
        )
        if self.decision_hook is not None:
            override = self.decision_hook(now_ns, event, decision)
            if override is not None:
                decision = override
        action = decision.action
        # Hotspot migration targets the dominant sharer, not the requester.
        target_cpu = (
            decision.target_cpu if decision.target_cpu is not None else cpu
        )
        target_node = self.node_of_cpu(target_cpu)
        if action is Action.MIGRATE and master.has_replicas:
            # The page was replicated in an earlier interval; this
            # interval's counters only show the requester.  Migrating a
            # replicated page is impossible — extend the replica set to
            # the requester's node instead (it already passed the write
            # test when it was first replicated).
            action = (
                Action.REPLICATE
                if self.params.enable_replication
                else Action.NOTHING
            )
        if (
            action is Action.MIGRATE
            and not master.has_replicas
            and master.node == target_node
        ):
            # Hotspot target already holds the page: nothing to move.
            self.directory.latch(page)
            self._no_action(now_ns, page, cpu, "target-already-home")
            return (
                PageActionResult(page, cpu, Outcome.NO_ACTION, decision.reason),
                None,
                None,
                latency,
                0.0,
            )
        if action is not Action.NOTHING and target_node in master.copy_nodes():
            # A copy landed on the target while the interrupt was pending;
            # just re-point the requester (cheap) and stop.
            self._adopt_replica(event, master)
            self.directory.acted_on(page)
            self._no_action(now_ns, page, cpu, "adopted-replica")
            return (
                PageActionResult(page, cpu, Outcome.NO_ACTION, decision.reason),
                None,
                None,
                latency,
                0.0,
            )
        if action is Action.NOTHING:
            self.directory.latch(page)
            self._no_action(now_ns, page, cpu, decision.reason.value)
            return (
                PageActionResult(page, cpu, Outcome.NO_ACTION, decision.reason),
                None,
                None,
                latency,
                0.0,
            )
        if action is Action.MIGRATE:
            return self._migrate(
                now_ns, event, latency, intr_share, target_node,
                decision.reason,
            )
        return self._replicate(now_ns, event, latency, intr_share)

    def _migrate(
        self,
        now_ns: int,
        event,
        latency: float,
        intr_share: float,
        target: int,
        reason: Reason = Reason.UNSHARED,
    ):
        acct, costs = self.accounting, self.costs
        page, cpu = event.page, event.cpu
        op = OpType.MIGRATION
        trace = self.tracer.active
        src = self.vm.master_of(page).node if trace else -1
        # Step 4: allocate on the target node (memlock protects free lists).
        wait_alloc = self.vm.locks.memlock.acquire(
            now_ns, costs.memlock_hold_alloc_ns
        ).wait_ns
        alloc_ns = costs.page_alloc_ns + wait_alloc
        try:
            new_frame = self.vm.migrate(page, target)
        except AllocationError:
            # Failed attempts still burn kernel time, but they are not
            # completed operations: keep them out of the Table 5 averages.
            acct.charge(CostCategory.PAGE_ALLOC, alloc_ns)
            self.directory.acted_on(page)
            if trace:
                self.tracer.emit(
                    MigrationDecision(
                        t=now_ns, page=page, cpu=cpu, src=src, dst=target,
                        outcome="no-page", reason=reason.value,
                        latency_ns=latency + alloc_ns,
                    )
                )
            return (
                PageActionResult(page, cpu, Outcome.NO_PAGE),
                None,
                None,
                latency + alloc_ns,
                wait_alloc,
            )
        acct.attribute_op(op, CostCategory.INTR_PROC, intr_share)
        acct.attribute_op(op, CostCategory.POLICY_DECISION, costs.decision_ns)
        latency += acct.charge(CostCategory.PAGE_ALLOC, alloc_ns, op)
        # Step 5: unlink old page, link new, update ptes (memlock again for
        # the physical-page hash table).
        wait_links = self.vm.locks.memlock.acquire(
            now_ns, costs.memlock_hold_links_ns
        ).wait_ns
        latency += acct.charge(
            CostCategory.LINKS_MAPPING, costs.links_mapping_migr_ns + wait_links, op
        )
        # Step 7: the data copy.
        latency += acct.charge(CostCategory.PAGE_COPY, costs.page_copy_ns, op)
        # Step 8: free old page, final mapping updates.
        latency += acct.charge(
            CostCategory.POLICY_END, costs.policy_end_migr_ns, op
        )
        # Downstream faults as processes reload the changed mappings.
        acct.charge(CostCategory.PAGE_FAULT, costs.page_fault_ns, op)
        self.directory.bank.note_migration(page)
        self.directory.acted_on(page)
        if trace:
            self.tracer.emit(
                MigrationDecision(
                    t=now_ns, page=page, cpu=cpu, src=src, dst=target,
                    outcome="migrated", reason=reason.value,
                    latency_ns=latency,
                )
            )
        return (
            PageActionResult(page, cpu, Outcome.MIGRATED, reason),
            new_frame,
            op,
            latency,
            wait_alloc + wait_links,
        )

    def _replicate(self, now_ns: int, event, latency: float, intr_share: float):
        acct, costs = self.accounting, self.costs
        page, cpu = event.page, event.cpu
        target = self.node_of_cpu(cpu)
        op = OpType.REPLICATION
        trace = self.tracer.active
        src = self.vm.master_of(page).node if trace else -1
        # Step 4: allocation still serialises on memlock for the free list,
        # but the replica chain update needs only the page-level lock.
        wait_alloc = self.vm.locks.memlock.acquire(
            now_ns, costs.memlock_hold_alloc_ns
        ).wait_ns
        alloc_ns = costs.page_alloc_ns + wait_alloc
        try:
            replica = self.vm.replicate(page, target, self.node_of_process)
        except AllocationError:
            acct.charge(CostCategory.PAGE_ALLOC, alloc_ns)
            self.directory.acted_on(page)
            if trace:
                self.tracer.emit(
                    ReplicationDecision(
                        t=now_ns, page=page, cpu=cpu, src=src, dst=target,
                        outcome="no-page", reason=Reason.SHARED_READ.value,
                        latency_ns=latency + alloc_ns,
                    )
                )
            return (
                PageActionResult(page, cpu, Outcome.NO_PAGE),
                None,
                None,
                latency + alloc_ns,
                wait_alloc,
            )
        acct.attribute_op(op, CostCategory.INTR_PROC, intr_share)
        acct.attribute_op(op, CostCategory.POLICY_DECISION, costs.decision_ns)
        latency += acct.charge(CostCategory.PAGE_ALLOC, alloc_ns, op)
        # Step 5: chain the replica (page-level lock only).
        wait_links = self.vm.locks.page_lock(page).acquire(
            now_ns, costs.page_lock_hold_ns
        ).wait_ns
        latency += acct.charge(
            CostCategory.LINKS_MAPPING, costs.links_mapping_repl_ns + wait_links, op
        )
        # Step 7: the data copy.
        latency += acct.charge(CostCategory.PAGE_COPY, costs.page_copy_ns, op)
        # Step 8: every mapping re-pointed to the nearest replica (longer
        # than migration's, as in Table 5).
        latency += acct.charge(
            CostCategory.POLICY_END, costs.policy_end_repl_ns, op
        )
        acct.charge(CostCategory.PAGE_FAULT, costs.page_fault_ns, op)
        self.directory.acted_on(page)
        if trace:
            self.tracer.emit(
                ReplicationDecision(
                    t=now_ns, page=page, cpu=cpu, src=src, dst=target,
                    outcome="replicated", reason=Reason.SHARED_READ.value,
                    latency_ns=latency,
                )
            )
        return (
            PageActionResult(page, cpu, Outcome.REPLICATED, Reason.SHARED_READ),
            replica,
            op,
            latency,
            wait_alloc + wait_links,
        )

    def _adopt_replica(self, event, master: PageFrame) -> None:
        """Re-point a process at an existing local replica (cheap path)."""
        if event.process < 0:
            return
        pte = self.vm.page_tables.table(event.process).lookup(event.page)
        if pte is None:
            return
        nearest = master.nearest_copy(self.node_of_cpu(event.cpu))
        if pte.frame is not nearest:
            pte.remap(nearest)
            self.accounting.charge(
                CostCategory.LINKS_MAPPING, self.costs.page_lock_hold_ns
            )

