"""Post-hoc stall-time attribution and decision audit (``repro analyze``).

The paper's argument is a cost ledger: migration/replication decisions
pay kernel overhead *now* to recover remote-miss stall *later* (Figure 6
stall breakdowns, Table 4 action counts).  The event stream of
:mod:`repro.obs.events` records what happened; this module answers
whether it paid off and where the remaining stall time lives:

* **Per-page lifecycle** (:class:`PageAttribution`) — first touch,
  hot triggers, migrations/replications/collapses, and every stall
  nanosecond the page cost, reconstructed by replaying the event stream
  through a copy-set model identical to the simulator's.
* **Per-decision payoff ledger** (:class:`DecisionRecord`) — each
  successful migration/replication opens a window; misses after it are
  compared against the *counterfactual* pre-decision placement, so the
  record accumulates stall saved (or added) until the next decision on
  the page.  Collapse costs are charged to the decision that created
  the replicas.  ``net_ns < 0`` flags a net-regret decision.
* **Per-node residency and time series** (:class:`NodeAttribution`,
  :class:`IntervalSlice`) — stall and misses by the *requesting* CPU's
  node, residency by copy-holding node, and per-interval local/remote
  miss-ratio rows for the JSONL/Chrome sinks.
* **Run diffing** (:func:`diff_attributions`) — per-page divergence
  ranking between two runs of the same spec (policy vs. policy, or
  the reference core's log vs. the production log, which must not
  diverge at all).
* **Page-table decisions** — streams from the PT-policy family
  (:mod:`repro.ptpol`) carry walk-flagged :class:`MissServiced` events
  plus :class:`PtReplicate` / :class:`ThreadMigrate` decisions; they
  land in the same ledger with their own counterfactuals (would this
  walk have been local without the replica?  would this miss have been
  local had the thread stayed put?), so ``repro analyze --ledger``
  audits PT replication and thread migration next to page migration.
* **Text views** (``format_*``) — the ``repro analyze`` outputs,
  including a page's per-event decision timeline (:func:`describe_event`)
  drawn from a second pass over the log.

Conservation is the design invariant: every stall nanosecond and every
action in the stream lands in exactly one page, one requesting node and
one interval, so the per-page / per-node / per-interval sums reconcile
— byte-exactly when latencies are integral, to float tolerance
otherwise — with the run's recorded stall totals and ``pager.tally``
counts.  :meth:`Attribution.reconcile` enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.events import (
    CollapseEvent,
    HotPageTriggered,
    IntervalReset,
    MigrationDecision,
    MissServiced,
    NoActionDecision,
    PtReplicate,
    ReplicationDecision,
    RunMeta,
    ShootdownEvent,
    ThreadMigrate,
    TraceEvent,
    TriggerAdjusted,
)
from repro.obs.tracer import Sink

#: Schema version of :meth:`Attribution.to_dict` output.  Version 2
#: added the page-table dimension: walk totals, ``pt-replication`` /
#: ``thread-migration`` ledger records, and the ``pt_ledger`` export.
#: Version 3 dropped the never-emitted engine fallback count from
#: ``totals``.
ATTRIB_SCHEMA_VERSION = 3

#: Relative tolerance for float-mode reconciliation (system-sim runs
#: accumulate contention latencies in a different order than we do).
RECONCILE_RTOL = 1e-9


@dataclass
class DecisionRecord:
    """One successful migration/replication and its measured payoff.

    The window opens at the decision and closes at the next decision
    touching the same page (or stays open to end of run).  ``saved_ns``
    is the stall difference against the counterfactual pre-decision
    placement, accumulated from the misses actually observed inside the
    window; costs are what the events say was charged.
    """

    kind: str  # "migration" | "replication" | "pt-replication" | "thread-migration"
    t: int
    page: int
    cpu: int
    src: int
    dst: int
    reason: str = ""
    interval: int = 0
    cost_ns: float = 0.0         # op cost charged by the decision itself
    collapse_cost_ns: float = 0.0  # later collapses charged back to it
    saved_ns: float = 0.0        # stall avoided vs. the pre-decision placement
    misses_after: int = 0        # weighted misses observed in the window
    closed: bool = False

    @property
    def total_cost_ns(self) -> float:
        """Everything the decision paid, including induced collapses."""
        return self.cost_ns + self.collapse_cost_ns

    @property
    def net_ns(self) -> float:
        """Stall saved minus cost paid; negative means net regret."""
        return self.saved_ns - self.total_cost_ns

    @property
    def regret(self) -> bool:
        """True when the decision cost more than it saved."""
        return self.net_ns < 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "t": self.t,
            "page": self.page,
            "cpu": self.cpu,
            "src": self.src,
            "dst": self.dst,
            "reason": self.reason,
            "interval": self.interval,
            "cost_ns": self.cost_ns,
            "collapse_cost_ns": self.collapse_cost_ns,
            "saved_ns": self.saved_ns,
            "misses_after": self.misses_after,
            "net_ns": self.net_ns,
            "regret": self.regret,
        }


@dataclass
class PageAttribution:
    """Lifecycle and stall attribution for one page."""

    page: int
    first_touch_t: int = -1
    first_node: int = -1
    copies: Set[int] = field(default_factory=set)
    misses: int = 0              # weighted
    local: int = 0               # weighted local misses
    stall_ns: float = 0.0
    local_stall_ns: float = 0.0
    hot_triggers: int = 0
    migrations: int = 0
    replications: int = 0
    collapses: int = 0
    no_actions: int = 0
    failed_actions: int = 0      # outcome == "no-page"
    action_cost_ns: float = 0.0  # ops charged on this page (incl. failures)
    ledger: List[DecisionRecord] = field(default_factory=list)
    _pre_copies: Set[int] = field(default_factory=set)

    @property
    def remote_stall_ns(self) -> float:
        return self.stall_ns - self.local_stall_ns

    @property
    def open_decision(self) -> Optional[DecisionRecord]:
        if self.ledger and not self.ledger[-1].closed:
            return self.ledger[-1]
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "page": self.page,
            "first_touch_t": self.first_touch_t,
            "first_node": self.first_node,
            "final_copies": sorted(self.copies),
            "misses": self.misses,
            "local": self.local,
            "stall_ns": self.stall_ns,
            "local_stall_ns": self.local_stall_ns,
            "hot_triggers": self.hot_triggers,
            "migrations": self.migrations,
            "replications": self.replications,
            "collapses": self.collapses,
            "no_actions": self.no_actions,
            "failed_actions": self.failed_actions,
            "action_cost_ns": self.action_cost_ns,
            "ledger": [d.to_dict() for d in self.ledger],
        }


@dataclass
class NodeAttribution:
    """Stall demanded *by* a node and service supplied *from* it."""

    node: int
    misses: int = 0              # weighted misses requested by this node's CPUs
    local: int = 0
    stall_ns: float = 0.0
    serviced: int = 0            # weighted misses this node's memory served
    resident_pages: int = 0      # copies currently on this node
    peak_resident: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "misses": self.misses,
            "local": self.local,
            "stall_ns": self.stall_ns,
            "serviced": self.serviced,
            "resident_pages": self.resident_pages,
            "peak_resident": self.peak_resident,
        }


@dataclass
class IntervalSlice:
    """Decision and stall activity inside one reset interval."""

    index: int
    start_t: int = 0
    end_t: int = 0
    misses: int = 0
    local: int = 0
    stall_ns: float = 0.0
    hot_triggers: int = 0
    migrations: int = 0
    replications: int = 0
    collapses: int = 0
    no_actions: int = 0
    action_cost_ns: float = 0.0

    @property
    def local_ratio(self) -> float:
        return self.local / self.misses if self.misses else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start_ms": self.start_t / 1e6,
            "end_ms": self.end_t / 1e6,
            "misses": self.misses,
            "local": self.local,
            "local_ratio": self.local_ratio,
            "stall_ns": self.stall_ns,
            "hot_triggers": self.hot_triggers,
            "migrations": self.migrations,
            "replications": self.replications,
            "collapses": self.collapses,
            "no_actions": self.no_actions,
            "action_cost_ns": self.action_cost_ns,
        }


class Attribution:
    """Streaming attribution over one run's event stream.

    Feed events in emission order (:meth:`feed` or
    :class:`AttributionSink`), then :meth:`finish`.  State is O(pages +
    nodes + intervals), never O(events), so arbitrarily long logs
    analyze in bounded memory.
    """

    def __init__(self) -> None:
        self.meta: Optional[RunMeta] = None
        self.pages: Dict[int, PageAttribution] = {}
        self.nodes: Dict[int, NodeAttribution] = {}
        self.intervals: List[IntervalSlice] = []
        # Totals (the conservation side that must match the result).
        self.misses = 0              # weighted
        self.local_misses = 0
        self.stall_ns = 0.0
        self.local_stall_ns = 0.0
        self.hot_triggers = 0
        self.migrations = 0
        self.replications = 0
        self.collapses = 0
        self.no_actions = 0
        self.failed_actions = 0
        self.action_cost_ns = 0.0
        self.shootdowns = 0
        self.shootdown_cost_ns = 0.0
        # Page-table dimension (PT-policy streams only; all stay 0 on
        # data-only logs, so version-1 consumers see unchanged numbers).
        self.pt_walks = 0            # weighted walk-flagged misses
        self.pt_local_walks = 0
        self.pt_walk_stall_ns = 0.0
        self.pt_replications = 0
        self.thread_migrations = 0
        self.pt_ledger: List[DecisionRecord] = []
        self.thread_ledger: List[DecisionRecord] = []
        self._pt_copies: Dict[int, Set[int]] = {}   # pt_page -> replica nodes
        self._pt_pre: Dict[int, Set[int]] = {}      # pre-decision snapshots
        self._pt_open: Dict[int, DecisionRecord] = {}
        self._thread_open: Dict[int, DecisionRecord] = {}
        self._cpu_home: Dict[int, int] = {}         # re-homed CPUs
        self._walk_local_ref: Optional[float] = None
        self._walk_remote_ref: Optional[float] = None
        self._pt_span = 0
        self._last_pt_rec: Optional[DecisionRecord] = None
        self.interval_resets = 0
        self.trigger_adjustments = 0
        self.events = 0
        self.miss_events = 0
        self.first_t: Optional[int] = None
        self.last_t = 0
        self._integral = True        # every stall contribution integral so far
        self._local_ref: Optional[float] = None   # per-weight local latency
        self._remote_ref: Optional[float] = None
        self._cpus_per_node = 0
        self._cur = IntervalSlice(index=0)
        self._finished = False

    # -- topology / reference latencies ---------------------------------------

    def _node_of_cpu(self, cpu: int) -> int:
        """Requesting node of ``cpu``; -1 when topology is unknown.

        A :class:`ThreadMigrate` event re-homes its CPU, overriding the
        static topology for everything the CPU requests afterwards —
        exactly as the simulator's mutable CPU->node map does.
        """
        home = self._cpu_home.get(cpu)
        if home is not None:
            return home
        if self._cpus_per_node > 0:
            return cpu // self._cpus_per_node
        return -1

    @property
    def has_topology(self) -> bool:
        return self._cpus_per_node > 0

    @property
    def integral(self) -> bool:
        """All stall contributions were integral (exact float sums)."""
        return self._integral

    @property
    def remote_misses(self) -> int:
        return self.misses - self.local_misses

    @property
    def local_fraction(self) -> float:
        return self.local_misses / self.misses if self.misses else 0.0

    @property
    def decisions(self) -> int:
        """Decision events, the ``pager.tally.hot_pages`` counterpart."""
        return (
            self.migrations
            + self.replications
            + self.no_actions
            + self.failed_actions
        )

    @property
    def regrets(self) -> List[DecisionRecord]:
        """Every net-regret decision, worst first."""
        out = [d for d in self.ledger if d.regret]
        out.sort(key=lambda d: d.net_ns)
        return out

    @property
    def ledger(self) -> List[DecisionRecord]:
        """Every successful decision (data and PT), in event order."""
        out = [d for p in self.pages.values() for d in p.ledger]
        out += self.pt_ledger
        out += self.thread_ledger
        out.sort(key=lambda d: (d.t, d.page))
        return out

    # -- feeding ---------------------------------------------------------------

    def feed(self, event: TraceEvent) -> None:
        """Consume one event (in emission order)."""
        self.events += 1
        t = event.t
        if not isinstance(event, RunMeta):
            if self.first_t is None:
                self.first_t = t
            if t > self.last_t:
                self.last_t = t
        if isinstance(event, MissServiced):
            self._feed_miss(event)
        elif isinstance(event, HotPageTriggered):
            page = self._page(event.page)
            page.hot_triggers += 1
            self.hot_triggers += 1
            self._cur.hot_triggers += 1
        elif isinstance(event, (MigrationDecision, ReplicationDecision)):
            self._feed_decision(event)
        elif isinstance(event, NoActionDecision):
            page = self._page(event.page)
            page.no_actions += 1
            self.no_actions += 1
            self._cur.no_actions += 1
            self._close_window(page)
        elif isinstance(event, CollapseEvent):
            self._feed_collapse(event)
        elif isinstance(event, ShootdownEvent):
            self.shootdowns += 1
            self.shootdown_cost_ns += event.cost_ns
            # A pt-root flush is part of the replica installation that
            # immediately precedes it; charge it to that decision.
            if event.mode == "pt-root" and self._last_pt_rec is not None:
                self._last_pt_rec.cost_ns += event.cost_ns
                self._last_pt_rec = None
        elif isinstance(event, PtReplicate):
            self._feed_pt_replicate(event)
        elif isinstance(event, ThreadMigrate):
            self._feed_thread_migrate(event)
        elif isinstance(event, IntervalReset):
            self._flush_interval(end_t=t, next_index=event.index + 1)
            self.interval_resets += 1
        elif isinstance(event, RunMeta):
            self._feed_meta(event)
        elif isinstance(event, TriggerAdjusted):
            self.trigger_adjustments += 1

    def _feed_meta(self, meta: RunMeta) -> None:
        self.meta = meta
        if meta.n_cpus > 0 and meta.n_nodes > 0:
            self._cpus_per_node = meta.n_cpus // meta.n_nodes
        if meta.local_ns > 0:
            self._local_ref = meta.local_ns
        if meta.remote_ns > 0:
            self._remote_ref = meta.remote_ns
        if meta.pt_walk_local_ns > 0:
            self._walk_local_ref = meta.pt_walk_local_ns
        if meta.pt_walk_remote_ns > 0:
            self._walk_remote_ref = meta.pt_walk_remote_ns
        if meta.pt_span_pages > 0:
            self._pt_span = meta.pt_span_pages

    def _page(self, page_id: int) -> PageAttribution:
        page = self.pages.get(page_id)
        if page is None:
            page = self.pages[page_id] = PageAttribution(page=page_id)
        return page

    def _node(self, node_id: int) -> NodeAttribution:
        node = self.nodes.get(node_id)
        if node is None:
            node = self.nodes[node_id] = NodeAttribution(node=node_id)
        return node

    def _set_copies(self, page: PageAttribution, new: Set[int]) -> None:
        """Move a page's copy set, keeping per-node residency in step."""
        for node_id in page.copies - new:
            self._node(node_id).resident_pages -= 1
        for node_id in new - page.copies:
            node = self._node(node_id)
            node.resident_pages += 1
            if node.resident_pages > node.peak_resident:
                node.peak_resident = node.resident_pages
        page.copies = new

    def _feed_miss(self, event: MissServiced) -> None:
        w = event.weight
        contrib = event.latency_ns * w
        if self._integral and not float(contrib).is_integer():
            self._integral = False
        walk = event.walk
        page = self._page(event.page)
        if not walk and page.first_touch_t < 0:
            page.first_touch_t = event.t
            page.first_node = event.node
            # The first miss is served by the page's only copy; seed the
            # copy-set model from it (decisions keep it current after).
            # Walk events never seed: their node field is the *PT* copy
            # that served the walk, not a data-page residence.
            if not page.copies:
                self._set_copies(page, {event.node})
        page.misses += w
        page.stall_ns += contrib
        self.misses += w
        self.stall_ns += contrib
        self.miss_events += 1
        self._cur.misses += w
        self._cur.stall_ns += contrib
        if not event.remote:
            page.local += w
            page.local_stall_ns += contrib
            self.local_misses += w
            self.local_stall_ns += contrib
            self._cur.local += w
        # Learn reference latencies when no RunMeta header supplied them
        # (walks and data misses have separate reference pairs).
        per_weight = event.latency_ns
        if walk:
            self.pt_walks += w
            self.pt_walk_stall_ns += contrib
            if not event.remote:
                self.pt_local_walks += w
            if event.remote:
                if self._walk_remote_ref is None:
                    self._walk_remote_ref = per_weight
            elif self._walk_local_ref is None:
                self._walk_local_ref = per_weight
        elif event.remote:
            if self._remote_ref is None:
                self._remote_ref = per_weight
        elif self._local_ref is None:
            self._local_ref = per_weight
        # Requesting-node attribution (needs topology).
        req = self._node_of_cpu(event.cpu)
        if req >= 0:
            node = self._node(req)
            node.misses += w
            node.stall_ns += contrib
            if not event.remote:
                node.local += w
        self._node(event.node).serviced += w
        if walk:
            self._walk_payoff(event, w, req)
            return
        # Payoff: compare against the counterfactual pre-decision copies.
        open_rec = page.open_decision
        if open_rec is not None:
            open_rec.misses_after += w
            if (
                req >= 0
                and page._pre_copies
                and self._local_ref is not None
                and self._remote_ref is not None
            ):
                would_local = req in page._pre_copies
                delta = (self._remote_ref - self._local_ref) * w
                if not event.remote and not would_local:
                    open_rec.saved_ns += delta
                elif event.remote and would_local:
                    open_rec.saved_ns -= delta
        # Thread-migration payoff: had the thread stayed on its source
        # node, would this miss have been local?  (Counterfactual varies
        # the thread's position; the page's actual copies stand.)
        trec = self._thread_open.get(event.process)
        if (
            trec is not None
            and self._local_ref is not None
            and self._remote_ref is not None
        ):
            trec.misses_after += w
            would_local = trec.src in page.copies
            delta = (self._remote_ref - self._local_ref) * w
            if not event.remote and not would_local:
                trec.saved_ns += delta
            elif event.remote and would_local:
                trec.saved_ns -= delta

    def _walk_payoff(self, event: MissServiced, w: int, req: int) -> None:
        """Payoff accounting for one page-table walk.

        Needs the PT span from :class:`RunMeta` to key the walk by PT
        page; streams without it still conserve walk stall but cannot
        audit per-decision payoff.
        """
        if self._pt_span <= 0:
            return
        pt_page = event.page // self._pt_span
        copies = self._pt_copies.get(pt_page)
        if copies is None:
            # First sighting: the serving node is the PT page's home.
            copies = self._pt_copies[pt_page] = {event.node}
        if self._walk_local_ref is None or self._walk_remote_ref is None:
            return
        delta = (self._walk_remote_ref - self._walk_local_ref) * w
        rec = self._pt_open.get(pt_page)
        if rec is not None:
            rec.misses_after += w
            would_local = req >= 0 and req in self._pt_pre.get(pt_page, ())
            if not event.remote and not would_local:
                rec.saved_ns += delta
            elif event.remote and would_local:
                rec.saved_ns -= delta
        trec = self._thread_open.get(event.process)
        if trec is not None:
            trec.misses_after += w
            would_local = trec.src in copies
            if not event.remote and not would_local:
                trec.saved_ns += delta
            elif event.remote and would_local:
                trec.saved_ns -= delta

    def _close_window(self, page: PageAttribution) -> None:
        rec = page.open_decision
        if rec is not None:
            rec.closed = True

    def _feed_decision(self, event) -> None:
        migration = isinstance(event, MigrationDecision)
        page = self._page(event.page)
        self.action_cost_ns += event.latency_ns
        page.action_cost_ns += event.latency_ns
        self._cur.action_cost_ns += event.latency_ns
        if event.outcome == "no-page":
            page.failed_actions += 1
            self.failed_actions += 1
            return
        if migration:
            page.migrations += 1
            self.migrations += 1
            self._cur.migrations += 1
        else:
            page.replications += 1
            self.replications += 1
            self._cur.replications += 1
        self._close_window(page)
        page._pre_copies = set(page.copies)
        if migration:
            self._set_copies(page, {event.dst})
        else:
            self._set_copies(page, page.copies | {event.dst})
        page.ledger.append(
            DecisionRecord(
                kind="migration" if migration else "replication",
                t=event.t,
                page=event.page,
                cpu=event.cpu,
                src=event.src,
                dst=event.dst,
                reason=event.reason,
                interval=self._cur.index,
                cost_ns=event.latency_ns,
            )
        )

    def _feed_collapse(self, event: CollapseEvent) -> None:
        page = self._page(event.page)
        page.collapses += 1
        self.collapses += 1
        self._cur.collapses += 1
        self.action_cost_ns += event.latency_ns
        page.action_cost_ns += event.latency_ns
        self._cur.action_cost_ns += event.latency_ns
        self._set_copies(page, {event.keep_node})
        # The collapse is a delayed cost of whichever replication put the
        # extra copies there; charge it without closing the window so the
        # net payoff of that decision reflects it.
        rec = page.open_decision
        if rec is not None:
            rec.collapse_cost_ns += event.latency_ns

    def _feed_pt_replicate(self, event: PtReplicate) -> None:
        self.pt_replications += 1
        self.action_cost_ns += event.latency_ns
        self._cur.action_cost_ns += event.latency_ns
        copies = self._pt_copies.get(event.pt_page)
        if copies is None:
            # Decision-only streams (miss events disabled) still audit:
            # seed the PT copy set from the decision's source (home).
            copies = self._pt_copies[event.pt_page] = (
                {event.src} if event.src >= 0 else set()
            )
        old = self._pt_open.pop(event.pt_page, None)
        if old is not None:
            old.closed = True
        self._pt_pre[event.pt_page] = set(copies)
        copies.add(event.node)
        rec = DecisionRecord(
            kind="pt-replication",
            t=event.t,
            page=event.pt_page,
            cpu=event.cpu,
            src=event.src,
            dst=event.node,
            reason=event.reason,
            interval=self._cur.index,
            cost_ns=event.latency_ns,
        )
        self._pt_open[event.pt_page] = rec
        self.pt_ledger.append(rec)
        # The pt-root shootdown that follows belongs to this decision.
        self._last_pt_rec = rec

    def _feed_thread_migrate(self, event: ThreadMigrate) -> None:
        self.thread_migrations += 1
        self.action_cost_ns += event.latency_ns
        self._cur.action_cost_ns += event.latency_ns
        # The CPU is re-homed from here on; requester attribution and
        # walk locality follow the simulator's mutable CPU->node map.
        self._cpu_home[event.cpu] = event.dst
        old = self._thread_open.pop(event.process, None)
        if old is not None:
            old.closed = True
        rec = DecisionRecord(
            kind="thread-migration",
            t=event.t,
            page=-1,
            cpu=event.cpu,
            src=event.src,
            dst=event.dst,
            reason=event.reason,
            interval=self._cur.index,
            cost_ns=event.latency_ns,
        )
        self._thread_open[event.process] = rec
        self.thread_ledger.append(rec)

    def _flush_interval(self, end_t: int, next_index: int) -> None:
        self._cur.end_t = end_t
        self.intervals.append(self._cur)
        self._cur = IntervalSlice(index=next_index, start_t=end_t)

    def finish(self) -> "Attribution":
        """Flush the tail interval; idempotent."""
        if self._finished:
            return self
        self._finished = True
        if (
            self._cur.misses
            or self._cur.hot_triggers
            or self._cur.migrations
            or self._cur.replications
            or self._cur.collapses
            or self._cur.no_actions
            or self._cur.action_cost_ns
            or not self.intervals
        ):
            self._flush_interval(end_t=self.last_t, next_index=self._cur.index + 1)
        return self

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "Attribution":
        """Build a finished attribution from an event iterable."""
        attrib = cls()
        for event in events:
            attrib.feed(event)
        return attrib.finish()

    # -- conservation ----------------------------------------------------------

    def _mismatch(
        self, label: str, got: float, want: float, exact: bool
    ) -> Optional[str]:
        if exact:
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=RECONCILE_RTOL, abs_tol=1e-6)
        if ok:
            return None
        return f"{label}: attributed {got!r} != recorded {want!r}"

    def conservation_errors(self, exact: Optional[bool] = None) -> List[str]:
        """Internal invariant: page/node/interval sums equal the totals."""
        if exact is None:
            exact = self._integral
        errors: List[str] = []
        checks = [
            ("pages.stall_ns", sum(p.stall_ns for p in self.pages.values()),
             self.stall_ns),
            ("pages.misses", sum(p.misses for p in self.pages.values()),
             self.misses),
            ("pages.local", sum(p.local for p in self.pages.values()),
             self.local_misses),
            ("intervals.stall_ns",
             sum(s.stall_ns for s in self.intervals) + self._cur.stall_ns,
             self.stall_ns),
            ("intervals.misses",
             sum(s.misses for s in self.intervals) + self._cur.misses,
             self.misses),
        ]
        if self.has_topology and self.miss_events:
            checks.append(
                ("nodes.stall_ns",
                 sum(n.stall_ns for n in self.nodes.values()), self.stall_ns)
            )
            checks.append(
                ("nodes.misses",
                 sum(n.misses for n in self.nodes.values()), self.misses)
            )
            checks.append(
                ("nodes.serviced",
                 sum(n.serviced for n in self.nodes.values()), self.misses)
            )
        for label, got, want in checks:
            err = self._mismatch(label, got, want, exact)
            if err:
                errors.append(err)
        return errors

    def reconcile(
        self, expected: Dict[str, float], exact: Optional[bool] = None
    ) -> List[str]:
        """Check attributed totals against a result's recorded metrics.

        ``expected`` maps metric names (see :func:`expected_from_policysim`
        / :func:`expected_from_system`) to recorded values; only supplied
        keys are checked.  Stall/miss keys are skipped when the stream
        carried no miss events (decision-only logs still reconcile their
        action counts).  Returns a list of mismatch strings — empty means
        the conservation invariant holds.
        """
        if exact is None:
            exact = self._integral
        errors = self.conservation_errors(exact=exact)
        attributed = {
            "total_misses": self.misses,
            "local_misses": self.local_misses,
            "stall_ns": self.stall_ns,
            "local_stall_ns": self.local_stall_ns,
            # Decision latencies plus shootdown rounds; PT-update
            # propagations have no per-event form, so PT runs subtract
            # them from the recorded side (see expected_from_ptpol).
            "overhead_ns": self.action_cost_ns + self.shootdown_cost_ns,
            "migrations": self.migrations,
            "replications": self.replications,
            "collapses": self.collapses,
            "hot_events": self.hot_triggers,
            "no_actions": self.no_actions,
            "no_page": self.failed_actions,
            "decisions": self.decisions,
            "pt_replications": self.pt_replications,
            "thread_migrations": self.thread_migrations,
        }
        miss_keys = {
            "total_misses", "local_misses", "stall_ns", "local_stall_ns"
        }
        for key, want in expected.items():
            if key not in attributed:
                errors.append(f"unknown expected key: {key}")
                continue
            if key in miss_keys and self.miss_events == 0:
                continue
            err = self._mismatch(key, attributed[key], want, exact)
            if err:
                errors.append(err)
        return errors

    # -- exports ---------------------------------------------------------------

    def interval_series(self) -> List[Dict[str, Any]]:
        """Per-interval local/remote miss-ratio rows (JSONL-friendly)."""
        return [s.to_dict() for s in self.intervals]

    def chrome_counters(self) -> List[dict]:
        """Chrome trace-event counter series (``ph: "C"``).

        One sample per interval boundary: cumulative local-miss ratio,
        interval stall, and decision activity — load alongside the event
        trace to see locality converge as the policy acts.
        """
        out: List[dict] = []
        for s in self.intervals:
            ts = s.end_t / 1000.0
            out.append(
                {
                    "name": "miss.local_ratio",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "args": {"local": round(s.local_ratio, 6)},
                }
            )
            out.append(
                {
                    "name": "interval.stall_ms",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "args": {"stall": s.stall_ns / 1e6},
                }
            )
            out.append(
                {
                    "name": "interval.actions",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "args": {
                        "migrations": s.migrations,
                        "replications": s.replications,
                        "collapses": s.collapses,
                    },
                }
            )
        return out

    def to_dict(self, top: int = 0) -> Dict[str, Any]:
        """Versioned JSON-safe snapshot.

        ``top`` > 0 limits the per-page table to the ``top`` highest-stall
        pages (the totals always cover every page).
        """
        pages = sorted(
            self.pages.values(), key=lambda p: (-p.stall_ns, p.page)
        )
        if top > 0:
            pages = pages[:top]
        return {
            "kind": "attribution",
            "schema_version": ATTRIB_SCHEMA_VERSION,
            "meta": self.meta.to_dict() if self.meta is not None else None,
            "totals": {
                "events": self.events,
                "miss_events": self.miss_events,
                "misses": self.misses,
                "local_misses": self.local_misses,
                "local_fraction": self.local_fraction,
                "stall_ns": self.stall_ns,
                "local_stall_ns": self.local_stall_ns,
                "hot_triggers": self.hot_triggers,
                "migrations": self.migrations,
                "replications": self.replications,
                "collapses": self.collapses,
                "no_actions": self.no_actions,
                "failed_actions": self.failed_actions,
                "action_cost_ns": self.action_cost_ns,
                "shootdowns": self.shootdowns,
                "shootdown_cost_ns": self.shootdown_cost_ns,
                "pt_walks": self.pt_walks,
                "pt_local_walks": self.pt_local_walks,
                "pt_walk_stall_ns": self.pt_walk_stall_ns,
                "pt_replications": self.pt_replications,
                "thread_migrations": self.thread_migrations,
                "interval_resets": self.interval_resets,
                "pages": len(self.pages),
                "regrets": len(self.regrets),
                "duration_ms": self.last_t / 1e6,
                "integral": self._integral,
            },
            "pages": [p.to_dict() for p in pages],
            "nodes": [
                self.nodes[n].to_dict() for n in sorted(self.nodes)
            ],
            "intervals": self.interval_series(),
            "pt_ledger": [
                d.to_dict()
                for d in sorted(
                    self.pt_ledger + self.thread_ledger,
                    key=lambda d: (d.t, d.page),
                )
            ],
        }


class AttributionSink(Sink):
    """A tracer sink that attributes events as they are emitted.

    Attach next to (or instead of) a :class:`JsonlSink` to analyze a run
    in-process with O(pages) memory — the conservation tests run the
    whole fig6+fig9 grid through this without retaining event lists.
    """

    def __init__(self, attribution: Optional[Attribution] = None) -> None:
        self.attribution = attribution or Attribution()

    def emit(self, event: TraceEvent) -> None:
        self.attribution.feed(event)

    def close(self) -> None:
        self.attribution.finish()


# -- expected-value adapters -------------------------------------------------------


def expected_from_policysim(result) -> Dict[str, float]:
    """Reconciliation targets from a :class:`PolicySimResult`."""
    return {
        "total_misses": result.total_misses,
        "local_misses": result.local_misses,
        "stall_ns": result.stall_ns,
        "local_stall_ns": result.local_stall_ns,
        "overhead_ns": result.overhead_ns,
        "migrations": result.migrations,
        "replications": result.replications,
        "collapses": result.collapses,
        "hot_events": result.hot_events,
        "no_actions": result.no_actions,
    }


def expected_from_ptpol(result) -> Dict[str, float]:
    """Reconciliation targets from a PT-policy :class:`PolicySimResult`.

    Walks are miss events in the stream (flagged ``walk=True``) but the
    simulator books them in ``result.extra``, not ``total_misses`` —
    fold them back in.  PT-update propagations are charged to
    ``overhead_ns`` without a per-event form (they are sub-shootdown
    bookkeeping writes), so the recorded overhead is reduced by their
    cost before comparing against attributed decision latencies.
    """
    extra = result.extra
    return {
        "total_misses": result.total_misses + extra.get("pt_walks", 0.0),
        "local_misses": (
            result.local_misses + extra.get("pt_local_walks", 0.0)
        ),
        "stall_ns": result.stall_ns,
        "local_stall_ns": extra.get("local_stall_ns", 0.0),
        "overhead_ns": (
            result.overhead_ns - extra.get("pt_update_cost_ns", 0.0)
        ),
        "migrations": result.migrations,
        "replications": result.replications,
        "collapses": result.collapses,
        "hot_events": result.hot_events,
        "no_actions": result.no_actions,
        "pt_replications": extra.get("pt_replications", 0.0),
        "thread_migrations": extra.get("thread_migrations", 0.0),
    }


def expected_from_system(result) -> Dict[str, float]:
    """Reconciliation targets from a :class:`SimulationResult`.

    Action counts come from ``pager.tally``; stall totals from the
    stall breakdown.  Kernel overhead is *not* comparable to event
    ``latency_ns`` sums (interrupt/lock costs have no per-event form),
    so it is deliberately absent.
    """
    tally = result.tally
    return {
        "total_misses": result.stall.total_misses,
        "local_misses": result.stall.local_misses,
        "stall_ns": result.stall.total_ns,
        "migrations": tally.migrated,
        "replications": tally.replicated,
        "no_actions": tally.no_action,
        "no_page": tally.no_page,
        "decisions": tally.hot_pages,
        "collapses": result.collapses,
    }


# -- run diffing -------------------------------------------------------------------


@dataclass
class PageDelta:
    """Per-page divergence between two attributions."""

    page: int
    stall_a: float
    stall_b: float
    misses_a: int
    misses_b: int
    local_a: int
    local_b: int
    actions_a: Tuple[int, int, int]   # migrations, replications, collapses
    actions_b: Tuple[int, int, int]

    @property
    def stall_delta(self) -> float:
        return self.stall_b - self.stall_a

    def to_dict(self) -> Dict[str, Any]:
        return {
            "page": self.page,
            "stall_delta_ns": self.stall_delta,
            "stall_a_ns": self.stall_a,
            "stall_b_ns": self.stall_b,
            "misses": [self.misses_a, self.misses_b],
            "local": [self.local_a, self.local_b],
            "actions_a": list(self.actions_a),
            "actions_b": list(self.actions_b),
        }


@dataclass
class AttribDiff:
    """Comparison of two runs' attributions (A is the baseline)."""

    common: int = 0
    identical: int = 0
    divergent: List[PageDelta] = field(default_factory=list)
    only_a: List[int] = field(default_factory=list)
    only_b: List[int] = field(default_factory=list)
    stall_delta_ns: float = 0.0

    @property
    def is_identical(self) -> bool:
        return not self.divergent and not self.only_a and not self.only_b

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "attribution-diff",
            "schema_version": ATTRIB_SCHEMA_VERSION,
            "common_pages": self.common,
            "identical_pages": self.identical,
            "divergent_pages": len(self.divergent),
            "pages_only_a": self.only_a,
            "pages_only_b": self.only_b,
            "stall_delta_ns": self.stall_delta_ns,
            "divergent": [d.to_dict() for d in self.divergent],
        }


def _page_signature(page: PageAttribution) -> tuple:
    return (
        page.stall_ns,
        page.misses,
        page.local,
        page.migrations,
        page.replications,
        page.collapses,
        frozenset(page.copies),
        page.first_node,
    )


def diff_attributions(a: Attribution, b: Attribution) -> AttribDiff:
    """Per-page divergence between two runs, worst stall delta first.

    Compares page-level attribution only — run headers (:class:`RunMeta`)
    and other run-level events are metadata, so two logs that differ
    only there diff to zero divergence.
    """
    out = AttribDiff(stall_delta_ns=b.stall_ns - a.stall_ns)
    pages_a, pages_b = a.pages, b.pages
    for page_id in sorted(set(pages_a) | set(pages_b)):
        in_a, in_b = page_id in pages_a, page_id in pages_b
        if in_a and not in_b:
            out.only_a.append(page_id)
            continue
        if in_b and not in_a:
            out.only_b.append(page_id)
            continue
        out.common += 1
        pa, pb = pages_a[page_id], pages_b[page_id]
        if _page_signature(pa) == _page_signature(pb):
            out.identical += 1
            continue
        out.divergent.append(
            PageDelta(
                page=page_id,
                stall_a=pa.stall_ns,
                stall_b=pb.stall_ns,
                misses_a=pa.misses,
                misses_b=pb.misses,
                local_a=pa.local,
                local_b=pb.local,
                actions_a=(pa.migrations, pa.replications, pa.collapses),
                actions_b=(pb.migrations, pb.replications, pb.collapses),
            )
        )
    out.divergent.sort(key=lambda d: (-abs(d.stall_delta), d.page))
    return out


# -- sweep aggregation -------------------------------------------------------------


def sweep_attribution(outcomes) -> Dict[str, Any]:
    """Aggregate payoff telemetry over sweep outcomes for ``--stats-out``.

    For every dynamic cell, stall saved is measured against the
    first-touch (FT) static cell of the same workload/scale/seed/machine
    — the Section 7 baseline — and net payoff subtracts the movement
    overhead the policy paid.  Cells whose overhead exceeded the stall
    they recovered are flagged as regressions, the sweep-level version
    of the per-decision regret flag.

    PT-family cells (``ptmigr``/``ptrepl``/``coplace``) baseline on the
    ``ptft`` cell of the same workload instead: their stall totals
    include page-table walk stall, which the data-only FT cell never
    pays, so cross-family comparison would be meaningless.
    """
    def stall_of(result) -> Optional[float]:
        stall = getattr(result, "stall_ns", None)
        if stall is not None:
            return float(stall)
        breakdown = getattr(result, "stall", None)
        if breakdown is not None:
            return float(breakdown.total_ns)
        return None

    def overhead_of(result) -> float:
        overhead = getattr(result, "overhead_ns", None)
        if overhead is None:
            overhead = getattr(result, "kernel_overhead_ns", 0.0)
        return float(overhead)

    def base_key(spec) -> tuple:
        return (
            spec.workload,
            spec.scale,
            spec.seed,
            spec.machine,
            spec.kind,
            getattr(spec, "kernel_trace", False),
        )

    pt_family = ("ptmigr", "ptrepl", "coplace")
    baselines: Dict[tuple, float] = {}
    pt_baselines: Dict[tuple, float] = {}
    for outcome in outcomes:
        if not outcome.ok or outcome.spec.policy not in ("ft", "ptft"):
            continue
        stall = stall_of(outcome.result)
        if stall is not None:
            pool = pt_baselines if outcome.spec.policy == "ptft" else baselines
            pool[base_key(outcome.spec)] = stall

    cells: List[Dict[str, Any]] = []
    regressions = 0
    total_saved = 0.0
    total_overhead = 0.0
    for outcome in outcomes:
        if not outcome.ok:
            continue
        spec = outcome.spec
        if spec.policy in ("rr", "ft", "pf", "ptft"):
            continue
        stall = stall_of(outcome.result)
        if stall is None:
            continue
        overhead = overhead_of(outcome.result)
        pool = pt_baselines if spec.policy in pt_family else baselines
        baseline = pool.get(base_key(spec))
        saved = baseline - stall if baseline is not None else None
        net = saved - overhead if saved is not None else None
        regret = bool(net is not None and net < 0)
        if regret:
            regressions += 1
        if saved is not None:
            total_saved += saved
            total_overhead += overhead
        cells.append(
            {
                "label": spec.label(),
                "stall_ns": stall,
                "overhead_ns": overhead,
                "stall_saved_vs_ft_ns": saved,
                "net_payoff_ns": net,
                "regret": regret,
            }
        )
    return {
        "cells": cells,
        "summary": {
            "dynamic_cells": len(cells),
            "with_baseline": sum(
                1 for c in cells if c["stall_saved_vs_ft_ns"] is not None
            ),
            "stall_saved_ns": total_saved,
            "overhead_paid_ns": total_overhead,
            "net_payoff_ns": total_saved - total_overhead,
            "regressions": regressions,
        },
    }


# -- terminal formatters -----------------------------------------------------------


#: What the text views print instead of a payoff figure when the stream
#: holds no miss events (``--trace-out`` without ``--trace-misses``).
_NO_MISSES = "payoff needs miss events: re-run with --trace-misses"


def _fmt_ns(value: float) -> str:
    """Nanoseconds as a compact human-readable duration."""
    magnitude = abs(value)
    if magnitude >= 1e9:
        return f"{value / 1e9:.3f}s"
    if magnitude >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if magnitude >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.0f}ns"


def format_summary(attrib: Attribution) -> str:
    """The headline report of ``repro analyze``."""
    lines: List[str] = []
    meta = attrib.meta
    if meta is not None:
        lines.append(
            f"run: {meta.label or '(unlabelled)'}  "
            f"{meta.n_cpus} CPUs / {meta.n_nodes} nodes  "
            f"local={meta.local_ns:.0f}ns remote={meta.remote_ns:.0f}ns"
        )
    lines.append(
        f"events: {attrib.events}  (misses: {attrib.miss_events}, "
        f"intervals: {len(attrib.intervals)}, pages: {len(attrib.pages)})"
    )
    if attrib.miss_events:
        lines.append(
            f"stall: {_fmt_ns(attrib.stall_ns)} total  "
            f"local {_fmt_ns(attrib.local_stall_ns)} / "
            f"remote {_fmt_ns(attrib.stall_ns - attrib.local_stall_ns)}  "
            f"({attrib.local_fraction:.1%} of {attrib.misses} misses local)"
        )
    lines.append(
        f"actions: {attrib.migrations} migrated, "
        f"{attrib.replications} replicated, {attrib.collapses} collapsed, "
        f"{attrib.no_actions} no-action, {attrib.failed_actions} failed  "
        f"(cost {_fmt_ns(attrib.action_cost_ns)})"
    )
    if attrib.shootdowns:
        lines.append(
            f"shootdowns: {attrib.shootdowns} rounds, "
            f"cost {_fmt_ns(attrib.shootdown_cost_ns)}"
        )
    if attrib.pt_walks or attrib.pt_replications or attrib.thread_migrations:
        frac = (
            attrib.pt_local_walks / attrib.pt_walks if attrib.pt_walks else 0.0
        )
        lines.append(
            f"page tables: {attrib.pt_walks} walks ({frac:.1%} local, "
            f"stall {_fmt_ns(attrib.pt_walk_stall_ns)}), "
            f"{attrib.pt_replications} PT replications, "
            f"{attrib.thread_migrations} thread migrations"
        )
    ledger = attrib.ledger
    if ledger and not attrib.miss_events:
        lines.append(f"payoff: {len(ledger)} decisions, not measured "
                     f"({_NO_MISSES})")
    elif ledger:
        regrets = attrib.regrets
        saved = sum(d.saved_ns for d in ledger)
        cost = sum(d.total_cost_ns for d in ledger)
        lines.append(
            f"payoff: {len(ledger)} decisions saved {_fmt_ns(saved)} "
            f"for {_fmt_ns(cost)} paid (net {_fmt_ns(saved - cost)}); "
            f"{len(regrets)} net-regret"
        )
    return "\n".join(lines)


def format_ledger(attrib: Attribution, top: int = 10) -> str:
    """The per-decision payoff table, worst net payoff first."""
    ledger = sorted(attrib.ledger, key=lambda d: (d.net_ns, d.t))
    if not ledger:
        return "(no successful decisions in this stream)"
    measured = attrib.miss_events > 0
    header = (
        f"{'t (ms)':>10} {'page':>8} {'action':<16} {'cost':>10} "
        f"{'saved':>10} {'net':>10}  verdict"
    )
    lines = [header, "-" * len(header)]
    if not measured:
        lines.insert(0, f"({_NO_MISSES})")
    for rec in ledger[: top if top > 0 else len(ledger)]:
        if measured:
            saved, net = _fmt_ns(rec.saved_ns), _fmt_ns(rec.net_ns)
            verdict = "REGRET" if rec.regret else "paid off"
        else:
            saved, net, verdict = "-", "-", "unmeasured"
        lines.append(
            f"{rec.t / 1e6:>10.2f} {rec.page:>8} {rec.kind:<16} "
            f"{_fmt_ns(rec.total_cost_ns):>10} {saved:>10} "
            f"{net:>10}  {verdict}"
        )
    if top > 0 and len(ledger) > top:
        lines.append(f"... {len(ledger) - top} more (use --top to widen)")
    return "\n".join(lines)


def format_nodes(attrib: Attribution) -> str:
    """Per-node residency and demand table."""
    if not attrib.nodes:
        return "(no node attribution: stream has no topology header)"
    header = (
        f"{'node':>5} {'misses':>10} {'local':>10} {'stall':>12} "
        f"{'serviced':>10} {'resident':>9} {'peak':>6}"
    )
    lines = [header, "-" * len(header)]
    for node_id in sorted(attrib.nodes):
        node = attrib.nodes[node_id]
        lines.append(
            f"{node.node:>5} {node.misses:>10} {node.local:>10} "
            f"{_fmt_ns(node.stall_ns):>12} {node.serviced:>10} "
            f"{node.resident_pages:>9} {node.peak_resident:>6}"
        )
    return "\n".join(lines)


def format_intervals(attrib: Attribution) -> str:
    """Per-reset-interval decision activity (``analyze --intervals``).

    A slice after the last :class:`IntervalReset` is the run's tail (the
    end-of-run drain services its queue there).  Failed ``no-page``
    attempts are not counted as moves.
    """
    header = (
        f"{'interval':>8} {'end (ms)':>10} {'hot':>6} {'migr':>6} "
        f"{'repl':>6} {'none':>6} {'coll':>6}"
    )
    lines = [header, "-" * len(header)]
    has_tail = attrib.interval_resets and (
        len(attrib.intervals) > attrib.interval_resets
    )
    for n, s in enumerate(attrib.intervals):
        tail = has_tail and n == len(attrib.intervals) - 1
        lines.append(
            f"{'tail' if tail else s.index:>8} {s.end_t / 1e6:>10.2f} "
            f"{s.hot_triggers:>6} {s.migrations:>6} {s.replications:>6} "
            f"{s.no_actions:>6} {s.collapses:>6}"
        )
    return "\n".join(lines)


#: Kinds that make up a page's decision timeline (misses excluded: they
#: describe cost, not choice, and would swamp it).
DECISION_KINDS = (
    HotPageTriggered,
    MigrationDecision,
    ReplicationDecision,
    NoActionDecision,
    CollapseEvent,
)


def describe_event(event: TraceEvent) -> str:
    """One human-readable timeline line for a decision event."""
    t_ms = event.t / 1e6
    if isinstance(event, HotPageTriggered):
        return (
            f"{t_ms:>10.2f}ms  hot-page       cpu {event.cpu} hit "
            f"{event.count} misses (trigger {event.threshold})"
        )
    if isinstance(event, MigrationDecision):
        where = f"node {event.src} -> {event.dst}"
        if event.outcome != "migrated":
            where += f" [{event.outcome}]"
        return (
            f"{t_ms:>10.2f}ms  migration      {where} for cpu {event.cpu} "
            f"({event.reason}, {event.latency_ns / 1e3:.0f}us)"
        )
    if isinstance(event, ReplicationDecision):
        where = f"copy on node {event.dst}"
        if event.outcome != "replicated":
            where += f" [{event.outcome}]"
        return (
            f"{t_ms:>10.2f}ms  replication    {where} for cpu {event.cpu} "
            f"({event.reason}, {event.latency_ns / 1e3:.0f}us)"
        )
    if isinstance(event, NoActionDecision):
        return (
            f"{t_ms:>10.2f}ms  no action      cpu {event.cpu} ({event.reason})"
        )
    if isinstance(event, CollapseEvent):
        return (
            f"{t_ms:>10.2f}ms  collapse       write from cpu {event.cpu}, "
            f"kept node {event.keep_node}, dropped "
            f"{event.replicas_dropped} replica(s)"
        )
    return f"{t_ms:>10.2f}ms  {event.KIND}"


def format_page(
    attrib: Attribution, page_id: int, events: Iterable[TraceEvent] = ()
) -> str:
    """One page's reconstructed lifecycle, ledger and decision timeline.

    ``events`` is the stream to draw the timeline from — a second pass
    over the log, filtered here, so the attribution itself keeps no
    per-event history.
    """
    page = attrib.pages.get(page_id)
    if page is None:
        return f"page {page_id}: never appears in this stream"
    measured = attrib.miss_events > 0
    if measured:
        first = (
            f"first touch {page.first_touch_t / 1e6:.2f}ms "
            f"on node {page.first_node}"
        )
    else:
        first = f"first touch unknown ({_NO_MISSES})"
    lines = [f"page {page_id}: {first}; final copies "
             f"{sorted(page.copies) or '[]'}"]
    if measured:
        lines.append(
            f"  misses: {page.misses} ({page.local} local)  "
            f"stall {_fmt_ns(page.stall_ns)} "
            f"(local {_fmt_ns(page.local_stall_ns)})"
        )
    lines.append(
        f"  activity: {page.hot_triggers} triggers, "
        f"{page.migrations} migrations, {page.replications} replications, "
        f"{page.collapses} collapses, {page.no_actions} no-action, "
        f"{page.failed_actions} failed  "
        f"(cost {_fmt_ns(page.action_cost_ns)})"
    )
    for rec in page.ledger:
        payoff = ""
        if measured:
            verdict = "REGRET" if rec.regret else "paid off"
            payoff = (f" saved {_fmt_ns(rec.saved_ns)} "
                      f"net {_fmt_ns(rec.net_ns)} ({verdict})")
        lines.append(
            f"  {rec.t / 1e6:>9.2f}ms {rec.kind} "
            f"{rec.src} -> {rec.dst} [{rec.reason}] "
            f"cost {_fmt_ns(rec.total_cost_ns)}{payoff}"
        )
    timeline = [
        describe_event(e)
        for e in events
        if isinstance(e, DECISION_KINDS) and e.page == page_id
    ]
    if timeline:
        lines.append(f"  decision timeline ({len(timeline)} events):")
        lines += ["  " + line for line in timeline]
    return "\n".join(lines)


def format_top_pages(attrib: Attribution, top: int = 10) -> str:
    """Highest-stall pages, the 'where does the time live' table.

    Ties (every page, on a log without miss events) go to the pages the
    policy acted on most.
    """
    pages = sorted(
        attrib.pages.values(),
        key=lambda p: (
            -p.stall_ns, -(p.migrations + p.replications + p.collapses),
            p.page,
        ),
    )[: top if top > 0 else None]
    if not pages:
        return "(no per-page stall: stream has no miss events)"
    header = (
        f"{'page':>8} {'misses':>9} {'local%':>7} {'stall':>12} "
        f"{'migr':>5} {'repl':>5} {'coll':>5} {'copies':<10}"
    )
    lines = [header, "-" * len(header)]
    for page in pages:
        local_pct = page.local / page.misses * 100 if page.misses else 0.0
        lines.append(
            f"{page.page:>8} {page.misses:>9} {local_pct:>6.1f}% "
            f"{_fmt_ns(page.stall_ns):>12} {page.migrations:>5} "
            f"{page.replications:>5} {page.collapses:>5} "
            f"{str(sorted(page.copies)):<10}"
        )
    return "\n".join(lines)


def format_diff(diff: AttribDiff, top: int = 10) -> str:
    """The ``repro analyze diff`` report."""
    lines = [
        f"pages: {diff.common} common "
        f"({diff.identical} identical, {len(diff.divergent)} divergent), "
        f"{len(diff.only_a)} only in A, {len(diff.only_b)} only in B",
        f"total stall delta (B - A): {_fmt_ns(diff.stall_delta_ns)}",
    ]
    if diff.is_identical:
        lines.append("runs are identical at page granularity")
        return "\n".join(lines)
    shown = diff.divergent[: top if top > 0 else len(diff.divergent)]
    if shown:
        header = (
            f"{'page':>8} {'stall A':>12} {'stall B':>12} {'delta':>12} "
            f"{'misses A/B':>12} {'actions A -> B'}"
        )
        lines += [header, "-" * len(header)]
        for d in shown:
            lines.append(
                f"{d.page:>8} {_fmt_ns(d.stall_a):>12} "
                f"{_fmt_ns(d.stall_b):>12} {_fmt_ns(d.stall_delta):>12} "
                f"{d.misses_a:>5}/{d.misses_b:<6} "
                f"{d.actions_a} -> {d.actions_b}"
            )
        if len(diff.divergent) > len(shown):
            lines.append(
                f"... {len(diff.divergent) - len(shown)} more divergent pages"
            )
    return "\n".join(lines)
