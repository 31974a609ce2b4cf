"""The structured-event taxonomy of the observability layer.

Every event the simulator stack can emit is a frozen dataclass with a
stable ``KIND`` tag and JSON-safe fields (ints, floats, bools, strings).
Events answer the questions the paper's evaluation keeps asking — *why*
was this page migrated / replicated / left alone (Figure 2, Table 4),
where did kernel time go inside an interval (Tables 5/6) — at the
granularity of individual decisions instead of end-of-run aggregates.

The taxonomy:

========================  ====================================================
event                     emitted when
========================  ====================================================
:class:`MissServiced`     the memory system services one (weighted) miss
:class:`HotPageTriggered` a directory counter crosses the trigger threshold
:class:`MigrationDecision`    the pager attempts a migration (or fails: no page)
:class:`ReplicationDecision`  the pager attempts a replication (or fails)
:class:`NoActionDecision` the decision tree (or a race) leaves a hot page alone
:class:`CollapseEvent`    a store to a replicated page collapses the replicas
:class:`ShootdownEvent`   a TLB flush round is issued
:class:`IntervalReset`    a reset interval expires and counters are cleared
:class:`TriggerAdjusted`  the adaptive controller moves the trigger threshold
:class:`PtReplicate`      a page-table page gains a replica on a node
:class:`ThreadMigrate`    the co-placement policy re-homes a thread
:class:`RunMeta`          a simulation starts (machine/policy context header)
========================  ====================================================

``to_dict`` / ``event_from_dict`` provide an exact, order-stable mapping
to plain dictionaries, which the JSONL exporter relies on for
byte-identical logs across identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Tuple, Type

from repro.common.errors import TraceError


@dataclass(frozen=True)
class TraceEvent:
    """Base class: a timestamped, typed observation of the simulation."""

    t: int                       # simulated time, nanoseconds

    KIND: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, Any]:
        """Stable-ordered plain-dict form (``kind`` first, fields after)."""
        out: Dict[str, Any] = {"kind": self.KIND}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class MissServiced(TraceEvent):
    """One (weighted) secondary-cache miss serviced by the memory system."""

    cpu: int = 0
    page: int = 0
    node: int = 0                # home node that serviced the miss
    weight: int = 1
    latency_ns: float = 0.0      # per-miss latency including queuing
    remote: bool = False
    kernel: bool = False
    process: int = -1            # requesting process (-1 when untracked)
    walk: bool = False           # a page-table walk, not a data miss

    KIND: ClassVar[str] = "miss"


@dataclass(frozen=True)
class HotPageTriggered(TraceEvent):
    """A page's miss counter crossed the trigger threshold (queued for the pager)."""

    page: int = 0
    cpu: int = 0                 # CPU whose counter triggered
    count: int = 0               # counter value at trigger time
    threshold: int = 0

    KIND: ClassVar[str] = "hot-page"


@dataclass(frozen=True)
class MigrationDecision(TraceEvent):
    """The pager chose migration for a hot page.

    ``outcome`` is ``"migrated"`` on success or ``"no-page"`` when the
    target node had no free frame (Table 4's failure bucket).
    """

    page: int = 0
    cpu: int = 0                 # requesting CPU
    src: int = -1                # node the page left (-1 when unknown)
    dst: int = -1                # node the page was headed to
    outcome: str = "migrated"
    reason: str = ""             # decision-tree branch (Reason.value)
    latency_ns: float = 0.0      # end-to-end handler latency charged

    KIND: ClassVar[str] = "migration"


@dataclass(frozen=True)
class ReplicationDecision(TraceEvent):
    """The pager chose replication for a hot page (outcome as for migration)."""

    page: int = 0
    cpu: int = 0
    src: int = -1                # node of an existing copy
    dst: int = -1                # node the replica was created on
    outcome: str = "replicated"
    reason: str = ""
    latency_ns: float = 0.0

    KIND: ClassVar[str] = "replication"


@dataclass(frozen=True)
class NoActionDecision(TraceEvent):
    """A hot page was deliberately (or unavoidably) left alone."""

    page: int = 0
    cpu: int = 0
    reason: str = ""             # decision-tree veto, or a race note

    KIND: ClassVar[str] = "no-action"


@dataclass(frozen=True)
class CollapseEvent(TraceEvent):
    """A store to a replicated page collapsed its replicas (pfault path)."""

    page: int = 0
    cpu: int = 0                 # writing CPU
    keep_node: int = 0           # node whose copy survived
    replicas_dropped: int = 0
    latency_ns: float = 0.0

    KIND: ClassVar[str] = "collapse"


@dataclass(frozen=True)
class ShootdownEvent(TraceEvent):
    """One TLB flush round (Step 6 of Figure 2, or a collapse flush)."""

    origin_cpu: int = -1         # CPU running the handler
    mode: str = "all"            # ShootdownMode.value
    cpus_flushed: int = 0
    frames: int = 0              # page frames whose mappings went stale
    cost_ns: float = 0.0         # flush cost charged (base + per-CPU)

    KIND: ClassVar[str] = "shootdown"


@dataclass(frozen=True)
class IntervalReset(TraceEvent):
    """A reset interval expired: counters cleared, pending work drained."""

    index: int = 0               # 0-based interval number that just ended
    tracked_pages: int = 0       # pages with live counters at expiry
    triggers: int = 0            # cumulative trigger count so far

    KIND: ClassVar[str] = "interval-reset"


@dataclass(frozen=True)
class TriggerAdjusted(TraceEvent):
    """The adaptive controller moved the trigger threshold (Section 8.4)."""

    old_trigger: int = 0
    new_trigger: int = 0
    overhead_fraction: float = 0.0
    remote_fraction: float = 0.0

    KIND: ClassVar[str] = "trigger-adjusted"


@dataclass(frozen=True)
class PtReplicate(TraceEvent):
    """A page-table page gained a replica on ``node``.

    The PT-replication policy (:mod:`repro.ptpol`) fires when remote
    page-table walks of one PT page from one node cross the walk
    trigger — the Mitosis mechanism.  ``latency_ns`` is the one-time
    replica construction cost charged; write propagation to the replica
    is charged separately as it happens (``ptpol.pt_update`` costs).
    """

    process: int = 0             # process whose walk triggered
    cpu: int = 0                 # CPU whose walk counter triggered
    pt_page: int = 0             # PT page that was replicated
    node: int = 0                # node that gained the replica
    src: int = -1                # node of the primary PT page
    walks: int = 0               # remote-walk count at trigger time
    reason: str = ""
    latency_ns: float = 0.0

    KIND: ClassVar[str] = "pt-replicate"


@dataclass(frozen=True)
class ThreadMigrate(TraceEvent):
    """The co-placement policy re-homed a thread to its page table.

    Emitted when migrating the thread is cheaper under the cost model
    than replicating its page table (the Phoenix-style tie-break; see
    docs/PTPOLICY.md).  After this event the thread's misses and walks
    are costed from ``dst``.
    """

    process: int = 0
    cpu: int = 0                 # CPU the thread was re-homed on
    src: int = -1                # node the thread left
    dst: int = -1                # node it was co-placed on
    reason: str = ""
    latency_ns: float = 0.0

    KIND: ClassVar[str] = "thread-migrate"


@dataclass(frozen=True)
class RunMeta(TraceEvent):
    """Header event describing the run that produced the stream.

    Emitted once at ``t=0`` before any decision events so post-hoc
    consumers (``repro analyze``) can reconstruct stall arithmetic —
    latencies, node topology, per-action cost — without the original
    spec in hand.  All fields default to "unknown" so older logs
    without a header still parse.
    """

    label: str = ""              # spec / policy label for display
    n_cpus: int = 0
    n_nodes: int = 0
    local_ns: float = 0.0        # local miss latency
    remote_ns: float = 0.0       # remote miss latency
    op_cost_ns: float = 0.0      # per migrate/replicate/collapse op cost
    trigger: int = 0             # hot-page trigger threshold
    reset_interval_ns: int = 0
    pt_walk_local_ns: float = 0.0   # PT-walk latencies (0 when the run
    pt_walk_remote_ns: float = 0.0  # has no page-table model)
    pt_span_pages: int = 0          # data pages per PT page (0 = no PT model)

    KIND: ClassVar[str] = "run-meta"


#: Every concrete event type, in taxonomy order.
EVENT_TYPES: Tuple[Type[TraceEvent], ...] = (
    MissServiced,
    HotPageTriggered,
    MigrationDecision,
    ReplicationDecision,
    NoActionDecision,
    CollapseEvent,
    ShootdownEvent,
    IntervalReset,
    TriggerAdjusted,
    PtReplicate,
    ThreadMigrate,
    RunMeta,
)

#: KIND tag -> event class.
KIND_TO_TYPE: Dict[str, Type[TraceEvent]] = {t.KIND: t for t in EVENT_TYPES}

#: Set of all valid KIND tags (handy for tracer filters).
ALL_KINDS = frozenset(KIND_TO_TYPE)


def event_from_dict(data: Dict[str, Any]) -> TraceEvent:
    """Rebuild an event from its :meth:`TraceEvent.to_dict` form.

    Raises :class:`~repro.common.errors.TraceError` on unknown kinds or
    field mismatches, so corrupted logs fail loudly rather than silently.
    """
    kind = data.get("kind")
    cls = KIND_TO_TYPE.get(kind)
    if cls is None:
        raise TraceError(f"unknown event kind: {kind!r}")
    payload = {k: v for k, v in data.items() if k != "kind"}
    if cls is RunMeta:
        # Older headers also name the replay engine; there is only one
        # now, so the key is dropped and those logs still load.
        payload.pop("engine", None)
    try:
        return cls(**payload)
    except TypeError as exc:
        raise TraceError(f"malformed {kind!r} event: {exc}") from exc
