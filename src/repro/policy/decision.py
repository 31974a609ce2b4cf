"""The replication/migration decision tree (Figure 1 of the paper).

The caller establishes node 1 (the page is hot — its miss counter for
``cpu`` crossed the trigger threshold — and remote to that CPU); this
module implements nodes 2–3:

* node 2 — *sharing*: if any other processor's miss counter exceeds the
  sharing threshold the page is shared (replication branch); otherwise it
  is effectively private (migration branch);
* node 3a — replication is allowed only if the write counter has not
  exceeded the write threshold and there is no memory pressure;
* node 3b — migration is allowed only if the page has not already been
  migrated more than the migrate threshold permits this interval.

``decide`` is a pure function of its inputs, which makes the policy easy
to property-test: write-shared pages never move, unshared hot pages always
migrate (until the migrate limit), and so on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.policy.parameters import PolicyParameters


class Action(enum.Enum):
    """What the pager should do with a hot page."""

    MIGRATE = "migrate"
    REPLICATE = "replicate"
    NOTHING = "nothing"


class Reason(enum.Enum):
    """Why the decision tree chose its action (for Table 4 analysis)."""

    UNSHARED = "unshared"                     # -> migrate
    SHARED_READ = "shared-read"               # -> replicate
    WRITE_SHARED = "write-shared"             # shared + writes -> nothing
    MEMORY_PRESSURE = "memory-pressure"       # replication suppressed
    MIGRATE_LIMIT = "migrate-limit"           # already migrated this interval
    MIGRATION_DISABLED = "migration-disabled"
    REPLICATION_DISABLED = "replication-disabled"
    HOTSPOT = "hotspot"                       # write-shared, moved anyway

    __hash__ = object.__hash__  # see repro.kernel.pager.costs.CostCategory


@dataclass(frozen=True)
class Decision:
    """The tree's verdict and the branch that produced it.

    ``target_cpu`` overrides the default migration destination (the
    triggering CPU): hotspot migration sends the page to the *dominant*
    sharer instead.
    """

    action: Action
    reason: Reason
    target_cpu: Optional[int] = None

    def rationale(self) -> str:
        """Compact ``action:reason`` tag used by trace events and logs."""
        tag = f"{self.action.value}:{self.reason.value}"
        if self.target_cpu is not None:
            tag += f"->cpu{self.target_cpu}"
        return tag


def is_shared(
    miss_counts: Sequence[int], cpu: int, sharing_threshold: int
) -> bool:
    """Node 2: does any *other* processor exceed the sharing threshold?"""
    return any(
        count >= sharing_threshold
        for other, count in enumerate(miss_counts)
        if other != cpu
    )


def decide(
    miss_counts: Sequence[int],
    writes: int,
    migrates: int,
    cpu: int,
    params: PolicyParameters,
    memory_pressure: bool = False,
) -> Decision:
    """Run nodes 2–3 of the decision tree for a hot remote page.

    Parameters
    ----------
    miss_counts:
        Per-CPU miss counters for the page this interval.
    writes:
        The page's write counter this interval.
    migrates:
        Times the page has migrated this interval.
    cpu:
        The processor whose counter triggered.
    params:
        Policy thresholds.
    memory_pressure:
        True when the target node is short of free frames, which vetoes
        replication (node 3a).
    """
    if is_shared(miss_counts, cpu, params.sharing_threshold):
        # Replication branch (node 3a).
        if not params.enable_replication:
            return Decision(Action.NOTHING, Reason.REPLICATION_DISABLED)
        if writes >= params.write_threshold:
            return _write_shared_verdict(miss_counts, migrates, cpu, params)
        if memory_pressure:
            return Decision(Action.NOTHING, Reason.MEMORY_PRESSURE)
        return Decision(Action.REPLICATE, Reason.SHARED_READ)
    # Migration branch (node 3b).
    if not params.enable_migration:
        return Decision(Action.NOTHING, Reason.MIGRATION_DISABLED)
    if migrates >= params.migrate_threshold:
        return Decision(Action.NOTHING, Reason.MIGRATE_LIMIT)
    return Decision(Action.MIGRATE, Reason.UNSHARED)


def _write_shared_verdict(
    miss_counts: Sequence[int],
    migrates: int,
    cpu: int,
    params: PolicyParameters,
) -> Decision:
    """Node 3a's veto, or the Section 7.1.2 hotspot-migration extension.

    With ``hotspot_migration`` enabled, a hot write-shared page migrates
    to the node of the processor missing on it hardest — replication is
    impossible, but concentrating the page near its dominant sharer both
    trims remote misses and moves load off the congested home controller.
    """
    if not (params.hotspot_migration and params.enable_migration):
        return Decision(Action.NOTHING, Reason.WRITE_SHARED)
    if migrates >= params.migrate_threshold:
        return Decision(Action.NOTHING, Reason.MIGRATE_LIMIT)
    dominant = max(range(len(miss_counts)), key=lambda c: miss_counts[c])
    return Decision(Action.MIGRATE, Reason.HOTSPOT, target_cpu=int(dominant))
