"""Batched event emission for the vectorized replay engines.

The scalar replay cores emit events inline, in stream order, as a side
effect of walking every record.  The vectorized engines do not walk
every record: a segment's cold events are accounted in bulk *after* its
hot candidates were sub-replayed, and pager interrupts are drained at
hot events or segment boundaries rather than at the exact record the
scalar core pops them on.  Emitting inline from that execution order
would scramble the log.

:class:`BatchEmitter` restores the scalar order.  Every emission is
buffered together with a sort key:

``(index, phase, seq)``
    * ``index`` — the event's position in the merged input stream (the
      global record index the scalar core would have been processing
      when it emitted this event).  The engine sets
      :attr:`BatchEmitter.index` before each emission; deferred pager
      actions get the index of the record the scalar core drains them
      on (the first record whose timestamp reaches the action's due
      time).
    * ``phase`` — orders emissions that share one index.  At a single
      record the scalar core emits, in order: drained pager decisions,
      reset-flushed decisions, the :class:`IntervalReset`, then the
      record's own events (collapse, miss, hot-page).  A per-engine
      kind table supplies the phase for record-own events; the engine
      overrides :attr:`BatchEmitter.phase` around decision drains and
      flushes.
    * ``seq`` — a monotone emission counter; ties within one
      ``(index, phase)`` keep their emission order, which for
      contiguous scalar-order emissions is already correct.

:meth:`flush` sorts the buffer and forwards it to the wrapped tracer,
which then sees exactly the event sequence the scalar core produces —
the byte-identity contract extends to event logs.  The engines flush at
every interval reset and at end of run, so buffered memory is bounded by
one reset interval's emissions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.events import TraceEvent

#: Same-index emission order for the dynamic data replay
#: (:mod:`repro.trace.fastpath`).  Phases 0 and 1 are set explicitly by
#: the engine: 0 for decisions drained at the record (due time reached),
#: 1 for decisions flushed by an interval reset before falling due.
DATA_REPLAY_PHASES: Dict[str, int] = {
    "migration": 0,
    "replication": 0,
    "no-action": 0,
    "interval-reset": 2,
    "collapse": 3,
    "miss": 4,
    "hot-page": 5,
}

#: Same-index emission order for the page-table policy replay
#: (:mod:`repro.ptpol.fastpath`).  The scalar core drains the data
#: pending queue before the PT pending queue, and at a reset drains the
#: due entries of both before flushing the rest of both — four explicit
#: phases (0/1 drained data/PT, 2/3 flushed data/PT) set by the engine.
PT_REPLAY_PHASES: Dict[str, int] = {
    "migration": 0,
    "replication": 0,
    "no-action": 0,
    "pt-replicate": 1,
    "thread-migrate": 1,
    "shootdown": 1,
    "interval-reset": 4,
    "miss": 5,
    "hot-page": 6,
}


class BatchEmitter:
    """Order-restoring emission buffer in front of a tracer.

    Duck-types the tracer surface the replay cores use (``active``,
    ``wants``, ``emit``), so the shared scalar state machines emit
    through it unchanged; the engine drives :attr:`index` and
    :attr:`phase` and calls :meth:`flush` at interval boundaries.
    """

    __slots__ = ("tracer", "phases", "index", "phase", "_seq", "_buf")

    def __init__(self, tracer, phases: Dict[str, int]) -> None:
        self.tracer = tracer
        self.phases = phases
        self.index = 0
        #: Explicit phase override; ``None`` falls back to the kind table.
        self.phase: Optional[int] = None
        self._seq = 0
        self._buf: List[Tuple[int, int, int, TraceEvent]] = []

    @property
    def active(self) -> bool:
        return self.tracer.active

    def wants(self, kind: str) -> bool:
        return self.tracer.wants(kind)

    def emit(self, event: TraceEvent) -> None:
        """Buffer one event under the current ``(index, phase)`` key."""
        if not self.tracer.wants(event.KIND):
            return
        phase = self.phase
        if phase is None:
            phase = self.phases.get(event.KIND, 0)
        self._buf.append((self.index, phase, self._seq, event))
        self._seq += 1

    def flush(self) -> None:
        """Forward the buffer to the tracer in scalar stream order."""
        buf = self._buf
        if not buf:
            return
        # ``seq`` is unique, so tuple order never compares two events.
        buf.sort()
        emit = self.tracer.emit
        for rec in buf:
            emit(rec[3])
        buf.clear()
