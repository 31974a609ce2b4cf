"""The structured event tracer: a bounded ring buffer plus pluggable sinks.

Design constraints, in priority order:

1. **Zero cost when disabled.**  Instrumented call sites guard event
   *construction* behind ``tracer.active`` (a plain attribute read), so a
   disabled tracer allocates nothing per event; hot loops precompute
   ``tracer.wants(kind)`` into a local once per run.  The module-level
   :data:`NULL_TRACER` makes "no tracer" and "disabled tracer" follow the
   same code path.
2. **Bounded memory.**  A tracer without sinks keeps the most recent
   ``capacity`` events in its ring; overflow just drops the oldest
   (``dropped`` counts them).  A tracer with sinks keeps no ring: its
   sinks see *every* event, and exporters that need the full stream
   (e.g. the JSONL log) attach a sink rather than reading the ring.
3. **Determinism.**  The tracer adds no timestamps or ids of its own;
   events carry simulated time only, so identical runs produce identical
   event streams.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from repro.obs.events import ALL_KINDS, TraceEvent


class Sink:
    """Interface for event consumers attached to a :class:`Tracer`."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; default is a no-op."""


class ListSink(Sink):
    """Collects every event into a plain list (tests, small runs)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class CountingSink(Sink):
    """Counts emissions without retaining them (overhead assertions)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, event: TraceEvent) -> None:
        self.count += 1


class Tracer:
    """Typed-event tracer with a bounded ring buffer and fan-out sinks."""

    __slots__ = ("capacity", "sinks", "enabled", "emitted", "_kinds", "_ring")

    def __init__(
        self,
        capacity: int = 65536,
        sinks: Optional[Iterable[Sink]] = None,
        kinds: Optional[Iterable[str]] = None,
        enabled: bool = True,
    ) -> None:
        """``kinds`` restricts which event kinds are recorded (None = all)."""
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.sinks: List[Sink] = list(sinks) if sinks is not None else []
        self._kinds = None if kinds is None else frozenset(kinds)
        if self._kinds is not None and not self._kinds <= ALL_KINDS:
            unknown = sorted(self._kinds - ALL_KINDS)
            raise ValueError(f"unknown event kinds: {unknown}")
        self.enabled = enabled
        self.emitted = 0
        self._ring: Optional[Deque[TraceEvent]] = (
            None if self.sinks else deque(maxlen=capacity)
        )

    @property
    def active(self) -> bool:
        """True when emitting is worthwhile (guards event construction)."""
        return self.enabled

    def wants(self, kind: str) -> bool:
        """Would an event of ``kind`` be recorded?  (Precompute in hot loops.)"""
        return self.enabled and (self._kinds is None or kind in self._kinds)

    def emit(self, event: TraceEvent) -> None:
        """Record one event: in the ring, or in every sink."""
        if not self.enabled:
            return
        if self._kinds is not None and event.KIND not in self._kinds:
            return
        self.emitted += 1
        if self._ring is not None:
            self._ring.append(event)
        for sink in self.sinks:
            sink.emit(event)

    def events(self) -> List[TraceEvent]:
        """The ring's contents, oldest first (none with sinks attached)."""
        return list(self._ring) if self._ring is not None else []

    @property
    def dropped(self) -> int:
        """Events evicted from the ring by overflow (0 with sinks)."""
        if self._ring is None:
            return 0
        return max(0, self.emitted - self.capacity)

    def close(self) -> None:
        """Close every attached sink."""
        for sink in self.sinks:
            sink.close()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A singleton (:data:`NULL_TRACER`) stands in wherever no tracer was
    supplied, so instrumented components never need a None check beyond
    construction time.
    """

    __slots__ = ()

    active = False
    enabled = False
    emitted = 0
    dropped = 0

    def wants(self, kind: str) -> bool:
        return False

    def emit(self, event: TraceEvent) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []

    def close(self) -> None:
        pass


#: Shared disabled tracer; components default to this.
NULL_TRACER = NullTracer()


def as_tracer(tracer):
    """Normalise an optional tracer argument to a usable tracer object."""
    return NULL_TRACER if tracer is None else tracer
