"""Hierarchical span profiler: where did this run's wall-clock go?

The decision tracer answers *why* the policy acted; this module answers
*where the host's time went* doing it — the reproduction's own Table 5/6
for itself.  A :class:`Profiler` hands out nested ``span(...)`` context
managers around the stack's phase-level seams (simulator setup/replay,
policy replay, per-chunk streaming, sweep tasks, store record vs
replay) and aggregates per-path wall time, item throughput and peak RSS.

Design constraints mirror :mod:`repro.obs.tracer`:

1. **Zero cost when disabled.**  ``Profiler(enabled=False)`` (the
   shared :data:`NULL_PROFILER` is one) returns one reusable no-op
   context manager from :meth:`Profiler.span`, so instrumented seams
   allocate nothing.  Spans wrap *phases*, never per-event loop bodies.
2. **Never perturbs the simulation.**  Spans read the wall clock and
   touch profiler-private state only; RNG streams and every simulated
   result are byte-identical with profiling on or off (asserted by the
   test suite).

:class:`RunReport` packages one run's profile — spans, peak RSS, an
optional metrics snapshot — as a schema-versioned dict following the
``RESULT_SCHEMA_VERSION`` conventions of :mod:`repro.sim.results`.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.stats import OnlineStats


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``getrusage`` reports KiB on Linux and bytes on macOS; stdlib-only,
    so it works wherever the simulator does (no psutil dependency).
    """
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak if sys.platform == "darwin" else peak * 1024


def resource_usage() -> Dict[str, float]:
    """This process's resource telemetry: peak RSS and CPU time.

    The triple every RunReport and bench artifact records so the
    run-history store can enforce scale-tier wall/memory targets from
    trends rather than single snapshots (``docs/OBSERVABILITY.md``).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "peak_rss_bytes": float(peak_rss_bytes()),
        "cpu_user_s": float(usage.ru_utime),
        "cpu_sys_s": float(usage.ru_stime),
    }


@dataclass
class SpanRecord:
    """One completed span."""

    name: str
    path: str                    # "/"-joined nesting path, e.g. "sim.run/sim.replay"
    start_ns: int                # relative to the profiler's origin
    wall_ns: int
    depth: int = 0
    items: int = 0               # events/misses/tasks processed inside

    @property
    def items_per_s(self) -> float:
        """Throughput of whatever the span counted (0 when untimed/empty)."""
        if self.items <= 0 or self.wall_ns <= 0:
            return 0.0
        return self.items / (self.wall_ns / 1e9)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "start_ns": self.start_ns,
            "wall_ns": self.wall_ns,
            "depth": self.depth,
            "items": self.items,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        # Older reports' spans also carry ``alloc_bytes``; extra keys
        # are ignored, so they still load.
        return cls(
            name=str(data["name"]),
            path=str(data["path"]),
            start_ns=int(data["start_ns"]),
            wall_ns=int(data["wall_ns"]),
            depth=int(data["depth"]),
            items=int(data["items"]),
        )


class Span:
    """A live span; use as a context manager (``with profiler.span(...)``)."""

    __slots__ = ("_profiler", "name", "items", "path", "depth", "_start")

    def __init__(self, profiler: "Profiler", name: str, items: int) -> None:
        self._profiler = profiler
        self.name = name
        self.items = int(items)
        self.path = name
        self.depth = 0
        self._start = 0

    def add_items(self, n: int) -> None:
        """Credit ``n`` more processed items to this span."""
        self.items += int(n)

    def __enter__(self) -> "Span":
        prof = self._profiler
        stack = prof._stack
        if stack:
            parent = stack[-1]
            self.depth = parent.depth + 1
            self.path = f"{parent.path}/{self.name}"
        stack.append(self)
        self._start = prof._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        prof = self._profiler
        end = prof._clock()
        stack = prof._stack
        if not stack or stack[-1] is not self:
            raise ConfigurationError(
                f"span {self.path!r} closed out of order; spans must nest"
            )
        stack.pop()
        prof._close(self, end - self._start)
        return False


class _NullSpan:
    """The disabled span: a reusable no-op context manager."""

    __slots__ = ()

    items = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add_items(self, n: int) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Profiler:
    """Hierarchical wall-clock profiler with per-path aggregates."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter_ns) -> None:
        self.enabled = enabled
        self._clock = clock
        self._stack: List[Span] = []
        self.records: List[SpanRecord] = []   # completed spans, close order
        self._by_path: Dict[str, OnlineStats] = {}
        self._items_by_path: Dict[str, int] = {}
        self._origin = clock() if enabled else 0

    @property
    def active(self) -> bool:
        """True when spans are being recorded (guards optional work)."""
        return self.enabled

    def span(self, name: str, items: int = 0):
        """A context manager timing one named phase (nests freely)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, items)

    def _close(self, span: Span, wall_ns: int) -> None:
        record = SpanRecord(
            name=span.name,
            path=span.path,
            start_ns=span._start - self._origin,
            wall_ns=wall_ns,
            depth=span.depth,
            items=span.items,
        )
        self.records.append(record)
        stats = self._by_path.get(record.path)
        if stats is None:
            stats = self._by_path[record.path] = OnlineStats()
        stats.add(wall_ns)
        self._items_by_path[record.path] = (
            self._items_by_path.get(record.path, 0) + record.items
        )

    # -- aggregates ------------------------------------------------------------

    @property
    def total_ns(self) -> int:
        """Wall time covered by top-level (depth-0) spans."""
        return sum(r.wall_ns for r in self.records if r.depth == 0)

    def stats(self) -> Dict[str, OnlineStats]:
        """Per-path wall-time aggregates (live references)."""
        return dict(self._by_path)

    def items(self, path: str) -> int:
        """Total items credited to ``path`` across all its spans."""
        return self._items_by_path.get(path, 0)

    def summary(self) -> str:
        """A per-path table: calls, total/mean wall, items, throughput."""
        header = (
            f"{'path':<44} {'calls':>6} {'total (ms)':>11} "
            f"{'mean (ms)':>10} {'items':>12} {'items/s':>12}"
        )
        lines = [header, "-" * len(header)]
        for path in sorted(self._by_path):
            stats = self._by_path[path]
            items = self._items_by_path.get(path, 0)
            rate = items / (stats.total / 1e9) if stats.total > 0 else 0.0
            lines.append(
                f"{path:<44} {stats.count:>6} {stats.total / 1e6:>11.3f} "
                f"{stats.mean / 1e6:>10.3f} {items:>12} {rate:>12.0f}"
            )
        if len(lines) == 2:
            lines.append("(no spans recorded)")
        return "\n".join(lines)


#: Shared disabled profiler; components default to this.
NULL_PROFILER = Profiler(enabled=False)


def as_profiler(profiler) -> "Profiler":
    """Normalise an optional profiler argument to a usable object."""
    return NULL_PROFILER if profiler is None else profiler


# -- run reports -----------------------------------------------------------------


@dataclass
class RunReport:
    """One run's profile, packaged for persistence (``--profile-out``)."""

    label: str
    command: str = ""
    wall_ns: int = 0
    peak_rss: int = 0
    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0
    spans: List[SpanRecord] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_profiler(
        cls,
        label: str,
        profiler,
        command: str = "",
        metrics: Optional[Dict[str, float]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """Snapshot a profiler's completed spans into a report."""
        usage = resource_usage()
        return cls(
            label=label,
            command=command,
            wall_ns=int(profiler.total_ns),
            peak_rss=int(usage["peak_rss_bytes"]),
            cpu_user_s=usage["cpu_user_s"],
            cpu_sys_s=usage["cpu_sys_s"],
            spans=list(profiler.records),
            metrics=dict(metrics) if metrics else {},
            context=dict(context) if context else {},
        )

    def to_dict(self) -> Dict[str, Any]:
        """Versioned, JSON-safe snapshot (see :meth:`from_dict`)."""
        # Imported lazily: sim.results reaches this package through the
        # kernel cost models, so a module-level import would be circular.
        from repro.sim.results import RESULT_SCHEMA_VERSION

        return {
            "kind": "report",
            "schema_version": RESULT_SCHEMA_VERSION,
            "label": self.label,
            "command": self.command,
            "wall_ns": self.wall_ns,
            "peak_rss": self.peak_rss,
            "cpu_user_s": self.cpu_user_s,
            "cpu_sys_s": self.cpu_sys_s,
            "spans": [s.to_dict() for s in self.spans],
            "metrics": dict(self.metrics),
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Raises :class:`~repro.common.errors.ResultSchemaError` on a kind
        or schema-version mismatch.
        """
        from repro.sim.results import check_schema

        check_schema(data, "report")
        return cls(
            label=str(data["label"]),
            command=str(data["command"]),
            wall_ns=int(data["wall_ns"]),
            peak_rss=int(data["peak_rss"]),
            # Reports written before the resource-telemetry satellite
            # carry no CPU fields; default them instead of refusing.
            cpu_user_s=float(data.get("cpu_user_s", 0.0)),
            cpu_sys_s=float(data.get("cpu_sys_s", 0.0)),
            spans=[SpanRecord.from_dict(s) for s in data["spans"]],
            metrics={k: float(v) for k, v in data["metrics"].items()},
            context=dict(data["context"]),
        )
