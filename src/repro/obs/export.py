"""Exporters for the structured event stream.

Two formats, matched to two uses:

* **JSONL** (:class:`JsonlSink`, :func:`read_events`): one compact JSON
  object per line, the archival format.  Writing is streaming (a sink),
  reading validates every line, and identical runs produce byte-identical
  files — which the determinism tests assert.
* **Chrome trace-event JSON** (:func:`to_chrome_trace`): load the file in
  ``chrome://tracing`` / Perfetto to see per-interval timelines — each
  CPU is a track, decisions are instant events, reset intervals are
  duration slices on a dedicated track.
"""

from __future__ import annotations

import gzip
import json
from typing import Dict, Iterable, Iterator, List, Optional

from repro.common.errors import TraceError
from repro.obs.events import (
    CollapseEvent,
    HotPageTriggered,
    IntervalReset,
    MigrationDecision,
    NoActionDecision,
    ReplicationDecision,
    RunMeta,
    TraceEvent,
    event_from_dict,
)
from repro.obs.tracer import Sink


def event_to_json(event: TraceEvent) -> str:
    """One event as a compact, key-order-stable JSON object."""
    return json.dumps(event.to_dict(), separators=(",", ":"))


class JsonlSink(Sink):
    """Streams every event to a JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.written = 0

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(event_to_json(event))
        self._fh.write("\n")
        self.written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write an event sequence to ``path``; returns the number written."""
    sink = JsonlSink(path)
    try:
        for event in events:
            sink.emit(event)
    finally:
        sink.close()
    return sink.written


def _is_gzip(path: str) -> bool:
    """True when ``path`` starts with the gzip magic bytes."""
    with open(path, "rb") as fh:
        return fh.read(2) == b"\x1f\x8b"


def iter_events(
    path: str,
    since_ns: Optional[int] = None,
    until_ns: Optional[int] = None,
) -> Iterator[TraceEvent]:
    """Stream a JSONL event log (plain or gzip-compressed) as typed events.

    ``since_ns`` / ``until_ns`` keep only events with ``since <= t <=
    until``; :class:`~repro.obs.events.RunMeta` headers always pass (a
    windowed view still needs its run context).  The stream is *not*
    assumed time-sorted — pager actions drained at an interval reset can
    carry due-times past later records — so the whole file is always
    scanned.  Malformed lines and truncated gzip streams raise
    :class:`~repro.common.errors.TraceError` with the line number, never
    a bare traceback.
    """
    opener = gzip.open if _is_gzip(path) else open
    lineno = 0
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            for line in fh:
                lineno += 1
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(
                        f"{path}:{lineno}: invalid JSON: {exc}"
                    ) from exc
                if not isinstance(data, dict):
                    raise TraceError(
                        f"{path}:{lineno}: expected a JSON object"
                    )
                try:
                    event = event_from_dict(data)
                except TraceError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from exc
                if not isinstance(event, RunMeta):
                    if since_ns is not None and event.t < since_ns:
                        continue
                    if until_ns is not None and event.t > until_ns:
                        continue
                yield event
    except (EOFError, gzip.BadGzipFile) as exc:
        raise TraceError(
            f"{path}:{lineno + 1}: truncated or corrupt gzip stream: {exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise TraceError(
            f"{path}:{lineno + 1}: not a text JSONL stream: {exc}"
        ) from exc


def read_events(
    path: str,
    since_ns: Optional[int] = None,
    until_ns: Optional[int] = None,
) -> List[TraceEvent]:
    """Parse a JSONL event log back into typed events (see :func:`iter_events`).

    Raises :class:`~repro.common.errors.TraceError` on any malformed
    line, with the line number in the message.
    """
    return list(iter_events(path, since_ns=since_ns, until_ns=until_ns))


# -- chrome://tracing ---------------------------------------------------------------

#: Decision-level kinds drawn as instant events on per-CPU tracks.
_INSTANT_KINDS = (
    HotPageTriggered,
    MigrationDecision,
    ReplicationDecision,
    NoActionDecision,
    CollapseEvent,
)


def to_chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, list]:
    """Convert an event stream to Chrome trace-event JSON (``ts`` in µs).

    Tracks: one per CPU (decision/instant events, ``tid = cpu``), plus a
    dedicated "intervals" track (``tid = -1``) carrying each reset
    interval as a duration slice, which is what makes per-interval
    timelines legible in the viewer.
    """
    trace_events: List[dict] = []
    interval_start_us = 0.0
    for event in events:
        ts_us = event.t / 1000.0
        if isinstance(event, IntervalReset):
            trace_events.append(
                {
                    "name": f"interval {event.index}",
                    "ph": "X",
                    "ts": interval_start_us,
                    "dur": max(ts_us - interval_start_us, 0.0),
                    "pid": 0,
                    "tid": -1,
                    "args": {
                        "tracked_pages": event.tracked_pages,
                        "triggers": event.triggers,
                    },
                }
            )
            interval_start_us = ts_us
            continue
        if isinstance(event, _INSTANT_KINDS):
            args = event.to_dict()
            args.pop("kind", None)
            args.pop("t", None)
            trace_events.append(
                {
                    "name": event.KIND,
                    "ph": "i",
                    "s": "t",
                    "ts": ts_us,
                    "pid": 0,
                    "tid": getattr(event, "cpu", 0),
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Iterable[TraceEvent], path: str, counters: Iterable[dict] = ()
) -> int:
    """Write the Chrome trace JSON for ``events``; returns event count.

    ``counters`` are extra ready-made trace events (the attribution's
    ``ph: "C"`` counter series) appended to the same file.
    """
    payload = to_chrome_trace(events)
    payload["traceEvents"].extend(counters)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return len(payload["traceEvents"])
