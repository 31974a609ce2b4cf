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
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Type

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


def _generic_json(event: TraceEvent) -> str:
    """The reference encoding: ``json.dumps`` of :meth:`TraceEvent.to_dict`."""
    return json.dumps(event.to_dict(), separators=(",", ":"))


#: Per declared field type: the ``%`` conversion, the check that a value
#: is exactly of that type (the template then formats it as ``json.dumps``
#: would), and the template argument.  ``{v}`` is the value's local name.
_FIELD_CODECS = {
    "int": ("%d", "type({v}) is int", "{v}"),
    "float": ("%r", "type({v}) is float and -_inf < {v} < _inf", "{v}"),
    "bool": ("%s", "type({v}) is bool", "'true' if {v} else 'false'"),
    "str": ("%s", "type({v}) is str", "_quote({v})"),
}


def _build_encoder(cls: Type[TraceEvent]) -> Callable[[TraceEvent], str]:
    """Compile ``cls``'s JSON encoder from its dataclass fields.

    The encoder fills one ``%`` template, ``kind`` first and the fields in
    declaration order, exactly as :func:`_generic_json` lays them out.
    It reads each field as an attribute (never ``__dict__``, which would
    materialise a dict on every event the tracer's ring keeps alive).  A
    value not of its field's declared type — a bool in an int field, an
    int in a float field, NaN or ±inf — sends that event through
    :func:`_generic_json`, so the bytes are the same either way.  A class
    with a field of any other type always takes the generic path.
    """
    def literal(text: str) -> str:
        return encode_basestring_ascii(text).replace("%", "%%")

    parts = ["{%s:%s" % (literal("kind"), literal(cls.KIND))]
    loads, checks, args = [], [], []
    for i, field in enumerate(fields(cls)):
        codec = _FIELD_CODECS.get(field.type)
        if codec is None:
            return _generic_json
        conversion, check, arg = codec
        v = f"v{i}"
        parts.append(f"{literal(field.name)}:{conversion}")
        loads.append(f"    {v} = event.{field.name}\n")
        checks.append(check.format(v=v))
        args.append(arg.format(v=v))
    template = ",".join(parts) + "}"
    source = (
        "def encode(event):\n"
        + "".join(loads)
        + f"    if {' and '.join(checks)}:\n"
        + f"        return _template % ({', '.join(args)},)\n"
        + "    return _generic(event)\n"
    )
    namespace = {
        "_template": template,
        "_generic": _generic_json,
        "_quote": encode_basestring_ascii,
        "_inf": float("inf"),
    }
    exec(source, namespace)
    return namespace["encode"]


#: Event class -> its compiled encoder, built on first use.
_ENCODERS: Dict[type, Callable[[TraceEvent], str]] = {}


def event_to_json(event: TraceEvent) -> str:
    """One event as a compact, key-order-stable JSON object.

    Byte-identical to ``json.dumps(event.to_dict(), separators=(",",
    ":"))``; see :func:`_build_encoder` for how it gets there faster.
    """
    encode = _ENCODERS.get(type(event))
    if encode is None:
        encode = _ENCODERS[type(event)] = _build_encoder(type(event))
    return encode(event)


class JsonlSink(Sink):
    """Streams every event to a JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.written = 0

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(event_to_json(event) + "\n")
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


#: Characters of (non-blank, stripped) lines one block parse takes at most;
#: a single longer line is a block of its own.
_BLOCK_CHARS = 64 * 1024


def _parse_line(path: str, lineno: int, line: str) -> dict:
    """One line's JSON object, or the line's :class:`TraceError`."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise TraceError(f"{path}:{lineno}: expected a JSON object")
    return data


def _parse_block(path: str, lines: List[str], linenos: List[int]) -> List[dict]:
    """The JSON objects of a block of non-blank lines, one per line.

    The block is parsed as one JSON array, its lines joined by a comma
    and a newline.  That parse is trusted only when it cannot have merged
    or split lines: the raw newline (invalid inside a JSON string) keeps
    strings from running across lines, every line starts with ``{``,
    those are the block's only ``{`` characters, and the array holds
    exactly one object per line.  Then no object nests another, each
    starts at its own line's ``{`` and ends before the next line's, so
    each line is one object exactly as a lone ``json.loads`` reads it.
    Any other block — a bad line, a non-object, a ``{`` inside a string
    — is parsed line by line, which raises the first bad line's error
    with its line number.
    """
    n = len(lines)
    text = "[" + ",\n".join(lines) + "]"
    if text.count("{") == n and text.count("\n{") == n - 1 and text[1] == "{":
        try:
            objects = json.loads(text)
        except json.JSONDecodeError:
            objects = None
        if (objects is not None and len(objects) == n
                and set(map(type, objects)) == {dict}):
            return objects
    return [_parse_line(path, lineno, line)
            for lineno, line in zip(linenos, lines)]


def _block_events(
    path: str,
    lines: List[str],
    linenos: List[int],
    since_ns: Optional[int],
    until_ns: Optional[int],
) -> List[TraceEvent]:
    """The typed events of one block that fall in the time window."""
    events = []
    for lineno, data in zip(linenos, _parse_block(path, lines, linenos)):
        try:
            event = event_from_dict(data)
        except TraceError as exc:
            raise TraceError(f"{path}:{lineno}: {exc}") from exc
        if not isinstance(event, RunMeta):
            if since_ns is not None and event.t < since_ns:
                continue
            if until_ns is not None and event.t > until_ns:
                continue
        events.append(event)
    return events


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
    scanned.  Lines are parsed in blocks of at most 64 KiB
    (:func:`_parse_block`).  Malformed lines and truncated gzip streams
    raise :class:`~repro.common.errors.TraceError` with the line number,
    never a bare traceback; the lines before a read error are parsed
    first, so the first bad line in the file is the one reported.
    """
    opener = gzip.open if _is_gzip(path) else open
    lineno = 0
    lines: List[str] = []
    linenos: List[int] = []
    size = 0
    failure = cause = None
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            for line in fh:
                lineno += 1
                line = line.strip()
                if not line:
                    continue
                if size + len(line) > _BLOCK_CHARS and lines:
                    yield from _block_events(path, lines, linenos,
                                             since_ns, until_ns)
                    lines, linenos, size = [], [], 0
                lines.append(line)
                linenos.append(lineno)
                size += len(line)
    except (EOFError, gzip.BadGzipFile) as exc:
        failure = f"truncated or corrupt gzip stream: {exc}"
        cause = exc
    except UnicodeDecodeError as exc:
        failure = f"not a text JSONL stream: {exc}"
        cause = exc
    if lines:
        yield from _block_events(path, lines, linenos, since_ns, until_ns)
    if failure is not None:
        raise TraceError(f"{path}:{lineno + 1}: {failure}") from cause


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
