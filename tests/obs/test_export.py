"""Exporters: round-trips and renderings."""

import gzip
import json
from pathlib import Path

import pytest

from repro.common.errors import TraceError
from repro.obs.events import (
    EVENT_TYPES,
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
    TriggerAdjusted,
    event_from_dict,
)
from repro.obs.export import (
    JsonlSink,
    event_to_json,
    iter_events,
    read_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

#: One instance of every event type, exercising non-default fields.
SAMPLE_EVENTS = [
    MissServiced(t=100, cpu=1, page=7, node=0, weight=3,
                 latency_ns=1200.0, remote=True, kernel=False),
    HotPageTriggered(t=200, page=7, cpu=1, count=130, threshold=128),
    MigrationDecision(t=300, page=7, cpu=1, src=0, dst=1,
                      outcome="migrated", reason="unshared",
                      latency_ns=250_000.0),
    ReplicationDecision(t=400, page=9, cpu=2, src=0, dst=2,
                        outcome="replicated", reason="shared-read",
                        latency_ns=280_000.0),
    NoActionDecision(t=500, page=11, cpu=3, reason="write-shared"),
    CollapseEvent(t=600, page=9, cpu=0, keep_node=0, replicas_dropped=1,
                  latency_ns=90_000.0),
    ShootdownEvent(t=700, origin_cpu=1, mode="all", cpus_flushed=8, frames=2,
                   cost_ns=58_000.0),
    IntervalReset(t=800, index=0, tracked_pages=5, triggers=2),
    TriggerAdjusted(t=900, old_trigger=128, new_trigger=64,
                    overhead_fraction=0.01, remote_fraction=0.4),
    PtReplicate(t=950, process=3, cpu=5, pt_page=2, node=1, src=0,
                walks=64, reason="walk-trigger", latency_ns=310_000.0),
    ThreadMigrate(t=960, process=3, cpu=5, src=1, dst=0,
                  reason="cheaper-than-pt-replica", latency_ns=21_000.0),
    RunMeta(t=0, label="engineering:Mig/Rep", n_cpus=8, n_nodes=8,
            local_ns=300.0, remote_ns=1200.0, op_cost_ns=350_000.0,
            trigger=128, reset_interval_ns=100_000_000),
]


class TestDictRoundTrip:
    def test_every_type_round_trips(self):
        for event in SAMPLE_EVENTS:
            assert event_from_dict(event.to_dict()) == event

    def test_sample_covers_taxonomy(self):
        assert {type(e) for e in SAMPLE_EVENTS} == set(EVENT_TYPES)

    def test_kind_comes_first(self):
        data = json.loads(event_to_json(SAMPLE_EVENTS[0]))
        assert next(iter(data)) == "kind"

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError):
            event_from_dict({"kind": "bogus", "t": 0})

    def test_bad_field_rejected(self):
        with pytest.raises(TraceError):
            event_from_dict({"kind": "hot-page", "t": 0, "nope": 1})


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        written = write_jsonl(SAMPLE_EVENTS, path)
        assert written == len(SAMPLE_EVENTS)
        assert read_events(path) == SAMPLE_EVENTS

    def test_sink_streams_and_counts(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        for event in SAMPLE_EVENTS[:3]:
            sink.emit(event)
        sink.close()
        assert sink.written == 3
        assert read_events(path) == SAMPLE_EVENTS[:3]

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"hot-page","t":1}\nnot json\n')
        with pytest.raises(TraceError, match="bad.jsonl:2"):
            read_events(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(TraceError, match="expected a JSON object"):
            read_events(str(path))

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('\n{"kind":"hot-page","t":1}\n\n')
        assert len(read_events(str(path))) == 1


class TestGzipAndWindows:
    def write_gz(self, tmp_path, events, name="events.jsonl.gz"):
        path = tmp_path / name
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for event in events:
                fh.write(event_to_json(event) + "\n")
        return str(path)

    def test_gzip_round_trip(self, tmp_path):
        path = self.write_gz(tmp_path, SAMPLE_EVENTS)
        assert read_events(path) == SAMPLE_EVENTS

    def test_gzip_detected_by_magic_not_extension(self, tmp_path):
        path = self.write_gz(tmp_path, SAMPLE_EVENTS[:2], name="plain.jsonl")
        assert read_events(path) == SAMPLE_EVENTS[:2]

    def test_truncated_gzip_is_a_trace_error(self, tmp_path):
        path = self.write_gz(tmp_path, SAMPLE_EVENTS)
        data = Path(path).read_bytes()
        truncated = tmp_path / "trunc.jsonl.gz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceError, match="gzip"):
            read_events(str(truncated))

    def test_gzip_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"kind":"hot-page","t":1}\nnope\n')
        with pytest.raises(TraceError, match="bad.jsonl.gz:2"):
            read_events(str(path))

    def test_binary_junk_is_a_trace_error(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\xff\xfe\x01junk\x80\x81")
        with pytest.raises(TraceError):
            read_events(str(path))

    def test_window_filters_by_inclusive_time(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_jsonl(SAMPLE_EVENTS, path)
        windowed = read_events(path, since_ns=200, until_ns=600)
        kept = {e.t for e in windowed if not isinstance(e, RunMeta)}
        assert kept == {200, 300, 400, 500, 600}

    def test_run_meta_always_passes_the_window(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_jsonl(SAMPLE_EVENTS, path)
        windowed = read_events(path, since_ns=10_000)
        assert any(isinstance(e, RunMeta) for e in windowed)
        assert all(
            isinstance(e, RunMeta) or e.t >= 10_000 for e in windowed
        )

    def test_iter_events_streams_lazily(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_jsonl(SAMPLE_EVENTS, path)
        it = iter_events(path)
        assert next(it) == SAMPLE_EVENTS[0]


class TestChromeTrace:
    def test_structure(self, tmp_path):
        payload = to_chrome_trace(SAMPLE_EVENTS)
        events = payload["traceEvents"]
        # 5 instant kinds + 1 interval slice
        # (miss/shootdown/trigger/PT skipped).
        assert len(events) == 6
        instants = [e for e in events if e["ph"] == "i"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(instants) == 5
        (interval,) = slices
        assert interval["tid"] == -1
        assert interval["ts"] == 0.0
        assert interval["dur"] == pytest.approx(0.8)  # 800 ns in us
        # Decisions land on the acting CPU's track, ts in microseconds.
        migr = next(e for e in instants if e["name"] == "migration")
        assert migr["tid"] == 1
        assert migr["ts"] == pytest.approx(0.3)
        assert migr["args"]["outcome"] == "migrated"

    def test_write_chrome_trace(self, tmp_path):
        path = str(tmp_path / "chrome.json")
        counter = {"name": "miss.local_ratio", "ph": "C", "ts": 0.8,
                   "pid": 0, "args": {"local": 0.5}}
        written = write_chrome_trace(SAMPLE_EVENTS, path, counters=[counter])
        with open(path) as fh:
            payload = json.load(fh)
        assert written == len(payload["traceEvents"]) == 7
        assert payload["traceEvents"][-1] == counter

