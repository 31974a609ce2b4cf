"""Exporters: round-trips and renderings."""

import gzip
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_unhashable_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown event kind"):
            event_from_dict({"kind": [1], "t": 0})

    def test_bad_field_rejected(self):
        with pytest.raises(TraceError):
            event_from_dict({"kind": "hot-page", "t": 0, "nope": 1})

    @pytest.mark.parametrize("field, value", [
        ("t", "x"), ("t", True), ("t", 1.0), ("page", None),
    ])
    def test_int_field_takes_only_an_int(self, field, value):
        data = HotPageTriggered(t=1, page=2, cpu=0, count=3,
                                threshold=2).to_dict()
        data[field] = value
        with pytest.raises(TraceError, match=f"field '{field}'"):
            event_from_dict(data)

    def test_float_field_takes_an_int_or_a_float(self):
        for latency in (3, 3.5):
            event = event_from_dict({"kind": "miss", "t": 0,
                                     "latency_ns": latency})
            assert event.latency_ns == latency
        with pytest.raises(TraceError, match="field 'latency_ns'"):
            event_from_dict({"kind": "miss", "t": 0, "latency_ns": False})

    def test_bool_and_str_fields_are_checked(self):
        data = MissServiced(t=1).to_dict()
        data["remote"] = 1
        with pytest.raises(TraceError, match="field 'remote'"):
            event_from_dict(data)
        with pytest.raises(TraceError, match="field 'label'"):
            event_from_dict({"kind": "run-meta", "t": 0, "label": 7})


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


#: Values a field of each declared type may hold, including ones the
#: codec must hand to ``json.dumps`` (wrong type, NaN, ±inf).
_ADVERSARIAL = {
    "int": st.one_of(
        st.integers(-(2**70), 2**70), st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    "float": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(2**70), 2**70), st.sampled_from([-0.0, 1e16, 5e-324]),
    ),
    "bool": st.one_of(st.booleans(), st.integers(-2, 2)),
    "str": st.one_of(
        st.text(),
        st.text(alphabet='"\\/{}[],:%\n\t\x00\x7fé€😀'),
    ),
}


def _well_typed(event) -> bool:
    """Every field holds its declared type (an int may fill a float)."""
    accepts = {"int": (int,), "float": (int, float), "bool": (bool,),
               "str": (str,)}
    return all(type(getattr(event, f.name)) in accepts[f.type]
               for f in fields(event))


@st.composite
def adversarial_events(draw):
    cls = draw(st.sampled_from(EVENT_TYPES))
    return cls(**{f.name: draw(_ADVERSARIAL[f.type]) for f in fields(cls)})


def _reference_events(path):
    """A per-line reader, one ``json.loads`` per line: the error oracle."""
    opener = gzip.open if Path(path).read_bytes()[:2] == b"\x1f\x8b" else open
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
                    raise TraceError(f"{path}:{lineno}: invalid JSON: {exc}")
                if not isinstance(data, dict):
                    raise TraceError(f"{path}:{lineno}: expected a JSON object")
                try:
                    yield event_from_dict(data)
                except TraceError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}")
    except (EOFError, gzip.BadGzipFile) as exc:
        raise TraceError(
            f"{path}:{lineno + 1}: truncated or corrupt gzip stream: {exc}")


def _error(read, path):
    with pytest.raises(TraceError) as info:
        list(read(str(path)))
    return str(info.value)


class TestCodec:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(adversarial_events(), min_size=1, max_size=20))
    def test_matches_json_dumps_and_round_trips(self, events):
        for event in events:
            assert event_to_json(event) == json.dumps(
                event.to_dict(), separators=(",", ":"))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "events.jsonl")
            write_jsonl(events, path)
            if not all(_well_typed(event) for event in events):
                # The encoder writes any value; the reader takes only
                # values of their field's type.
                with pytest.raises(TraceError, match="field"):
                    read_events(path)
                return
            back = read_events(path)
        # repr compares NaN fields (nan != nan) and tells 1 / 1.0 / True
        # apart, which == on the events would not.
        assert repr(back) == repr(events)
        if not any(isinstance(v, float) and math.isnan(v)
                   for e in events for v in e.to_dict().values()):
            assert back == events

    def test_well_typed_events_skip_json_dumps(self, monkeypatch):
        # The fallback would give the same bytes, so spy on it.
        from repro.obs import export

        fallbacks = []
        generic = export._generic_json
        monkeypatch.setattr(export, "_generic_json",
                            lambda e: fallbacks.append(e) or generic(e))
        monkeypatch.setattr(export, "_ENCODERS", {})
        for event in SAMPLE_EVENTS:
            event_to_json(event)
        assert fallbacks == []
        odd = MissServiced(t=1, remote=1)
        event_to_json(odd)
        assert fallbacks == [odd]

    def test_odd_values_fall_back(self):
        odd = [
            HotPageTriggered(t=True, page=1),
            HotPageTriggered(t=1.5, page=1),
            MigrationDecision(t=1, latency_ns=3),
            MigrationDecision(t=1, latency_ns=float("nan")),
            MigrationDecision(t=1, latency_ns=float("-inf")),
            MissServiced(t=1, remote=1),
            NoActionDecision(t=1, reason='q"b\\s\u00e9'),
        ]
        for event in odd:
            assert event_to_json(event) == json.dumps(
                event.to_dict(), separators=(",", ":"))


class TestReaderErrors:
    """Errors past the first 64 KiB block keep the per-line message."""

    N = 6000

    def lines(self):
        return [event_to_json(MissServiced(t=i, cpu=i % 8, page=i,
                                           latency_ns=300.0 + i))
                for i in range(self.N)]

    def check(self, path, lineno, fragment):
        got = _error(read_events, path)
        assert got == _error(_reference_events, path)
        assert got.startswith(f"{path}:{lineno}: {fragment}")

    def test_invalid_json_late(self, tmp_path):
        lines = self.lines()
        lines[4999] = lines[4999][:-7]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        self.check(path, 5000, "invalid JSON: ")

    def test_non_object_mid_block(self, tmp_path):
        lines = self.lines()
        lines[4320] = "[1, 2]"
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        self.check(path, 4321, "expected a JSON object")

    def test_unknown_kind_mid_block(self, tmp_path):
        lines = self.lines()
        lines[3333] = '{"kind":"bogus","t":1}'
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        self.check(path, 3334, "unknown event kind")

    def test_blank_lines_count_toward_line_numbers(self, tmp_path):
        lines = self.lines()
        for at in (4500, 2000, 10, 0):
            lines.insert(at, "  " if at % 20 else "")
        good = tmp_path / "blank.jsonl"
        good.write_text("\n".join(lines) + "\n\n")
        assert read_events(str(good)) == list(_reference_events(str(good)))
        assert len(read_events(str(good))) == self.N
        lines[5100] = "nope"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        self.check(bad, 5101, "invalid JSON: ")

    def test_lines_invalid_alone_but_valid_joined(self, tmp_path):
        # Joined by commas these three lines parse as three objects;
        # each is still read, and rejected, on its own.
        lines = self.lines()
        lines[4000:4003] = ['{"kind":"miss","t":1,"a":[{}', '{}]}',
                            '{"kind":"miss","t":2},{"kind":"miss","t":3}']
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        self.check(path, 4001, "invalid JSON: ")
        lines[4000:4003] = ['{"kind":"miss","t":1},{"kind":"miss","t":2',
                            '"cpu":3}', lines[0]]
        path.write_text("\n".join(lines) + "\n")
        self.check(path, 4001, "invalid JSON: ")

    def test_braces_inside_strings_still_read(self, tmp_path):
        events = [RunMeta(t=0, label="{odd} [label]")] + [
            NoActionDecision(t=i, reason="{}" * (i % 3)) for i in range(2000)
        ]
        path = str(tmp_path / "braces.jsonl")
        write_jsonl(events, path)
        assert read_events(path) == events

    def test_truncated_gzip_late(self, tmp_path):
        path = tmp_path / "big.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines()) + "\n")
        data = path.read_bytes()
        truncated = tmp_path / "trunc.jsonl.gz"
        truncated.write_bytes(data[: len(data) * 3 // 4])
        got = _error(read_events, truncated)
        assert got == _error(_reference_events, truncated)
        assert "truncated or corrupt gzip stream" in got
        lineno = int(got.split(":")[1])
        assert lineno > 1000


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

