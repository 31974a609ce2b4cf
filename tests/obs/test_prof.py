"""The span profiler: nesting, zero-cost disable, reports."""

import inspect
import json

import pytest

from repro.common.errors import ConfigurationError, ResultSchemaError
from repro.obs.prof import (
    NULL_PROFILER,
    Profiler,
    RunReport,
    SpanRecord,
    _NULL_SPAN,
    as_profiler,
    peak_rss_bytes,
    resource_usage,
)
from repro.sim.results import RESULT_SCHEMA_VERSION


def fake_clock(step_ns=1000):
    """A deterministic perf_counter_ns stand-in advancing per call."""
    state = {"now": 0}

    def clock():
        state["now"] += step_ns
        return state["now"]

    return clock


class TestSpanNesting:
    def test_paths_and_depths(self):
        prof = Profiler(clock=fake_clock())
        with prof.span("outer"):
            with prof.span("middle"):
                with prof.span("inner"):
                    pass
            with prof.span("sibling"):
                pass
        paths = [r.path for r in prof.records]
        # Children close before parents (close order).
        assert paths == [
            "outer/middle/inner", "outer/middle", "outer/sibling", "outer",
        ]
        depths = {r.path: r.depth for r in prof.records}
        assert depths["outer"] == 0
        assert depths["outer/middle"] == 1
        assert depths["outer/middle/inner"] == 2

    def test_wall_time_from_injected_clock(self):
        prof = Profiler(clock=fake_clock(step_ns=500))
        with prof.span("a"):
            pass
        (record,) = prof.records
        assert record.wall_ns == 500
        assert prof.total_ns == 500

    def test_sequential_top_level_spans_sum(self):
        prof = Profiler(clock=fake_clock())
        with prof.span("a"):
            pass
        with prof.span("b"):
            pass
        assert prof.total_ns == 2000
        assert [r.depth for r in prof.records] == [0, 0]

    def test_out_of_order_close_raises(self):
        prof = Profiler(clock=fake_clock())
        outer = prof.span("outer")
        inner = prof.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ConfigurationError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_exception_still_closes_span(self):
        prof = Profiler(clock=fake_clock())
        with pytest.raises(RuntimeError):
            with prof.span("outer"):
                raise RuntimeError("boom")
        assert [r.path for r in prof.records] == ["outer"]
        assert prof._stack == []


class TestItemsAndThroughput:
    def test_items_accumulate_per_path(self):
        prof = Profiler(clock=fake_clock())
        with prof.span("replay", items=100):
            pass
        with prof.span("replay") as span:
            span.add_items(50)
        assert prof.items("replay") == 150
        stats = prof.stats()["replay"]
        assert stats.count == 2

    def test_items_per_s(self):
        record = SpanRecord(
            name="x", path="x", start_ns=0, wall_ns=1_000_000_000, items=500
        )
        assert record.items_per_s == pytest.approx(500.0)
        empty = SpanRecord(name="x", path="x", start_ns=0, wall_ns=0)
        assert empty.items_per_s == 0.0

    def test_summary_table_mentions_paths(self):
        prof = Profiler(clock=fake_clock())
        with prof.span("phase.one", items=10):
            pass
        text = prof.summary()
        assert "phase.one" in text
        assert "items/s" in text
        assert "(no spans recorded)" in Profiler(clock=fake_clock()).summary()


class TestDisabled:
    def test_disabled_profiler_reuses_null_span(self):
        prof = Profiler(enabled=False)
        assert prof.span("anything") is _NULL_SPAN
        assert prof.span("other", items=5) is _NULL_SPAN
        assert not prof.active
        with prof.span("x") as span:
            span.add_items(3)
        assert prof.records == []

    def test_null_profiler_is_inert(self):
        assert NULL_PROFILER.span("x") is _NULL_SPAN
        with NULL_PROFILER.span("y", items=4) as span:
            span.add_items(2)
        assert NULL_PROFILER.records == []
        assert NULL_PROFILER.total_ns == 0
        assert NULL_PROFILER.stats() == {}
        assert NULL_PROFILER.items("y") == 0
        assert "(no spans recorded)" in NULL_PROFILER.summary()

    def test_as_profiler_normalises(self):
        assert as_profiler(None) is NULL_PROFILER
        prof = Profiler()
        assert as_profiler(prof) is prof
        assert isinstance(NULL_PROFILER, Profiler)
        assert not NULL_PROFILER.enabled

    def test_constructor_takes_only_enabled_and_clock(self):
        params = inspect.signature(Profiler).parameters
        assert list(params) == ["enabled", "clock"]


class TestPeakRss:
    def test_peak_rss_is_plausible(self):
        rss = peak_rss_bytes()
        # A running CPython process is at least a few MB resident.
        assert rss > 4 * 1024 * 1024


class TestResourceUsage:
    def test_keys_and_plausible_values(self):
        usage = resource_usage()
        assert set(usage) == {"peak_rss_bytes", "cpu_user_s", "cpu_sys_s"}
        assert usage["peak_rss_bytes"] > 4 * 1024 * 1024
        assert usage["cpu_user_s"] > 0.0
        assert usage["cpu_sys_s"] >= 0.0
        assert all(isinstance(v, float) for v in usage.values())

    def test_cpu_time_is_monotone(self):
        before = resource_usage()
        # Burn a little user CPU between the two snapshots.
        sum(i * i for i in range(200_000))
        after = resource_usage()
        assert after["cpu_user_s"] >= before["cpu_user_s"]
        assert after["peak_rss_bytes"] >= before["peak_rss_bytes"]


class TestRunReport:
    def make_report(self):
        prof = Profiler(clock=fake_clock())
        with prof.span("sim.run", items=10):
            with prof.span("sim.replay", items=10):
                pass
        return RunReport.from_profiler(
            "unit-test", prof, command="pytest",
            metrics={"replay.engine.vector": 1.0},
            context={"workload": "raytrace"},
        )

    def test_from_profiler_snapshot(self):
        report = self.make_report()
        assert report.label == "unit-test"
        # Fake clock: origin 1000, sim.run spans ticks 2000..5000.
        assert report.wall_ns == 3000
        assert report.peak_rss > 0
        assert len(report.spans) == 2

    def test_dict_round_trip(self):
        report = self.make_report()
        data = report.to_dict()
        assert data["kind"] == "report"
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        rebuilt = RunReport.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == report

    def test_cpu_times_captured(self):
        report = self.make_report()
        assert report.cpu_user_s > 0.0
        assert report.cpu_sys_s >= 0.0
        data = report.to_dict()
        assert data["cpu_user_s"] == report.cpu_user_s
        assert data["cpu_sys_s"] == report.cpu_sys_s

    def test_from_dict_tolerates_missing_cpu_fields(self):
        # Reports written before the resource-telemetry fields existed.
        data = self.make_report().to_dict()
        del data["cpu_user_s"]
        del data["cpu_sys_s"]
        rebuilt = RunReport.from_dict(data)
        assert rebuilt.cpu_user_s == 0.0
        assert rebuilt.cpu_sys_s == 0.0

    def test_span_dicts_carry_no_alloc_bytes(self):
        (outer, inner) = self.make_report().to_dict()["spans"][::-1]
        keys = {"name", "path", "start_ns", "wall_ns", "depth", "items"}
        assert set(outer) == set(inner) == keys

    def test_from_dict_ignores_old_alloc_bytes(self):
        # Reports written while spans could record tracemalloc deltas.
        report = self.make_report()
        data = json.loads(json.dumps(report.to_dict()))
        for span in data["spans"]:
            span["alloc_bytes"] = 4096
        assert RunReport.from_dict(data) == report

    def test_schema_mismatch_rejected(self):
        data = self.make_report().to_dict()
        data["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ResultSchemaError):
            RunReport.from_dict(data)
        data = self.make_report().to_dict()
        data["kind"] = "result"
        with pytest.raises(ResultSchemaError):
            RunReport.from_dict(data)
