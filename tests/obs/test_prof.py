"""Run reports: the ``--profile-out`` file and resource telemetry."""

import json

import pytest

from repro.common.errors import ResultSchemaError
from repro.obs.prof import RunReport, peak_rss_bytes, resource_usage
from repro.sim.results import RESULT_SCHEMA_VERSION

LAYERS = {
    "sim": {"calls": 2.0, "self_s": 0.25, "share": 0.5},
    "machine.memory": {"calls": 900.0, "self_s": 0.2, "share": 0.4},
    "other": {"calls": 0.0, "self_s": 0.05, "share": 0.1},
}


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
        return RunReport.capture(
            "unit-test", 500_000_000, LAYERS, command="pytest",
            metrics={"replay.misses": 1.0},
            context={"workload": "raytrace"},
        )

    def test_capture_snapshot(self):
        report = self.make_report()
        assert report.label == "unit-test"
        assert report.command == "pytest"
        assert report.wall_ns == 500_000_000
        assert report.peak_rss > 0
        assert report.layers == LAYERS
        assert report.layers is not LAYERS  # a copy, not the caller's dict

    def test_dict_round_trip(self):
        report = self.make_report()
        data = report.to_dict()
        assert data["kind"] == "report"
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        assert "spans" not in data
        assert data["layers"] == LAYERS
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

    def test_from_dict_loads_an_old_span_report(self):
        # Reports written by the span profiler carry ``spans`` (older
        # ones with tracemalloc ``alloc_bytes``) and no ``layers``.
        data = self.make_report().to_dict()
        del data["layers"]
        data["spans"] = [{
            "name": "sim.run", "path": "sim.run", "start_ns": 0,
            "wall_ns": 1000, "depth": 0, "items": 10, "alloc_bytes": 4096,
        }]
        rebuilt = RunReport.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.layers == {}
        assert rebuilt.label == "unit-test"
        assert rebuilt.wall_ns == 500_000_000
        assert "spans" not in rebuilt.to_dict()

    def test_schema_mismatch_rejected(self):
        data = self.make_report().to_dict()
        data["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ResultSchemaError):
            RunReport.from_dict(data)
        data = self.make_report().to_dict()
        data["kind"] = "result"
        with pytest.raises(ResultSchemaError):
            RunReport.from_dict(data)
