"""`repro report`: summary building, sparklines, self-contained HTML."""

import json
import re

import pytest

from repro.obs.bench import BenchArtifact
from repro.obs.history import RUN_KINDS, HistoryStore, MetricSample
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    build_summary,
    render_html,
    sparkline_svg,
)


def seeded_store(tmp_path, runs=4):
    store = HistoryStore(directory=tmp_path / "hist", token="tok")
    for i in range(runs):
        artifact = BenchArtifact(name="replay_fastpath")
        artifact.add("wall_s.scalar", 1.0 + 0.01 * i, unit="s",
                     direction="lower")
        artifact.add("speedup.all", 3.0, unit="x", direction="higher")
        store.ingest_bench(artifact.to_dict(), t=float(i))
    store.ingest_sweep_stats(
        {"specs": 16, "executed": 16, "wall_s": 2.0}, name="fig9", t=100.0
    )
    return store


class TestBuildSummary:
    def test_structure_and_trends(self, tmp_path):
        summary = build_summary(seeded_store(tmp_path))
        assert summary["schema_version"] == REPORT_SCHEMA_VERSION
        assert summary["history"]["total_runs"] == 5
        bench = summary["kinds"]["bench"]["replay_fastpath"]
        wall = bench["wall_s.scalar"]
        assert wall["unit"] == "s"
        assert wall["direction"] == "lower"
        assert wall["n"] == 4
        assert len(wall["series"]) == 4
        assert wall["trend"]["verdict"] == "flat"
        assert summary["kinds"]["sweep"]["fig9"]["wall_s"]["last"] == 2.0

    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_every_run_kind_gets_a_section(self, tmp_path, kind):
        store = HistoryStore(directory=tmp_path / "hist", token="tok")
        store.ingest(kind, "only", [MetricSample("m", 1.0)], t=1.0)
        summary = build_summary(store)
        assert list(summary["kinds"]) == [kind]
        assert summary["kinds"][kind]["only"]["m"]["last"] == 1.0
        html_text = render_html(summary)
        assert html_text.count("<h2>") == 1
        assert "<h3>only</h3>" in html_text

    def test_single_run_metric_has_no_history_verdict(self, tmp_path):
        store = HistoryStore(directory=tmp_path / "hist", token="tok")
        store.ingest("bench", "b", [MetricSample("m", 1.0)], t=1.0)
        summary = build_summary(store)
        trend = summary["kinds"]["bench"]["b"]["m"]["trend"]
        assert trend["verdict"] == "no-history"

    def test_window_bounds_series(self, tmp_path):
        store = HistoryStore(directory=tmp_path / "hist", token="tok")
        for i in range(20):
            store.ingest("bench", "b", [MetricSample("m", float(i))],
                         t=float(i))
        summary = build_summary(store, window=5)
        entry = summary["kinds"]["bench"]["b"]["m"]
        assert len(entry["series"]) == 5
        assert entry["last"] == 19.0

    def test_json_round_trip(self, tmp_path):
        summary = build_summary(seeded_store(tmp_path))
        assert json.loads(json.dumps(summary)) == summary


class TestSparkline:
    def test_empty_series(self):
        assert sparkline_svg([]) == ""

    def test_single_point_gets_a_dot(self):
        svg = sparkline_svg([1.0])
        assert "<circle" in svg
        assert "<polyline" not in svg

    def test_flat_series_draws_midline(self):
        svg = sparkline_svg([2.0, 2.0, 2.0])
        assert "<polyline" in svg
        # All y coordinates equal (no division by zero range).
        ys = {pt.split(",")[1] for pt in
              re.search(r'points="([^"]+)"', svg).group(1).split()}
        assert len(ys) == 1

    def test_values_normalised_into_viewbox(self):
        svg = sparkline_svg([0.0, 1e9])
        for x, y in re.findall(r"([\d.]+),([\d.]+)", svg):
            assert 0.0 <= float(x) <= 160.0
            assert 0.0 <= float(y) <= 36.0


class TestRenderHtml:
    def test_self_contained_document(self, tmp_path):
        html_text = render_html(build_summary(seeded_store(tmp_path)))
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<style>" in html_text
        # No external assets: every URL is the inline SVG namespace.
        for url in re.findall(r"https?://[^\s\"'<>]+", html_text):
            assert url.startswith("http://www.w3.org/2000/svg")
        assert "<script" not in html_text

    def test_per_metric_sparkline_for_every_cell(self, tmp_path):
        summary = build_summary(seeded_store(tmp_path))
        html_text = render_html(summary)
        cells = sum(
            len(metrics)
            for names in summary["kinds"].values()
            for metrics in names.values()
        )
        assert html_text.count("<svg") == cells
        assert "replay_fastpath" in html_text
        assert "wall_s.scalar" in html_text
        assert "fig9" in html_text

    def test_names_are_escaped(self, tmp_path):
        store = HistoryStore(directory=tmp_path / "hist", token="tok")
        store.ingest(
            "bench", "<b>&evil", [MetricSample("m", 1.0)], t=1.0
        )
        html_text = render_html(build_summary(store))
        assert "<b>&evil" not in html_text
        assert "&lt;b&gt;&amp;evil" in html_text

    def test_empty_store_renders_hint(self, tmp_path):
        store = HistoryStore(directory=tmp_path / "hist", token="tok")
        html_text = render_html(build_summary(store))
        assert "No runs ingested yet" in html_text
