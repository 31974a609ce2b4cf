"""The metrics registry: registration kinds, families, and collection."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.stats import OnlineStats, SampleStats
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricFamily,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        c = registry.counter("a.b")
        c.inc()
        c.inc(2.5)
        assert registry.collect()["a.b"] == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        g = registry.gauge("g")
        g.set(5)
        g.set(2)
        assert registry.collect()["g"] == 2.0

    def test_same_name_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")


class TestCallbacks:
    def test_callback_reads_live_value(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.register_callback("live", lambda: state["n"])
        state["n"] = 7
        assert registry.collect()["live"] == 7.0

    def test_collision_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ConfigurationError):
            registry.register_callback("name", lambda: 0)
        with pytest.raises(ConfigurationError):
            registry.gauge("name")


class TestHistograms:
    def test_by_reference_registration(self):
        registry = MetricsRegistry()
        live = OnlineStats()
        assert registry.histogram("h", live) is live
        live.add(4.0)
        live.add(8.0)
        collected = registry.collect()
        assert collected["h.count"] == 2.0
        assert collected["h.mean"] == pytest.approx(6.0)
        assert collected["h.min"] == 4.0
        assert collected["h.max"] == 8.0
        assert collected["h.total"] == pytest.approx(12.0)

    def test_empty_histogram_has_finite_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        collected = registry.collect()
        assert collected["h.min"] == 0.0
        assert collected["h.max"] == 0.0
        assert collected["h.count"] == 0.0

    def test_conflicting_reference_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", OnlineStats())
        with pytest.raises(ConfigurationError):
            registry.histogram("h", OnlineStats())


class TestFamilies:
    def test_labels_create_children_lazily(self):
        family = MetricFamily("lat", OnlineStats)
        a = family.labels(node=0)
        assert family.labels(node=0) is a
        assert family.labels(node=1) is not a

    def test_labels_require_at_least_one(self):
        with pytest.raises(ConfigurationError):
            MetricFamily("f", OnlineStats).labels()

    def test_rendered_names_and_merged_aggregate(self):
        registry = MetricsRegistry()
        family = registry.family("lat")
        local, remote = OnlineStats(), OnlineStats()
        local.add(300.0)
        remote.add(1200.0)
        family.attach(local, kind="local")
        family.attach(remote, kind="remote")
        collected = registry.collect()
        assert collected["lat{kind=local}.mean"] == 300.0
        assert collected["lat{kind=remote}.mean"] == 1200.0
        # The folded aggregate appears under the bare family name.
        assert collected["lat.count"] == 2.0
        assert collected["lat.mean"] == pytest.approx(750.0)
        # Folding is non-mutating.
        assert local.count == 1 and remote.count == 1

    def test_counter_children(self):
        registry = MetricsRegistry()
        family = registry.family("ops", factory=lambda: Counter("ops"))
        family.labels(op="migrate").inc(3)
        assert registry.collect()["ops{op=migrate}"] == 3.0


class TestCollect:
    def test_keys_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        registry.register_callback("m", lambda: 1)
        keys = list(registry.collect())
        assert keys == sorted(keys)

    def test_collect_is_repeatable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").add(1.0)
        assert registry.collect() == registry.collect()


class TestSampleStatsHistograms:
    def test_percentiles_in_collect(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wait", SampleStats())
        for v in range(1, 101):
            hist.add(float(v))
        collected = registry.collect()
        assert collected["wait.p50"] == pytest.approx(50.5)
        assert collected["wait.p95"] == pytest.approx(95.05)
        assert collected["wait.count"] == 100.0

    def test_plain_histogram_has_no_percentiles(self):
        registry = MetricsRegistry()
        registry.histogram("h").add(1.0)
        collected = registry.collect()
        assert "h.p50" not in collected
        assert "h.mean" in collected

    def test_family_merge_preserves_percentiles(self):
        registry = MetricsRegistry()
        family = registry.family("lat", factory=SampleStats)
        for v in (1.0, 2.0, 3.0):
            family.labels(node=0).add(v)
        for v in (4.0, 5.0):
            family.labels(node=1).add(v)
        merged = family.merged()
        assert isinstance(merged, SampleStats)
        assert merged.count == 5
        assert merged.percentile(50) == pytest.approx(3.0)
        collected = registry.collect()
        assert collected["lat.p50"] == pytest.approx(3.0)
        assert collected["lat{node=0}.p95"] == pytest.approx(2.9)
        # Folding is non-mutating: children keep their own samples.
        assert family.labels(node=0).count == 3

    def test_mixed_family_keeps_sample_children(self):
        registry = MetricsRegistry()
        family = registry.family("mix", factory=OnlineStats)
        family.labels(node=0).add(1.0)
        family.attach(SampleStats(), node=1)
        family.labels(node=1).add(2.0)
        merged = family.merged()
        assert isinstance(merged, SampleStats)
        assert merged.count == 2
