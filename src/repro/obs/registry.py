"""The metrics registry: one queryable namespace for run statistics.

The machine, kernel and policy layers already accumulate counters and
:class:`~repro.common.stats.OnlineStats` while they run; the registry
turns those scattered attributes into a single dotted namespace that the
results code, the CLI (``--metrics-out``) and the benchmarks can query
uniformly — full-system results expose them as ``result.metrics``.

Registration is free on the hot path: components either register
**callbacks** (read live attributes at collection time) or hand the
registry a reference to an **existing** ``OnlineStats`` accumulator; no
per-sample work is added anywhere.  Explicit :class:`Counter` /
:class:`Gauge` objects exist for code that has no attribute to mirror.

Labeled families (:meth:`MetricsRegistry.family`) group per-CPU or
per-node instances under one name; histogram families can fold their
children into an aggregate with ``OnlineStats.__add__`` (non-mutating).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.stats import OnlineStats, SampleStats


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


def _label_suffix(labels: Dict[str, object]) -> str:
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class MetricFamily:
    """A named group of per-label metric instances (counters or stats)."""

    def __init__(self, name: str, factory: Callable[[], object]) -> None:
        self.name = name
        self._factory = factory
        self._children: Dict[Tuple[Tuple[str, object], ...], object] = {}

    def labels(self, **labels: object):
        """The child metric for one label set (created on first use)."""
        if not labels:
            raise ConfigurationError("a family child needs at least one label")
        key = tuple(sorted(labels.items()))
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._factory()
        return child

    def attach(self, child: object, **labels: object) -> None:
        """Register an existing object (e.g. a live OnlineStats) as a child."""
        if not labels:
            raise ConfigurationError("a family child needs at least one label")
        self._children[tuple(sorted(labels.items()))] = child

    def items(self) -> List[Tuple[str, object]]:
        """(rendered name, child) pairs in deterministic label order."""
        return [
            (self.name + _label_suffix(dict(key)), child)
            for key, child in sorted(
                self._children.items(), key=lambda kv: str(kv[0])
            )
        ]

    def merged(self) -> OnlineStats:
        """Fold all OnlineStats children into one aggregate (non-mutating).

        If any child retains samples (:class:`SampleStats`) the aggregate
        does too, so the folded family still reports percentiles.
        """
        children = [
            child for _, child in self.items()
            if isinstance(child, OnlineStats)
        ]
        if any(isinstance(child, SampleStats) for child in children):
            out: OnlineStats = SampleStats()
        else:
            out = OnlineStats()
        for child in children:
            out.merge(child)
        return out


def _stats_values(name: str, stats: OnlineStats) -> Dict[str, float]:
    empty = stats.count == 0
    out = {
        f"{name}.count": float(stats.count),
        f"{name}.total": stats.total,
        f"{name}.mean": stats.mean,
        f"{name}.min": 0.0 if empty or math.isinf(stats.minimum) else stats.minimum,
        f"{name}.max": 0.0 if empty or math.isinf(stats.maximum) else stats.maximum,
        f"{name}.stddev": stats.stddev,
    }
    if isinstance(stats, SampleStats):
        out[f"{name}.p50"] = stats.percentile(50)
        out[f"{name}.p95"] = stats.percentile(95)
    return out


class MetricsRegistry:
    """The run-wide metric namespace."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._stats: Dict[str, OnlineStats] = {}
        self._callbacks: Dict[str, Callable[[], float]] = {}
        self._families: Dict[str, MetricFamily] = {}

    # -- registration -------------------------------------------------------------

    def _claim(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._stats
            or name in self._callbacks
            or name in self._families
        ):
            raise ConfigurationError(f"metric {name!r} already registered")

    def counter(self, name: str) -> Counter:
        """Create (or fetch) a counter."""
        counter = self._counters.get(name)
        if counter is None:
            self._claim(name)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Create (or fetch) a gauge."""
        gauge = self._gauges.get(name)
        if gauge is None:
            self._claim(name)
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, stats: Optional[OnlineStats] = None
    ) -> OnlineStats:
        """Register an OnlineStats-backed histogram.

        Passing an existing accumulator registers it *by reference*, so a
        component's live statistics appear in the namespace for free.
        """
        existing = self._stats.get(name)
        if existing is not None:
            if stats is not None and stats is not existing:
                raise ConfigurationError(f"metric {name!r} already registered")
            return existing
        self._claim(name)
        stats = stats if stats is not None else OnlineStats()
        self._stats[name] = stats
        return stats

    def register_callback(self, name: str, fn: Callable[[], float]) -> None:
        """Register a read-at-collect-time value (zero hot-path cost)."""
        self._claim(name)
        self._callbacks[name] = fn

    def family(
        self, name: str, factory: Callable[[], object] = OnlineStats
    ) -> MetricFamily:
        """Create (or fetch) a labeled family of metrics."""
        family = self._families.get(name)
        if family is None:
            self._claim(name)
            family = self._families[name] = MetricFamily(name, factory)
        return family

    # -- collection --------------------------------------------------------------

    def collect(self) -> Dict[str, float]:
        """Flatten the whole namespace to ``{dotted.name: float}``.

        Histograms expand to ``.count/.total/.mean/.min/.max/.stddev``
        (plus ``.p50``/``.p95`` when the accumulator retains samples);
        histogram families additionally emit the folded aggregate under
        the bare family name.  Keys come back sorted, so collection order
        is deterministic.
        """
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, fn in self._callbacks.items():
            out[name] = float(fn())
        for name, stats in self._stats.items():
            out.update(_stats_values(name, stats))
        for name, family in self._families.items():
            has_stats = False
            for rendered, child in family.items():
                if isinstance(child, OnlineStats):
                    has_stats = True
                    out.update(_stats_values(rendered, child))
                elif isinstance(child, (Counter, Gauge)):
                    out[rendered] = child.value
                else:
                    out[rendered] = float(child)  # pragma: no cover - defensive
            if has_stats:
                out.update(_stats_values(name, family.merged()))
        return dict(sorted(out.items()))
