"""Observability: structured decision tracing, metrics, and exporters.

The paper's evaluation attributes execution time and kernel overhead to
individual page actions (Figure 2 decisions, Table 4 action breakdowns,
Table 6 overhead categories); this package gives the reproduction the
same attribution power at runtime:

* :mod:`repro.obs.events` — the typed event taxonomy;
* :mod:`repro.obs.tracer` — a zero-cost-when-disabled tracer with a
  bounded ring buffer and pluggable sinks;
* :mod:`repro.obs.batch` — the order-restoring emission buffer the
  vectorized replay engines trace through;
* :mod:`repro.obs.registry` — the metrics namespace the machine, kernel
  and policy layers register into;
* :mod:`repro.obs.export` — JSONL and Chrome trace-event exporters;
* :mod:`repro.obs.attrib` — post-hoc stall-time attribution, the
  per-decision payoff ledger, per-page decision timelines and run
  diffing (``repro analyze``);
* :mod:`repro.obs.layers` — the layer profiler: per-layer calls and
  calibrated self time (``--profile-out``);
* :mod:`repro.obs.prof` — :class:`RunReport`, the ``--profile-out``
  file, and resource telemetry;
* :mod:`repro.obs.bench` — the machine-readable benchmark artifact
  schema behind ``repro bench`` and its regression gating;
* :mod:`repro.obs.history` — the sqlite-backed longitudinal run-history
  store and the trend-aware regression bands
  (``repro bench --compare-history``);
* :mod:`repro.obs.report` — static HTML dashboards over the history
  store (``repro report``).

See ``docs/OBSERVABILITY.md`` for the full guide.
"""

from repro.obs.events import (
    ALL_KINDS,
    EVENT_TYPES,
    KIND_TO_TYPE,
    CollapseEvent,
    HotPageTriggered,
    IntervalReset,
    MigrationDecision,
    MissServiced,
    NoActionDecision,
    ReplicationDecision,
    RunMeta,
    ShootdownEvent,
    TraceEvent,
    TriggerAdjusted,
    event_from_dict,
)
from repro.obs.attrib import (
    ATTRIB_SCHEMA_VERSION,
    AttribDiff,
    Attribution,
    AttributionSink,
    DecisionRecord,
    IntervalSlice,
    NodeAttribution,
    PageAttribution,
    PageDelta,
    diff_attributions,
    expected_from_policysim,
    expected_from_system,
    format_diff,
    format_intervals,
    format_ledger,
    format_nodes,
    format_page,
    format_summary,
    format_top_pages,
    sweep_attribution,
)
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchArtifact,
    BenchMetric,
    MetricDelta,
    compare_artifacts,
    format_comparison,
    load_artifacts,
    read_artifact,
    regressions,
)
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    HistoryStore,
    MetricSample,
    RunRow,
    TrendDelta,
    TrendStats,
    compare_history,
    default_history_dir,
    format_trends,
    trend_delta,
    trend_regressions,
)
from repro.obs.prof import (
    RunReport,
    peak_rss_bytes,
    resource_usage,
)
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    build_summary,
    render_html,
    sparkline_svg,
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
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    CountingSink,
    ListSink,
    NullTracer,
    Sink,
    Tracer,
    as_tracer,
)
from repro.obs.batch import (
    DATA_REPLAY_PHASES,
    PT_REPLAY_PHASES,
    BatchEmitter,
)

__all__ = [
    "ALL_KINDS",
    "EVENT_TYPES",
    "KIND_TO_TYPE",
    "CollapseEvent",
    "HotPageTriggered",
    "IntervalReset",
    "MigrationDecision",
    "MissServiced",
    "NoActionDecision",
    "ReplicationDecision",
    "RunMeta",
    "ShootdownEvent",
    "TraceEvent",
    "TriggerAdjusted",
    "event_from_dict",
    "ATTRIB_SCHEMA_VERSION",
    "AttribDiff",
    "Attribution",
    "AttributionSink",
    "DecisionRecord",
    "IntervalSlice",
    "NodeAttribution",
    "PageAttribution",
    "PageDelta",
    "diff_attributions",
    "expected_from_policysim",
    "expected_from_system",
    "format_diff",
    "format_intervals",
    "format_ledger",
    "format_nodes",
    "format_page",
    "format_summary",
    "format_top_pages",
    "sweep_attribution",
    "BENCH_SCHEMA_VERSION",
    "BenchArtifact",
    "BenchMetric",
    "MetricDelta",
    "compare_artifacts",
    "format_comparison",
    "load_artifacts",
    "read_artifact",
    "regressions",
    "HISTORY_SCHEMA_VERSION",
    "HistoryStore",
    "MetricSample",
    "RunRow",
    "TrendDelta",
    "TrendStats",
    "compare_history",
    "default_history_dir",
    "format_trends",
    "trend_delta",
    "trend_regressions",
    "RunReport",
    "peak_rss_bytes",
    "resource_usage",
    "REPORT_SCHEMA_VERSION",
    "build_summary",
    "render_html",
    "sparkline_svg",
    "JsonlSink",
    "event_to_json",
    "iter_events",
    "read_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "Counter",
    "Gauge",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_TRACER",
    "CountingSink",
    "ListSink",
    "NullTracer",
    "Sink",
    "Tracer",
    "as_tracer",
    "BatchEmitter",
    "DATA_REPLAY_PHASES",
    "PT_REPLAY_PHASES",
]
