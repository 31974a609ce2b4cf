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
* :mod:`repro.obs.export` — JSONL, Chrome trace-event and plain-text
  exporters;
* :mod:`repro.obs.inspect` — replay a saved log into per-page decision
  histories (the ``repro inspect`` subcommand);
* :mod:`repro.obs.attrib` — post-hoc stall-time attribution, the
  per-decision payoff ledger and run diffing (``repro analyze``);
* :mod:`repro.obs.prof` — the hierarchical span profiler and
  :class:`RunReport` (``--profile-out``);
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
    EngineFallback,
    HotPageTriggered,
    IntervalReset,
    MigrationDecision,
    MissServiced,
    NoActionDecision,
    ReplicationDecision,
    RunMeta,
    ShootdownEvent,
    SpanEvent,
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
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    RunReport,
    Span,
    SpanRecord,
    as_profiler,
    peak_rss_bytes,
    resource_usage,
)
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    build_summary,
    render_html,
    sparkline_svg,
    write_report,
)
from repro.obs.export import (
    JsonlSink,
    event_to_json,
    interval_summary,
    iter_events,
    read_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.inspect import (
    PageHistory,
    format_history,
    history_for,
    kind_counts,
    page_histories,
    summarize,
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
    "EngineFallback",
    "HotPageTriggered",
    "IntervalReset",
    "MigrationDecision",
    "MissServiced",
    "NoActionDecision",
    "ReplicationDecision",
    "RunMeta",
    "ShootdownEvent",
    "SpanEvent",
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
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "RunReport",
    "Span",
    "SpanRecord",
    "as_profiler",
    "peak_rss_bytes",
    "resource_usage",
    "REPORT_SCHEMA_VERSION",
    "build_summary",
    "render_html",
    "sparkline_svg",
    "write_report",
    "JsonlSink",
    "event_to_json",
    "interval_summary",
    "iter_events",
    "read_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "PageHistory",
    "format_history",
    "history_for",
    "kind_counts",
    "page_histories",
    "summarize",
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
