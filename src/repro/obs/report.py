"""`repro report`: static HTML dashboards over the run-history store.

The report is deliberately boring technology: :func:`build_summary`
walks the :class:`~repro.obs.history.HistoryStore` query API into one
JSON-serialisable dict, and :func:`render_html` turns that dict into a
single self-contained HTML file — inline CSS, inline SVG sparklines, no
JavaScript, no external assets.  The same summary dict is what
``repro report --json`` prints, so the machine-readable and the
human-readable view can never drift apart.

Every metric row carries its last value, the rolling-median trend
verdict (judged by the same :func:`~repro.obs.history.trend_delta` math
that gates ``repro bench --compare-history`` — the dashboard can never
disagree with the gate), and a sparkline of the ingested series.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional

from repro.obs.history import (
    HistoryStore,
    RUN_KINDS,
    trend_delta,
)

#: Version stamp of the summary payload (``repro report --json``).
REPORT_SCHEMA_VERSION = 1

#: How many most-recent runs feed each sparkline / trend window.
DEFAULT_WINDOW = 30

_SPARK_W = 160
_SPARK_H = 36
_SPARK_PAD = 3

_VERDICT_COLORS = {
    "improved": "#1a7f37",
    "flat": "#57606a",
    "regressed": "#cf222e",
    "no-history": "#8c959f",
}


def build_summary(
    store: HistoryStore, window: int = DEFAULT_WINDOW
) -> Dict[str, Any]:
    """One JSON-serialisable rollup of everything the store knows.

    Per (kind, name, metric): the ``(t, value)`` series over the last
    ``window`` runs plus a trend verdict classifying the latest point
    against the points before it (latest-vs-rest, exactly how
    ``--compare-history`` judges a fresh run against ingested history).
    """
    summary: Dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generated_t": time.time(),
        "window": int(window),
        "history": store.summary(window=window),
        "kinds": {},
    }
    for kind in RUN_KINDS:
        names = store.names(kind)
        if not names:
            continue
        kind_entry: Dict[str, Any] = {}
        for name in names:
            meta = store.metric_meta(kind, name)
            metrics: Dict[str, Any] = {}
            for metric in store.metric_names(kind, name):
                series = store.series(kind, name, metric, limit=window)
                values = [v for _, v in series]
                unit, direction = meta.get(metric, ("", "lower"))
                delta = trend_delta(
                    name,
                    metric,
                    values[-1],
                    values[:-1],
                    direction=direction,
                )
                metrics[metric] = {
                    "unit": unit,
                    "direction": direction,
                    "n": len(values),
                    "last": values[-1],
                    "series": [[t, v] for t, v in series],
                    "trend": delta.to_dict(),
                }
            kind_entry[name] = metrics
        summary["kinds"][kind] = kind_entry
    return summary


# -- sparklines -----------------------------------------------------------------


def sparkline_svg(
    values: List[float],
    width: int = _SPARK_W,
    height: int = _SPARK_H,
    color: str = "#0969da",
) -> str:
    """An inline SVG sparkline for one metric series.

    Values are normalised into the viewbox; a flat series draws a
    midline rather than dividing by a zero range.  The most recent
    point gets a dot so single-run series are still visible.
    """
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    inner_w = width - 2 * _SPARK_PAD
    inner_h = height - 2 * _SPARK_PAD
    points = []
    for i, value in enumerate(values):
        x = _SPARK_PAD + (
            inner_w * i / (len(values) - 1) if len(values) > 1 else inner_w / 2
        )
        frac = (value - lo) / span if span > 0 else 0.5
        y = _SPARK_PAD + inner_h * (1.0 - frac)
        points.append((x, y))
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    last_x, last_y = points[-1]
    parts = [
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    if len(points) > 1:
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{path}"/>'
        )
    parts.append(
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.2" '
        f'fill="{color}"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


# -- HTML rendering -------------------------------------------------------------

_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1f2328; }
h1 { font-size: 1.5rem; }
h2 { font-size: 1.2rem; border-bottom: 1px solid #d0d7de;
     padding-bottom: .3rem; margin-top: 2rem; }
h3 { font-size: 1rem; margin-bottom: .3rem; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0 1.2rem; }
th, td { text-align: left; padding: .25rem .6rem;
         border-bottom: 1px solid #eaeef2; white-space: nowrap; }
th { font-weight: 600; color: #57606a; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.verdict { font-weight: 600; }
.muted { color: #8c959f; }
.spark { vertical-align: middle; }
.meta { color: #57606a; font-size: .85rem; }
"""


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}"


def _verdict_cell(trend: Dict[str, Any]) -> str:
    verdict = str(trend.get("verdict", "no-history"))
    color = _VERDICT_COLORS.get(verdict, "#57606a")
    effect = trend.get("effect")
    suffix = ""
    if verdict not in ("no-history",) and isinstance(effect, (int, float)):
        suffix = f" ({effect * 100:+.1f}%)"
    return (
        f'<span class="verdict" style="color:{color}">'
        f"{html.escape(verdict)}{html.escape(suffix)}</span>"
    )


def _metric_table(metrics: Dict[str, Any]) -> str:
    rows = [
        "<table><thead><tr><th>metric</th><th>last</th><th>median</th>"
        "<th>runs</th><th>trend</th><th>history</th></tr></thead><tbody>"
    ]
    for metric in sorted(metrics):
        entry = metrics[metric]
        trend = entry.get("trend", {})
        unit = entry.get("unit") or ""
        label = html.escape(metric) + (
            f' <span class="muted">[{html.escape(unit)}]</span>' if unit else ""
        )
        values = [v for _, v in entry.get("series", [])]
        rows.append(
            "<tr>"
            f"<td>{label}</td>"
            f'<td class="num">{_fmt(entry.get("last"))}</td>'
            f'<td class="num">{_fmt(trend.get("median"))}</td>'
            f'<td class="num">{entry.get("n", 0)}</td>'
            f"<td>{_verdict_cell(trend)}</td>"
            f"<td>{sparkline_svg(values)}</td>"
            "</tr>"
        )
    rows.append("</tbody></table>")
    return "".join(rows)


_KIND_TITLES = {
    "bench": "Bench trends",
    "report": "Profiled runs",
    "sweep": "Sweep stats",
}


def render_html(summary: Dict[str, Any]) -> str:
    """The self-contained dashboard for one :func:`build_summary` dict."""
    history = summary.get("history", {})
    generated = time.strftime(
        "%Y-%m-%d %H:%M:%S UTC",
        time.gmtime(summary.get("generated_t", time.time())),
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro run history</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro run history</h1>",
        f'<p class="meta">generated {html.escape(generated)} · '
        f'{history.get("total_runs", 0)} run(s) ingested · '
        f"window {summary.get('window', DEFAULT_WINDOW)} · "
        f"db {html.escape(str(history.get('path', '')))}</p>",
    ]
    kinds = summary.get("kinds", {})
    for kind in RUN_KINDS:
        names = kinds.get(kind)
        if not names:
            continue
        parts.append(f"<h2>{html.escape(_KIND_TITLES.get(kind, kind))}</h2>")
        for name in sorted(names):
            parts.append(f"<h3>{html.escape(str(name))}</h3>")
            parts.append(_metric_table(names[name]))
    if not kinds:
        parts.append(
            '<p class="muted">No runs ingested yet — run '
            "<code>repro bench --quick</code> then "
            "<code>repro history ingest benchmarks/results/BENCH_*.json"
            "</code>.</p>"
        )
    parts.append("</body></html>")
    return "\n".join(parts)
