"""The longitudinal run-history store and trend-aware regression gating.

Every other artifact in the stack is a *one-shot* snapshot: a
``BENCH_<name>.json`` gates against a single committed baseline, a
``--profile-out`` :class:`~repro.obs.prof.RunReport` describes one run, and a
sweep ``--stats-out`` blob describes one sweep.  This module gives those
artifacts a trajectory: a schema-versioned, single-file **sqlite**
database (stdlib ``sqlite3``, no new dependencies) that ingests all
three artifact families into one uniform shape —

    runs(kind, name, code_token, t, context)
      └─ samples(metric, value, unit, direction)   # per-metric rows

— keyed by artifact kind (``bench``/``report``/``sweep``), artifact
name (bench name, report label, grid name), the repository's
code-version token (so trends can be segmented by code change) and the
ingest timestamp.

Concurrency and atomicity follow the repo's store discipline: writers
take the shared :class:`~repro.common.locks.FileLock` (sibling
``history.sqlite.lock``) and commit one transaction per artifact, so
concurrent sweeps and benches never interleave rows or tear an ingest.
Malformed artifacts **never traceback**: every ingest path degrades to
a ``(None, "path: reason")`` skip that callers print as a one-line
warning.

On top of the store sit the consumers:

* :func:`trend_stats` / :func:`compare_history` — rolling-median + EWMA
  regression bands per metric, replacing the single-baseline tolerance
  check (``repro bench --compare-history``);
* :mod:`repro.obs.report` — the ``repro report`` HTML/JSON dashboards.

See ``docs/OBSERVABILITY.md`` ("The run-history store") for the schema
and the band math.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.common.errors import ResultSchemaError
from repro.common.locks import FileLock

#: Bumped when the table layout changes incompatibly; the store refuses
#: other versions with an actionable :class:`ResultSchemaError`.
HISTORY_SCHEMA_VERSION = 1

#: Environment variable overriding the history directory.
HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"

#: The single-file database name inside the history directory.
DB_FILENAME = "history.sqlite"

#: Artifact families the store understands.
RUN_KINDS = ("bench", "report", "sweep")

#: Relative band floor when a metric carries no tolerance of its own:
#: identical reruns must pass despite wall-clock noise, while a 2x
#: slowdown (effect -100%) is always far outside it.
DEFAULT_MIN_BAND = 0.35

#: EWMA smoothing factor for the trend center (newest sample weight).
EWMA_ALPHA = 0.3

#: MAD multiplier widening the band for metrics that are historically
#: noisy (3.0 ~= 2 sigma for a normal distribution via 1.4826*MAD).
MAD_BAND_SCALE = 3.0


def default_history_dir() -> Path:
    """``$REPRO_HISTORY_DIR`` or ``~/.cache/repro/history``."""
    env = os.environ.get(HISTORY_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "history"


def _flatten_numeric(
    data: Any, prefix: str = "", out: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Flatten nested dicts to ``{dotted.path: float}``, keeping only
    finite numeric leaves (bools excluded)."""
    if out is None:
        out = {}
    if isinstance(data, dict):
        for key in sorted(data):
            dotted = f"{prefix}.{key}" if prefix else str(key)
            _flatten_numeric(data[key], dotted, out)
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        value = float(data)
        if math.isfinite(value):
            out[prefix] = value
    return out


@dataclass
class MetricSample:
    """One per-metric row attached to a run."""

    metric: str
    value: float
    unit: str = ""
    direction: str = "lower"


@dataclass
class RunRow:
    """One ingested run (the ``runs`` table row, metrics included)."""

    run_id: int
    kind: str
    name: str
    code_token: str
    t: float
    context: Dict[str, Any] = field(default_factory=dict)
    n_metrics: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "code_token": self.code_token,
            "t": self.t,
            "context": dict(self.context),
            "n_metrics": self.n_metrics,
        }


class HistoryStore:
    """The sqlite-backed longitudinal run-history database.

    Connections are short-lived (one per operation), so one store
    instance is safe to share across threads; cross-process writers
    serialize on the sibling ``.lock`` file.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        token: Optional[str] = None,
    ) -> None:
        self.directory = (
            Path(directory) if directory else default_history_dir()
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / DB_FILENAME
        if token is None:
            # Imported lazily: repro.exp reaches back into repro.obs for
            # its metrics, so a module-level import would be circular.
            from repro.exp.cache import code_version_token

            token = code_version_token()
        self.token = token
        self._ensure_schema()

    # -- schema ----------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    def _lock(self) -> FileLock:
        return FileLock.for_path(self.path, timeout=30.0)

    def _ensure_schema(self) -> None:
        with self._lock(), self._connect() as conn:
            row = conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type='table' AND name='meta'"
            ).fetchone()
            if row is None:
                conn.executescript(
                    """
                    CREATE TABLE IF NOT EXISTS meta (
                        key TEXT PRIMARY KEY,
                        value TEXT NOT NULL
                    );
                    CREATE TABLE IF NOT EXISTS runs (
                        run_id INTEGER PRIMARY KEY AUTOINCREMENT,
                        kind TEXT NOT NULL,
                        name TEXT NOT NULL,
                        code_token TEXT NOT NULL,
                        t REAL NOT NULL,
                        context TEXT NOT NULL DEFAULT '{}'
                    );
                    CREATE INDEX IF NOT EXISTS idx_runs_key
                        ON runs (kind, name, t);
                    CREATE TABLE IF NOT EXISTS samples (
                        run_id INTEGER NOT NULL
                            REFERENCES runs (run_id) ON DELETE CASCADE,
                        metric TEXT NOT NULL,
                        value REAL NOT NULL,
                        unit TEXT NOT NULL DEFAULT '',
                        direction TEXT NOT NULL DEFAULT 'lower'
                    );
                    CREATE INDEX IF NOT EXISTS idx_samples_metric
                        ON samples (metric, run_id);
                    """
                )
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(HISTORY_SCHEMA_VERSION)),
                )
                conn.commit()
                return
            version = self.schema_version(conn)
            if version != HISTORY_SCHEMA_VERSION:
                raise ResultSchemaError(
                    f"{self.path}: history schema version {version!r}; this "
                    f"code reads version {HISTORY_SCHEMA_VERSION} — move or "
                    "delete the database to re-ingest"
                )

    def schema_version(self, conn: Optional[sqlite3.Connection] = None):
        """The on-disk schema version (``None`` when unreadable)."""
        owned = conn is None
        if conn is None:
            conn = self._connect()
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError:
            return None
        finally:
            if owned:
                conn.close()
        if row is None:
            return None
        try:
            return int(row[0])
        except (TypeError, ValueError):
            return None

    # -- ingest ----------------------------------------------------------------

    def ingest(
        self,
        kind: str,
        name: str,
        samples: Iterable[MetricSample],
        t: Optional[float] = None,
        context: Optional[Dict[str, Any]] = None,
        token: Optional[str] = None,
    ) -> int:
        """Atomically append one run and its metric rows; returns run_id.

        Raises :class:`ResultSchemaError` on an unusable payload (unknown
        kind, no finite samples) — the forgiving path is
        :meth:`ingest_file` / the ``ingest_*`` artifact helpers.
        """
        if kind not in RUN_KINDS:
            raise ResultSchemaError(
                f"unknown run kind {kind!r} (expected one of {RUN_KINDS})"
            )
        if not name:
            raise ResultSchemaError("a history run needs a non-empty name")
        rows = [
            s for s in samples
            if math.isfinite(float(s.value))
        ]
        if not rows:
            raise ResultSchemaError(f"{kind}/{name}: no finite metric values")
        when = time.time() if t is None else float(t)
        payload = json.dumps(context or {}, sort_keys=True)
        with self._lock(), self._connect() as conn:
            cursor = conn.execute(
                "INSERT INTO runs (kind, name, code_token, t, context) "
                "VALUES (?, ?, ?, ?, ?)",
                (kind, name, token or self.token, when, payload),
            )
            run_id = int(cursor.lastrowid)
            conn.executemany(
                "INSERT INTO samples (run_id, metric, value, unit, direction)"
                " VALUES (?, ?, ?, ?, ?)",
                [
                    (run_id, s.metric, float(s.value), s.unit, s.direction)
                    for s in rows
                ],
            )
            conn.commit()
        return run_id

    def ingest_bench(
        self, data: Dict[str, Any], t: Optional[float] = None
    ) -> int:
        """Ingest one ``BENCH_*.json`` payload (validated)."""
        from repro.obs.bench import BenchArtifact

        artifact = BenchArtifact.from_dict(data)
        samples = [
            MetricSample(
                metric=key, value=metric.value, unit=metric.unit,
                direction=metric.direction,
            )
            for key, metric in sorted(artifact.metrics.items())
        ]
        return self.ingest(
            "bench", artifact.name, samples, t=t, context=artifact.context
        )

    def ingest_report(
        self, data: Dict[str, Any], t: Optional[float] = None
    ) -> int:
        """Ingest one ``--profile-out`` RunReport payload (validated)."""
        from repro.obs.prof import RunReport

        report = RunReport.from_dict(data)
        samples = [
            MetricSample("wall_ns", float(report.wall_ns), "ns"),
            MetricSample("peak_rss_bytes", float(report.peak_rss), "bytes"),
            MetricSample("cpu_user_s", float(report.cpu_user_s), "s"),
            MetricSample("cpu_sys_s", float(report.cpu_sys_s), "s"),
        ]
        samples += [
            MetricSample(f"layer.{name}.self_s", row["self_s"], "s")
            for name, row in sorted(report.layers.items())
        ]
        samples += [
            MetricSample(key, value)
            for key, value in sorted(report.metrics.items())
            if math.isfinite(float(value))
        ]
        return self.ingest(
            "report", report.label, samples, t=t, context=report.context
        )

    def ingest_sweep_stats(
        self,
        data: Dict[str, Any],
        name: str,
        t: Optional[float] = None,
    ) -> int:
        """Ingest one sweep ``--stats-out`` blob under grid name ``name``."""
        if not isinstance(data, dict) or "specs" not in data:
            raise ResultSchemaError(
                "sweep stats payload has no 'specs' field"
            )
        flat = _flatten_numeric(data)
        samples = [
            MetricSample(metric, value) for metric, value in flat.items()
        ]
        return self.ingest("sweep", name, samples, t=t)

    def ingest_file(self, path: Union[str, Path]) -> Tuple[Optional[int], str]:
        """Sniff and ingest one JSON artifact file — never raises.

        Returns ``(run_id, "ingested <kind>/<name>")`` on success, or
        ``(None, "<path>: <reason>")`` when the file is unreadable,
        carries an unknown/missing ``schema_version``, or is not an
        artifact this store understands.  Callers print the reason as a
        one-line warning and move on.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return None, f"{path}: unreadable artifact: {exc}"
        if not isinstance(data, dict):
            return None, f"{path}: artifact is not a JSON object"
        kind = data.get("kind")
        try:
            if kind == "bench":
                run_id = self.ingest_bench(data)
            elif kind == "report":
                run_id = self.ingest_report(data)
            elif "specs" in data and "executed" in data:
                run_id = self.ingest_sweep_stats(data, name=path.stem)
            else:
                return None, (
                    f"{path}: not a recognised artifact "
                    f"(kind={kind!r}; expected bench/report/sweep stats)"
                )
        except ResultSchemaError as exc:
            return None, f"{path}: {exc}"
        row = self.get_run(run_id)
        return run_id, f"ingested {row.kind}/{row.name}"

    # -- queries ---------------------------------------------------------------

    def count(self) -> int:
        """Total ingested runs."""
        with self._connect() as conn:
            return int(conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def get_run(self, run_id: int) -> RunRow:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT run_id, kind, name, code_token, t, context "
                "FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
            if row is None:
                raise ResultSchemaError(f"no history run with id {run_id}")
            n = conn.execute(
                "SELECT COUNT(*) FROM samples WHERE run_id = ?", (run_id,)
            ).fetchone()[0]
        return self._row(row, int(n))

    @staticmethod
    def _row(row: Tuple, n_metrics: int = 0) -> RunRow:
        try:
            context = json.loads(row[5])
        except ValueError:
            context = {}
        return RunRow(
            run_id=int(row[0]), kind=str(row[1]), name=str(row[2]),
            code_token=str(row[3]), t=float(row[4]),
            context=context if isinstance(context, dict) else {},
            n_metrics=n_metrics,
        )

    def runs(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRow]:
        """Ingested runs, newest first, optionally filtered."""
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if name is not None:
            clauses.append("name = ?")
            params.append(name)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (
            "SELECT r.run_id, r.kind, r.name, r.code_token, r.t, r.context, "
            "(SELECT COUNT(*) FROM samples s WHERE s.run_id = r.run_id) "
            f"FROM runs r {where} ORDER BY r.t DESC, r.run_id DESC"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        with self._connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        return [self._row(row[:6], int(row[6])) for row in rows]

    def names(self, kind: str) -> List[str]:
        """Distinct artifact names ingested under ``kind``, sorted."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT name FROM runs WHERE kind = ? ORDER BY name",
                (kind,),
            ).fetchall()
        return [str(r[0]) for r in rows]

    def metric_names(self, kind: str, name: str) -> List[str]:
        """Distinct metric names recorded for one (kind, name), sorted."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT s.metric FROM samples s "
                "JOIN runs r ON r.run_id = s.run_id "
                "WHERE r.kind = ? AND r.name = ? ORDER BY s.metric",
                (kind, name),
            ).fetchall()
        return [str(r[0]) for r in rows]

    def metric_meta(self, kind: str, name: str) -> Dict[str, Tuple[str, str]]:
        """Per-metric ``(unit, direction)`` as recorded at ingest time.

        When a metric's unit/direction changed across runs the most
        recently ingested row wins.
        """
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT s.metric, s.unit, s.direction FROM samples s "
                "JOIN runs r ON r.run_id = s.run_id "
                "WHERE r.kind = ? AND r.name = ? "
                "ORDER BY r.t ASC, r.run_id ASC",
                (kind, name),
            ).fetchall()
        return {str(m): (str(u), str(d)) for m, u, d in rows}

    def series(
        self,
        kind: str,
        name: str,
        metric: str,
        limit: Optional[int] = None,
    ) -> List[Tuple[float, float]]:
        """The metric's ``(t, value)`` time series, oldest first.

        ``limit`` keeps only the most recent N points (still returned
        oldest-first, ready for trend math and sparklines).
        """
        sql = (
            "SELECT r.t, s.value FROM samples s "
            "JOIN runs r ON r.run_id = s.run_id "
            "WHERE r.kind = ? AND r.name = ? AND s.metric = ? "
            "ORDER BY r.t DESC, r.run_id DESC"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        with self._connect() as conn:
            rows = conn.execute(sql, (kind, name, metric)).fetchall()
        return [(float(t), float(v)) for t, v in reversed(rows)]

    def summary(self, window: int = 50) -> Dict[str, Any]:
        """The rollup behind ``repro report``: per kind, run counts and
        names over the last ``window`` runs of each name."""
        out: Dict[str, Any] = {
            "schema_version": HISTORY_SCHEMA_VERSION,
            "path": str(self.path),
            "total_runs": self.count(),
            "kinds": {},
        }
        for kind in RUN_KINDS:
            names = self.names(kind)
            if not names:
                continue
            entry: Dict[str, Any] = {}
            for name in names:
                rows = self.runs(kind=kind, name=name, limit=window)
                entry[name] = {
                    "runs": len(rows),
                    "last_t": rows[0].t if rows else None,
                    "n_metrics": rows[0].n_metrics if rows else 0,
                }
            out["kinds"][kind] = entry
        return out

    # -- integrity -------------------------------------------------------------

    def verify(self) -> List[str]:
        """Re-check the database; returns a list of problems (empty = ok)."""
        problems: List[str] = []
        try:
            with self._connect() as conn:
                version = self.schema_version(conn)
                if version != HISTORY_SCHEMA_VERSION:
                    problems.append(
                        f"schema version {version!r} != "
                        f"{HISTORY_SCHEMA_VERSION}"
                    )
                    return problems
                integrity = conn.execute(
                    "PRAGMA integrity_check"
                ).fetchone()[0]
                if integrity != "ok":
                    problems.append(f"sqlite integrity check: {integrity}")
                orphans = conn.execute(
                    "SELECT COUNT(*) FROM samples s WHERE NOT EXISTS "
                    "(SELECT 1 FROM runs r WHERE r.run_id = s.run_id)"
                ).fetchone()[0]
                if orphans:
                    problems.append(f"{orphans} orphaned sample row(s)")
                bad_kinds = conn.execute(
                    "SELECT DISTINCT kind FROM runs WHERE kind NOT IN "
                    "(%s)" % ",".join("?" * len(RUN_KINDS)),
                    RUN_KINDS,
                ).fetchall()
                for (kind,) in bad_kinds:
                    problems.append(f"unknown run kind {kind!r}")
                non_finite = conn.execute(
                    "SELECT COUNT(*) FROM samples WHERE value IS NULL "
                    "OR value != value"
                ).fetchone()[0]
                if non_finite:
                    problems.append(
                        f"{non_finite} non-finite sample value(s)"
                    )
                empty = conn.execute(
                    "SELECT COUNT(*) FROM runs r WHERE NOT EXISTS "
                    "(SELECT 1 FROM samples s WHERE s.run_id = r.run_id)"
                ).fetchone()[0]
                if empty:
                    problems.append(f"{empty} run(s) without metric rows")
                for row in conn.execute(
                    "SELECT run_id, context FROM runs"
                ).fetchall():
                    try:
                        parsed = json.loads(row[1])
                    except ValueError:
                        problems.append(f"run {row[0]}: context is not JSON")
                        continue
                    if not isinstance(parsed, dict):
                        problems.append(
                            f"run {row[0]}: context is not an object"
                        )
        except sqlite3.DatabaseError as exc:
            problems.append(f"unreadable database: {exc}")
        return problems


# -- trend-aware regression gating ---------------------------------------------


@dataclass
class TrendStats:
    """Rolling statistics of one metric's history window."""

    n: int
    median: float
    ewma: float
    band: float          # relative half-width of the acceptance band

    @classmethod
    def from_values(
        cls,
        values: List[float],
        tolerance: Optional[float] = None,
        min_band: float = DEFAULT_MIN_BAND,
        alpha: float = EWMA_ALPHA,
    ) -> "TrendStats":
        """Median + EWMA center and a MAD-widened relative band.

        The band half-width is ``max(tolerance or min_band,
        MAD_BAND_SCALE * MAD / |median|)``: a metric's own tolerance (or
        the global floor) sets the minimum, and historically noisy
        metrics widen their own band so they do not flap.
        """
        if not values:
            raise ValueError("trend stats need at least one history value")
        median = statistics.median(values)
        ewma = values[0]
        for value in values[1:]:
            ewma = alpha * value + (1.0 - alpha) * ewma
        floor = tolerance if tolerance is not None else min_band
        band = floor
        if median != 0:
            mad = statistics.median(
                [abs(v - median) for v in values]
            )
            band = max(floor, MAD_BAND_SCALE * mad / abs(median))
        return cls(n=len(values), median=median, ewma=ewma, band=band)


@dataclass
class TrendDelta:
    """One metric's history-vs-current comparison (one dashboard cell)."""

    name: str                 # artifact name (e.g. the bench)
    metric: str
    current: float
    direction: str = "higher"
    verdict: str = "no-history"
    effect: float = 0.0       # signed relative change vs the rolling
                              # median; positive = improvement
    stats: Optional[TrendStats] = None
    note: str = ""

    @property
    def regressed(self) -> bool:
        return self.verdict == "regressed"

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "metric": self.metric,
            "current": self.current,
            "direction": self.direction,
            "verdict": self.verdict,
            "effect": self.effect,
            "note": self.note,
        }
        if self.stats is not None:
            out.update(
                {
                    "n": self.stats.n,
                    "median": self.stats.median,
                    "ewma": self.stats.ewma,
                    "band": self.stats.band,
                }
            )
        return out

    def verdict_line(self) -> str:
        """The one-line per-cell verdict ``--compare-history`` prints."""
        if self.stats is None:
            return f"{self.name}/{self.metric}: no history yet"
        return (
            f"{self.name}/{self.metric}: {self.verdict} "
            f"({self.current:.4g} vs median {self.stats.median:.4g} "
            f"of {self.stats.n} run(s), effect {self.effect * 100:+.1f}%, "
            f"band ±{self.stats.band * 100:.0f}%)"
        )


def trend_delta(
    name: str,
    metric: str,
    current: float,
    history: List[float],
    direction: str = "higher",
    tolerance: Optional[float] = None,
    min_band: float = DEFAULT_MIN_BAND,
) -> TrendDelta:
    """Classify ``current`` against its history window.

    The effect size is the relative change of ``current`` against the
    rolling median, signed so that positive means *improvement* under
    ``direction``; the verdict is ``regressed``/``improved`` when the
    effect leaves the band, ``flat`` inside it.
    """
    if not history:
        return TrendDelta(
            name=name, metric=metric, current=current, direction=direction,
            verdict="no-history", note="no history yet",
        )
    stats = TrendStats.from_values(
        history, tolerance=tolerance, min_band=min_band
    )
    if stats.median == 0:
        # No scale to normalise by: any move off an all-zero history is
        # a unit effect in the direction of the move.
        effect = 0.0 if current == 0 else math.copysign(1.0, current)
    else:
        effect = (current - stats.median) / abs(stats.median)
    if direction == "lower":
        effect = -effect
    if not math.isfinite(current):
        verdict = "regressed"
    elif effect < -stats.band:
        verdict = "regressed"
    elif effect > stats.band:
        verdict = "improved"
    else:
        verdict = "flat"
    return TrendDelta(
        name=name, metric=metric, current=current, direction=direction,
        verdict=verdict, effect=effect, stats=stats,
    )


def compare_history(
    artifacts: Dict[str, Any],
    store: HistoryStore,
    window: int = 10,
    min_band: float = DEFAULT_MIN_BAND,
) -> List[TrendDelta]:
    """Trend-classify every metric of the current bench artifacts.

    ``artifacts`` is the ``{name: BenchArtifact}`` mapping the bench
    harness just produced; each metric is judged against its last
    ``window`` ingested history values.  Call **before** ingesting the
    current run, so the run never gates against itself.
    """
    deltas: List[TrendDelta] = []
    for bench_name in sorted(artifacts):
        artifact = artifacts[bench_name]
        for metric_name in sorted(artifact.metrics):
            metric = artifact.metrics[metric_name]
            history = [
                value
                for _, value in store.series(
                    "bench", bench_name, metric_name, limit=window
                )
            ]
            deltas.append(
                trend_delta(
                    bench_name,
                    metric_name,
                    metric.value,
                    history,
                    direction=metric.direction,
                    tolerance=metric.tolerance,
                    min_band=min_band,
                )
            )
    return deltas


def trend_regressions(deltas: List[TrendDelta]) -> List[TrendDelta]:
    """The subset of deltas whose verdict is ``regressed``."""
    return [d for d in deltas if d.regressed]


def format_trends(deltas: List[TrendDelta]) -> str:
    """A human-readable trend table with one verdict per cell."""
    header = (
        f"{'bench/metric':<44} {'median(n)':>14} {'current':>12} "
        f"{'effect':>8} {'band':>6} {'verdict':>10}"
    )
    lines = [header, "-" * len(header)]
    for d in deltas:
        label = f"{d.name}/{d.metric}"
        if d.stats is None:
            lines.append(f"{label:<44} {'-':>14} {d.current:>12.3f} "
                         f"{'-':>8} {'-':>6} {'no-history':>10}")
            continue
        median = f"{d.stats.median:.3f}({d.stats.n})"
        lines.append(
            f"{label:<44} {median:>14} {d.current:>12.3f} "
            f"{d.effect * 100:>+7.1f}% {d.stats.band * 100:>5.0f}% "
            f"{d.verdict:>10}"
        )
    if len(lines) == 2:
        lines.append("(nothing to compare)")
    return "\n".join(lines)
