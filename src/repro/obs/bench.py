"""Machine-readable benchmark artifacts and perf-regression gating.

``pytest benchmarks/`` has always printed tables and written
``benchmarks/results/<name>.txt``; this module adds the machine-readable
twin: a schema-versioned ``BENCH_<name>.json`` per bench, holding the
metrics that back the text table — each with a unit, an improvement
*direction*, and an optional tolerance band.

``repro bench`` drives the suite and then gates on these artifacts:
``repro bench --compare baselines/`` re-reads a committed baseline set
and exits non-zero when any gated metric regressed beyond its band.
Absolute wall-clock seconds vary wildly across machines and CI
containers, so baselines usually gate only *ratio* metrics (speedups,
overhead ratios) and carry ``tolerance: null`` on absolute ones — see
``docs/PERFORMANCE.md`` for the baseline-update workflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.errors import ResultSchemaError

#: Bumped when the artifact layout changes incompatibly; readers refuse
#: other versions with an actionable :class:`ResultSchemaError`.
BENCH_SCHEMA_VERSION = 1

#: Artifact filename prefix (``BENCH_<name>.json``).
BENCH_PREFIX = "BENCH_"

#: Valid improvement directions: is a larger value better, or a smaller?
DIRECTIONS = ("higher", "lower")


@dataclass
class BenchMetric:
    """One measured quantity inside a bench artifact.

    ``direction`` says which way improvement points ("higher" for
    speedups/throughput, "lower" for seconds/bytes/ratio-overheads);
    ``tolerance`` is the relative regression band for ``--compare``
    (``0.2`` = worse than 20% past the baseline fails) or ``None`` for
    ungated, informational metrics.
    """

    value: float
    unit: str = ""
    direction: str = "higher"
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        self.value = float(self.value)
        if self.direction not in DIRECTIONS:
            raise ResultSchemaError(
                f"bad metric direction {self.direction!r} "
                f"(expected one of {DIRECTIONS})"
            )
        if self.tolerance is not None:
            self.tolerance = float(self.tolerance)
            if self.tolerance < 0:
                raise ResultSchemaError("tolerance must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchMetric":
        try:
            return cls(
                value=float(data["value"]),
                unit=str(data.get("unit", "")),
                direction=str(data.get("direction", "higher")),
                tolerance=(
                    None if data.get("tolerance") is None
                    else float(data["tolerance"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultSchemaError(f"bad bench metric {data!r}") from exc


@dataclass
class BenchArtifact:
    """One bench's machine-readable result set (``BENCH_<name>.json``)."""

    name: str
    metrics: Dict[str, BenchMetric] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)

    def add(
        self,
        name: str,
        value: float,
        unit: str = "",
        direction: str = "higher",
        tolerance: Optional[float] = None,
    ) -> BenchMetric:
        """Record one metric (returns it, for chaining/inspection)."""
        metric = BenchMetric(
            value=value, unit=unit, direction=direction, tolerance=tolerance
        )
        self.metrics[name] = metric
        return metric

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "bench",
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "context": dict(self.context),
            "metrics": {
                key: metric.to_dict()
                for key, metric in sorted(self.metrics.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchArtifact":
        """Rebuild an artifact, validating kind and schema version."""
        if not isinstance(data, dict):
            raise ResultSchemaError("bench artifact must be a JSON object")
        kind = data.get("kind")
        if kind != "bench":
            raise ResultSchemaError(
                f"expected a 'bench' artifact, found kind {kind!r}"
            )
        version = data.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ResultSchemaError(
                f"bench artifact has schema version {version!r}; this code "
                f"reads version {BENCH_SCHEMA_VERSION} — regenerate it with "
                f"'repro bench'"
            )
        metrics = data.get("metrics")
        if not isinstance(metrics, dict):
            raise ResultSchemaError("bench artifact 'metrics' must be a dict")
        return cls(
            name=str(data.get("name", "")),
            metrics={
                str(key): BenchMetric.from_dict(value)
                for key, value in metrics.items()
            },
            context=dict(data.get("context", {})),
        )

    # -- persistence -----------------------------------------------------------

    def filename(self) -> str:
        return f"{BENCH_PREFIX}{self.name}.json"

    def write(self, directory: Union[str, Path]) -> Path:
        """Write ``BENCH_<name>.json`` under ``directory``; returns the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.filename()
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def read_artifact(path: Union[str, Path]) -> BenchArtifact:
    """Load and validate one ``BENCH_*.json`` file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ResultSchemaError(f"{path}: unreadable bench artifact: {exc}")
    try:
        return BenchArtifact.from_dict(data)
    except ResultSchemaError as exc:
        raise ResultSchemaError(f"{path}: {exc}") from exc


def results_dir(bench_dir: Union[str, Path], scale: float) -> Path:
    """Where a bench run at ``scale`` writes its tables and artifacts.

    Full-scale (1.0) results live in ``<bench_dir>/results``, the
    committed set.  A run at any other scale writes
    ``<bench_dir>/results/scale-<scale>/`` instead, so a quick pass
    never overwrites the committed numbers.
    """
    base = Path(bench_dir) / "results"
    return base if scale == 1.0 else base / f"scale-{scale:g}"


def load_artifacts(directory: Union[str, Path]) -> Dict[str, BenchArtifact]:
    """Every ``BENCH_*.json`` under ``directory``, keyed by bench name."""
    directory = Path(directory)
    artifacts: Dict[str, BenchArtifact] = {}
    if not directory.is_dir():
        return artifacts
    for path in sorted(directory.glob(f"{BENCH_PREFIX}*.json")):
        artifact = read_artifact(path)
        artifacts[artifact.name] = artifact
    return artifacts


# -- comparison / regression gating -------------------------------------------------


@dataclass
class MetricDelta:
    """One metric's baseline-vs-current comparison."""

    bench: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    unit: str = ""
    direction: str = "higher"
    tolerance: Optional[float] = None
    regressed: bool = False
    note: str = ""

    @property
    def change(self) -> float:
        """Signed relative change from baseline (positive = larger)."""
        if not self.baseline or self.current is None:
            return 0.0
        return (self.current - self.baseline) / abs(self.baseline)


def _is_regression(
    baseline: float, current: float, direction: str, tolerance: float
) -> bool:
    if not math.isfinite(baseline) or not math.isfinite(current):
        return True
    if direction == "higher":
        return current < baseline * (1.0 - tolerance)
    return current > baseline * (1.0 + tolerance)


def compare_artifacts(
    current: Dict[str, BenchArtifact],
    baseline: Dict[str, BenchArtifact],
) -> List[MetricDelta]:
    """Compare current artifacts against a baseline set.

    Gating rules (the baseline's metric definitions govern):

    * only metrics whose **baseline** carries a tolerance are gated —
      the committed baseline decides what CI enforces;
    * a gated baseline metric missing from the current run is itself a
      regression (a silently dropped metric must not pass);
    * benches present only on one side are reported as notes, ungated
      (quick runs cover a subset of the full suite).
    """
    deltas: List[MetricDelta] = []
    for bench_name in sorted(baseline):
        base = baseline[bench_name]
        cur = current.get(bench_name)
        if cur is None:
            deltas.append(
                MetricDelta(
                    bench=bench_name, metric="*", baseline=None, current=None,
                    note="bench not in current run (ungated)",
                )
            )
            continue
        for metric_name in sorted(base.metrics):
            bmetric = base.metrics[metric_name]
            cmetric = cur.metrics.get(metric_name)
            gated = bmetric.tolerance is not None
            if cmetric is None:
                deltas.append(
                    MetricDelta(
                        bench=bench_name, metric=metric_name,
                        baseline=bmetric.value, current=None,
                        unit=bmetric.unit, direction=bmetric.direction,
                        tolerance=bmetric.tolerance, regressed=gated,
                        note="metric missing from current run",
                    )
                )
                continue
            regressed = gated and _is_regression(
                bmetric.value, cmetric.value,
                bmetric.direction, bmetric.tolerance,
            )
            deltas.append(
                MetricDelta(
                    bench=bench_name, metric=metric_name,
                    baseline=bmetric.value, current=cmetric.value,
                    unit=bmetric.unit, direction=bmetric.direction,
                    tolerance=bmetric.tolerance, regressed=regressed,
                )
            )
    for bench_name in sorted(set(current) - set(baseline)):
        deltas.append(
            MetricDelta(
                bench=bench_name, metric="*", baseline=None, current=None,
                note="bench not in baseline (ungated)",
            )
        )
    return deltas


def regressions(deltas: List[MetricDelta]) -> List[MetricDelta]:
    """The subset of deltas that fail their tolerance band."""
    return [d for d in deltas if d.regressed]


def format_comparison(deltas: List[MetricDelta]) -> str:
    """A human-readable comparison table with verdicts."""
    header = (
        f"{'bench/metric':<44} {'baseline':>12} {'current':>12} "
        f"{'change':>8} {'band':>6} {'verdict':>8}"
    )
    lines = [header, "-" * len(header)]
    for d in deltas:
        label = f"{d.bench}/{d.metric}"
        if d.note and d.current is None and d.baseline is None:
            lines.append(f"{label:<44} {d.note}")
            continue
        base = "-" if d.baseline is None else f"{d.baseline:.3f}"
        cur = "-" if d.current is None else f"{d.current:.3f}"
        change = (
            "-" if d.current is None or not d.baseline
            else f"{d.change * 100:+.1f}%"
        )
        band = "-" if d.tolerance is None else f"{d.tolerance * 100:.0f}%"
        if d.tolerance is None:
            verdict = "info"
        elif d.regressed:
            verdict = "REGRESS"
        else:
            verdict = "ok"
        lines.append(
            f"{label:<44} {base:>12} {cur:>12} {change:>8} {band:>6} "
            f"{verdict:>8}"
        )
    if len(lines) == 2:
        lines.append("(nothing to compare)")
    return "\n".join(lines)
