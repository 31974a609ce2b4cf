"""Shared bench reporting: one call emits the text table AND the JSON twin.

Converted benches build a :class:`BenchRun`, add their metrics, and call
:meth:`BenchRun.emit` with the rendered table.  The table lands in
``benchmarks/results/<name>.txt`` (pytest-capture-proof, as before) and
the metrics land in ``benchmarks/results/BENCH_<name>.json`` — the
schema-versioned artifact ``repro bench --compare`` gates on.

Metric conventions (see ``docs/PERFORMANCE.md``):

* name dotted, lowercase: ``speedup.all``, ``wall_s.scalar``;
* ``direction`` points the way improvement points;
* set a ``tolerance`` only on machine-portable metrics (ratios); leave
  absolute seconds/bytes ungated (``tolerance=None``) so the committed
  CI baseline never fails on container speed.

Converted so far: ``replay_fastpath``, ``trace_store``,
``obs_overhead``.  The figure/table benches
(``bench_fig*``/``bench_table*``/``bench_sec*``/``bench_ablations``,
``bench_baseline_competitive``) still emit text only; convert them the
same way when their numbers need gating.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.bench import BenchArtifact
from repro.obs.prof import resource_usage


def bench_context(**extra: Any) -> Dict[str, Any]:
    """Environment fingerprint stored in every artifact's ``context``.

    Informational only — comparisons never gate on context, but a
    surprising regression is much easier to diagnose when the artifact
    says what produced it.
    """
    context: Dict[str, Any] = {
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }
    context.update(extra)
    return context


class BenchRun:
    """One bench's dual-format report (text + ``BENCH_<name>.json``)."""

    def __init__(
        self,
        name: str,
        results_dir: Path,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.artifact = BenchArtifact(
            name=name, context=bench_context(**(context or {}))
        )
        self.results_dir = Path(results_dir)

    def metric(
        self,
        name: str,
        value: float,
        unit: str = "",
        direction: str = "higher",
        tolerance: Optional[float] = None,
    ) -> None:
        """Record one metric for the JSON artifact."""
        self.artifact.add(
            name, value, unit=unit, direction=direction, tolerance=tolerance
        )

    def emit(self, text: str) -> str:
        """Print ``text``, write the ``.txt``, and write the JSON twin.

        Every artifact automatically records the process's resource
        telemetry (peak RSS, user/sys CPU time) so the run-history store
        can trend memory and CPU per bench; these are informational
        (``tolerance=None``) — scale-tier targets gate on the *history*
        bands, not on a committed absolute.
        """
        for name, value in sorted(resource_usage().items()):
            unit = "bytes" if name.endswith("_bytes") else "s"
            self.artifact.add(
                f"resource.{name}", value, unit=unit, direction="lower"
            )
        print()
        print(text)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        (self.results_dir / f"{self.artifact.name}.txt").write_text(
            text + "\n"
        )
        self.artifact.write(self.results_dir)
        return text
