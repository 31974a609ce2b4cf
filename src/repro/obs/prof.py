"""Run reports: one command's layer profile and resource usage.

:class:`RunReport` packages what ``--profile-out`` measured — the
per-layer table of :mod:`repro.obs.layers`, wall time, peak RSS, CPU
time and an optional metrics snapshot — as a schema-versioned dict
following the ``RESULT_SCHEMA_VERSION`` conventions of
:mod:`repro.sim.results`.  :func:`resource_usage` is the telemetry it
shares with the ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``getrusage`` reports KiB on Linux and bytes on macOS; stdlib-only,
    so it works wherever the simulator does (no psutil dependency).
    """
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak if sys.platform == "darwin" else peak * 1024


def resource_usage() -> Dict[str, float]:
    """This process's resource telemetry: peak RSS and CPU time.

    The triple every RunReport and bench artifact records so the
    run-history store can enforce scale-tier wall/memory targets from
    trends rather than single snapshots (``docs/OBSERVABILITY.md``).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "peak_rss_bytes": float(peak_rss_bytes()),
        "cpu_user_s": float(usage.ru_utime),
        "cpu_sys_s": float(usage.ru_stime),
    }


# -- run reports -----------------------------------------------------------------


@dataclass
class RunReport:
    """One run's profile, packaged for persistence (``--profile-out``)."""

    label: str
    command: str = ""
    wall_ns: int = 0
    peak_rss: int = 0
    cpu_user_s: float = 0.0
    cpu_sys_s: float = 0.0
    #: Per layer: ``calls``, calibrated ``self_s`` and ``share``
    #: (:meth:`repro.obs.layers.LayerTrace.rows`).
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        label: str,
        wall_ns: int,
        layers: Dict[str, Dict[str, float]],
        command: str = "",
        metrics: Optional[Dict[str, float]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """A report of ``layers`` plus this process's resource usage."""
        usage = resource_usage()
        return cls(
            label=label,
            command=command,
            wall_ns=int(wall_ns),
            peak_rss=int(usage["peak_rss_bytes"]),
            cpu_user_s=usage["cpu_user_s"],
            cpu_sys_s=usage["cpu_sys_s"],
            layers={name: dict(row) for name, row in layers.items()},
            metrics=dict(metrics) if metrics else {},
            context=dict(context) if context else {},
        )

    def to_dict(self) -> Dict[str, Any]:
        """Versioned, JSON-safe snapshot (see :meth:`from_dict`)."""
        # Imported lazily: sim.results reaches this package through the
        # kernel cost models, so a module-level import would be circular.
        from repro.sim.results import RESULT_SCHEMA_VERSION

        return {
            "kind": "report",
            "schema_version": RESULT_SCHEMA_VERSION,
            "label": self.label,
            "command": self.command,
            "wall_ns": self.wall_ns,
            "peak_rss": self.peak_rss,
            "cpu_user_s": self.cpu_user_s,
            "cpu_sys_s": self.cpu_sys_s,
            "layers": {name: dict(row) for name, row in self.layers.items()},
            "metrics": dict(self.metrics),
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Raises :class:`~repro.common.errors.ResultSchemaError` on a kind
        or schema-version mismatch.
        """
        from repro.sim.results import check_schema

        check_schema(data, "report")
        return cls(
            label=str(data["label"]),
            command=str(data["command"]),
            wall_ns=int(data["wall_ns"]),
            peak_rss=int(data["peak_rss"]),
            # Reports written before the resource-telemetry satellite
            # carry no CPU fields; default them instead of refusing.
            cpu_user_s=float(data.get("cpu_user_s", 0.0)),
            cpu_sys_s=float(data.get("cpu_sys_s", 0.0)),
            # Reports written by the span profiler carry ``spans`` (with
            # ``alloc_bytes`` in older ones) and no layers; they load
            # with an empty layer table.
            layers={
                name: {key: float(value) for key, value in row.items()}
                for name, row in data.get("layers", {}).items()
            },
            metrics={k: float(v) for k, v in data["metrics"].items()},
            context=dict(data["context"]),
        )
