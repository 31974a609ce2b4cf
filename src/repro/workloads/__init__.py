"""Synthetic analogues of the paper's five workloads (Table 2).

``load_workload`` is the main entry point; it builds the spec (cheap)
and produces the trace through the :mod:`repro.store` trace store —
record once, replay many.  The first load of a (name, scale, seed)
triple under a given generator code version generates the trace and
records it as a compressed container; every later load, in any
process, replays the recording instead of regenerating.  An in-memory
memo on top keeps repeat loads within one process free.

Set ``REPRO_TRACE_STORE=0`` to disable the store (every cold load then
regenerates in-process, the pre-store behaviour) and
``REPRO_TRACE_DIR`` to relocate it; see ``docs/TRACESTORE.md``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import ConfigurationError
from repro.trace.record import Trace
from repro.workloads import database, engineering, pmake, raytrace, splash
from repro.workloads.base import TraceGenerator, generate_trace
from repro.workloads.spec import (
    GroupInstance,
    PageGroupSpec,
    SharingClass,
    WorkloadSpec,
)

#: Sentinel distinguishing "use the default store" from "no store".
_DEFAULT = object()

_BUILDERS = {
    "engineering": engineering.build,
    "raytrace": raytrace.build,
    "splash": splash.build,
    "database": database.build,
    "pmake": pmake.build,
}

WORKLOAD_NAMES = tuple(_BUILDERS)

_cache: Dict[Tuple[str, float, int], Tuple[WorkloadSpec, Trace]] = {}


def build_spec(name: str, scale: float = 1.0, seed: int = 0) -> WorkloadSpec:
    """Build the spec for a named workload."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; pick one of {sorted(_BUILDERS)}"
        )
    return builder(scale=scale, seed=seed)


def trace_for(spec: WorkloadSpec, store=_DEFAULT) -> Trace:
    """The trace for ``spec``: replayed from the store, else generated.

    On a store miss the freshly generated trace is recorded before it
    is returned, so the next caller — this process or any other —
    replays it.  ``store=None`` bypasses the store entirely.
    """
    if store is _DEFAULT:
        from repro.store import default_store

        store = default_store()
    if store is None:
        return generate_trace(spec)
    return store.get_or_record(
        spec.identity(), lambda: generate_trace(spec), meta=spec
    )


def record_workload(
    name: str, scale: float = 1.0, seed: int = 0, store=_DEFAULT
) -> Tuple[WorkloadSpec, bool]:
    """Ensure a workload's trace is recorded; (spec, was_already_recorded).

    Unlike :func:`load_workload` this does not populate the in-memory
    memo and does not keep the trace alive, so a sweep driver can
    record many workloads once each without holding them all.
    """
    if store is _DEFAULT:
        from repro.store import default_store

        store = default_store()
    spec = build_spec(name, scale=scale, seed=seed)
    if store is None:
        return spec, False
    if store.contains(spec.identity()):
        return spec, True
    store.put(spec.identity(), generate_trace(spec))
    return spec, False


def load_workload(
    name: str, scale: float = 1.0, seed: int = 0, store=_DEFAULT
) -> Tuple[WorkloadSpec, Trace]:
    """(spec, trace) for a named workload, cached per (name, scale, seed).

    The trace comes from the shared :class:`repro.store.TraceStore`
    (replay) when a recording exists for this generator code version,
    and is generated and recorded otherwise; pass ``store=None`` to
    force in-process generation.  Every caller in the process shares
    the cached trace, so its columns are read-only.
    """
    key = (name, float(scale), int(seed))
    cached = _cache.get(key)
    if cached is None:
        spec = build_spec(name, scale=scale, seed=seed)
        trace = trace_for(spec, store=store).freeze()
        cached = _cache[key] = (spec, trace)
    return cached


def clear_cache() -> None:
    """Drop all cached workloads (tests use this to bound memory)."""
    _cache.clear()


__all__ = [
    "WORKLOAD_NAMES",
    "build_spec",
    "load_workload",
    "trace_for",
    "record_workload",
    "clear_cache",
    "generate_trace",
    "TraceGenerator",
    "GroupInstance",
    "PageGroupSpec",
    "SharingClass",
    "WorkloadSpec",
]
