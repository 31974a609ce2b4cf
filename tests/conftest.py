"""Shared fixtures.

Workload generation dominates test runtime, so the five specs and traces
are generated once per session at a small scale and shared read-only by
every test that needs realistic input.
"""

from __future__ import annotations

import os

import pytest

from repro.trace.record import Trace, TraceBuilder
from repro.workloads import build_spec, generate_trace

SMALL_SCALE = 0.05


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_store(tmp_path_factory):
    """Point the trace store at a per-session temp dir.

    Tests must neither read recordings from nor write them into the
    user's ``~/.cache/repro/traces``; worker processes spawned by sweep
    tests inherit the environment, so they share the same temp store.
    """
    from repro.store import reset_default_store

    os.environ["REPRO_TRACE_DIR"] = str(tmp_path_factory.mktemp("traces"))
    reset_default_store()
    yield


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the experiment result cache at a per-session temp dir.

    ``repro run``, ``tracesim``, ``ptsim`` and ``verify`` serve their
    cells from the result cache; tests must never read or write the
    user's ``~/.cache/repro/exp``.
    """
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("results"))
    yield


@pytest.fixture(scope="session")
def small_workloads():
    """{name: (spec, trace)} at a small scale, generated once."""
    loaded = {}
    for name in ("engineering", "raytrace", "splash", "database", "pmake"):
        spec = build_spec(name, scale=SMALL_SCALE, seed=7)
        loaded[name] = (spec, generate_trace(spec).freeze())
    return loaded


@pytest.fixture(scope="session")
def engineering(small_workloads):
    """(spec, trace) for the engineering workload."""
    return small_workloads["engineering"]


@pytest.fixture(scope="session")
def raytrace(small_workloads):
    """(spec, trace) for the raytrace workload."""
    return small_workloads["raytrace"]


@pytest.fixture(scope="session")
def database(small_workloads):
    """(spec, trace) for the database workload."""
    return small_workloads["database"]


@pytest.fixture(scope="session")
def pmake(small_workloads):
    """(spec, trace) for the pmake workload."""
    return small_workloads["pmake"]


@pytest.fixture(scope="session")
def splash(small_workloads):
    """(spec, trace) for the splash workload."""
    return small_workloads["splash"]


def make_trace(records, meta=None) -> Trace:
    """Build a trace from (time, cpu, process, page, weight, w, i, k) rows."""
    builder = TraceBuilder(meta=meta)
    for row in records:
        builder.append(*row)
    return builder.build()


@pytest.fixture
def tiny_trace() -> Trace:
    """A hand-written 8-record trace over 3 pages and 2 CPUs."""
    rows = [
        # time, cpu, process, page, weight, is_write, is_instr, is_kernel
        (100, 0, 0, 0, 10, False, False, False),
        (200, 0, 0, 1, 5, False, True, False),
        (300, 1, 1, 0, 8, False, False, False),
        (400, 1, 1, 2, 3, True, False, False),
        (500, 0, 0, 0, 12, False, False, False),
        (600, 1, 1, 1, 2, False, True, False),
        (700, 0, 0, 2, 4, False, False, True),
        (800, 1, 1, 0, 6, True, False, False),
    ]
    return make_trace(rows)
