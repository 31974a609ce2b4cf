"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  The heavy
inputs — the five workload traces and the FT / Mig/Rep full-system runs —
are produced once per session and shared.

The workload traces come through the shared
:class:`repro.store.TraceStore` (``$REPRO_TRACE_DIR`` or
``~/.cache/repro/traces``; see ``docs/TRACESTORE.md``): the first bench
session records each trace once and every later session — and every
``repro sweep`` / ``repro trace replay`` against the same store —
replays the recording instead of regenerating it.  Set
``REPRO_TRACE_STORE=0`` to force in-process regeneration.

The full-system runs additionally go through the :mod:`repro.exp` result
cache (same directory ``repro sweep`` uses — ``$REPRO_CACHE_DIR`` or
``~/.cache/repro/exp``), so a ``repro sweep --grid fig3`` warmed cache
makes ``pytest benchmarks/`` skip the simulations entirely, and vice
versa.  Both stores are content-addressed on identity + code version, so
they can never serve results from an older checkout; set
``REPRO_BENCH_NO_CACHE=1`` to bypass the result cache entirely.

Scale defaults to 1.0 (the paper's full run lengths); set the environment
variable ``REPRO_BENCH_SCALE`` to a smaller value for quick passes.
``REPRO_BENCH_JOBS`` (default 1) runs cache-missing FT/Mig/Rep pairs in
parallel worker processes.

Each bench prints its table and also writes it to
``benchmarks/results/<name>.txt`` so the output survives pytest's capture.
At any scale other than 1.0 the tables and ``BENCH_*.json`` artifacts go
to ``benchmarks/results/scale-<scale>/`` instead (gitignored), so a quick
pass never overwrites the committed full-scale results.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.exp.cache import ResultCache
from repro.exp.runner import SweepRunner
from repro.exp.spec import ExperimentSpec
from repro.obs.bench import results_dir
from repro.policy.parameters import PolicyParameters
from repro.sim.results import SimulationResult
from repro.trace.record import Trace
from repro.workloads import load_workload
from repro.workloads.spec import WorkloadSpec

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
BENCH_NO_CACHE = os.environ.get("REPRO_BENCH_NO_CACHE", "") not in ("", "0")
RESULTS_DIR = results_dir(Path(__file__).parent, BENCH_SCALE)

USER_WORKLOADS = ("engineering", "raytrace", "splash", "database")
ALL_WORKLOADS = USER_WORKLOADS + ("pmake",)


def params_for(name: str) -> PolicyParameters:
    """The paper's base policy: trigger 96 for engineering, 128 otherwise."""
    if name == "engineering":
        return PolicyParameters.engineering_base()
    return PolicyParameters.base()


class WorkloadStore:
    """Lazy, memoised workload and full-system-run store.

    Workload traces are shared with the library's ``load_workload`` memo;
    the FT / Mig/Rep comparisons delegate to the :mod:`repro.exp` sweep
    runner, which consults the shared content-addressed result cache
    before simulating anything.
    """

    def __init__(self) -> None:
        self._fig3: Dict[str, Dict[str, SimulationResult]] = {}
        self._cache = None if BENCH_NO_CACHE else ResultCache()
        self._runner = SweepRunner(cache=self._cache, jobs=BENCH_JOBS)

    def workload(self, name: str) -> Tuple[WorkloadSpec, Trace]:
        return load_workload(name, scale=BENCH_SCALE, seed=BENCH_SEED)

    def fig3(self, name: str) -> Dict[str, SimulationResult]:
        """FT and Mig/Rep full-system runs (cached; reused by Tables 4-6)."""
        if name not in self._fig3:
            specs = [
                ExperimentSpec(
                    workload=name, scale=BENCH_SCALE, seed=BENCH_SEED,
                    kind="system", policy=policy,
                )
                for policy in ("ft", "migrep")
            ]
            report = self._runner.run(specs)
            failed = report.failures
            if failed:
                raise RuntimeError(
                    f"full-system run failed for {name}: {failed[0].error}"
                )
            ft, mr = report.results
            self._fig3[name] = {"FT": ft, "Mig/Rep": mr}
        return self._fig3[name]


@pytest.fixture(scope="session")
def store() -> WorkloadStore:
    return WorkloadStore()


@pytest.fixture(scope="session")
def emit():
    """Print a rendered table and persist it under :data:`RESULTS_DIR`."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _emit(name: str, text: str) -> str:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        return text

    return _emit


@pytest.fixture
def report():
    """A :class:`BenchRun` factory: text table + ``BENCH_<name>.json``.

    Usage::

        run = report("replay_fastpath", scale=BENCH_SCALE)
        run.metric("speedup.all", 4.2, unit="x", tolerance=0.25)
        run.emit(format_table(...))
    """
    from _reporting import BenchRun

    def _report(name: str, **context) -> BenchRun:
        return BenchRun(name, RESULTS_DIR, context=context)

    return _report


@pytest.fixture
def once(benchmark):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once
