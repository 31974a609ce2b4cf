"""Parallel execution of experiment grids.

:func:`execute_spec` is the pure worker: one
:class:`~repro.exp.spec.ExperimentSpec` in, one result out, no shared
state — it loads the workload (memoised per process, so a pool worker
that runs four triggers of the same workload generates its trace once),
builds the machine and policy, and runs the right simulator.

:class:`SweepRunner` drives a grid through it:

* **cache first** — every spec is looked up in the
  :class:`~repro.exp.cache.ResultCache` before any work is scheduled;
* **process pool** — misses run under a ``ProcessPoolExecutor``,
  degrading gracefully to in-process serial execution when
  ``jobs <= 1`` or a pool cannot be created; tasks
  are submitted in chunks grouped by workload so each worker loads a
  workload's trace at most once (``load_workload`` memoises per
  process);
* **record once, replay many** — before fanning out, each distinct
  workload trace is recorded into the shared
  :class:`~repro.store.TraceStore` (skipped when already recorded for
  this generator code version), so pool workers *replay* traces instead
  of regenerating them per process; with the store disabled
  (``REPRO_TRACE_STORE=0``) workers regenerate as before;
* **bounded retries** — a task that crashes its worker or raises is
  retried serially in-process up to ``retries`` times, so one
  flaky worker never sinks a long sweep;
* **deterministic seeding** — the workload trace is fully determined by
  the spec's seed, and each task additionally reseeds the global RNGs
  from the spec hash, so results are byte-identical whichever worker
  runs them in whatever order (``--jobs 4`` == ``--jobs 1``).

The optional ``fault_hook`` is called as ``hook(spec, attempt)`` before
each execution attempt; tests inject failures through it.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.common.stats import SampleStats
from repro.exp.cache import ResultCache, ResultType
from repro.exp.spec import ExperimentSpec, machine_for
from repro.obs.tracer import Tracer
from repro.policy.metrics import ALL_METRICS
from repro.sim.simulator import SimulatorOptions, SystemSimulator
from repro.trace.policysim import (
    PolicySimConfig,
    StaticPolicy,
    TracePolicySimulator,
)
from repro.workloads import load_workload

#: Result-table label per policy token.
POLICY_LABELS = {
    "rr": "RR", "ft": "FT", "pf": "PF",
    "migr": "Migr", "repl": "Repl", "migrep": "Mig/Rep",
    "ptft": "PT-FT", "ptmigr": "PT-Migr",
    "ptrepl": "PT-Repl", "coplace": "CoPlace",
    "competitive": "Competitive",
}

_STATIC_POLICIES = {
    "rr": StaticPolicy.ROUND_ROBIN,
    "ft": StaticPolicy.FIRST_TOUCH,
    "pf": StaticPolicy.POST_FACTO,
}

_METRICS_BY_LABEL = {m.label: m for m in ALL_METRICS}

#: Injectable fault hook: ``hook(spec, attempt)`` raising to simulate a
#: worker failure, or sleeping to simulate a hang (tests only).
FaultHook = Callable[[ExperimentSpec, int], None]


def derive_seed(spec: ExperimentSpec) -> int:
    """Per-task seed: the first eight hex digits of the spec hash."""
    return int(spec.spec_hash()[:8], 16)


def _timed_execute(
    spec: ExperimentSpec,
    fault_hook: Optional[FaultHook],
    attempt: int,
):
    """(duration_s, result) — measured in the worker, not as queue wait."""
    t0 = time.monotonic()
    result = execute_spec(spec, fault_hook, attempt)
    return time.monotonic() - t0, result


def _execute_chunk(
    specs: Sequence[ExperimentSpec],
    fault_hook: Optional[FaultHook],
):
    """Run a workload-grouped chunk; one (ok, duration_s, payload) per spec.

    Chunks keep every spec of one workload on one worker so its trace is
    generated once there (``load_workload`` memoises per process).
    Failures are per spec — one raising spec never sinks its chunk.
    """
    out = []
    for spec in specs:
        try:
            duration, result = _timed_execute(spec, fault_hook, 0)
            out.append((True, duration, result))
        except Exception as exc:
            out.append((False, 0.0, f"{type(exc).__name__}: {exc}"))
    return out


def execute_spec(
    spec: ExperimentSpec,
    fault_hook: Optional[FaultHook] = None,
    attempt: int = 0,
    *,
    tracer: Optional[Tracer] = None,
) -> ResultType:
    """Run one experiment to completion (pure; safe in any process).

    The simulators draw no global randomness, but the globals are
    reseeded deterministically per task anyway so a future stray
    consumer cannot make parallel and serial sweeps diverge.  A
    ``tracer`` records the run's events; it lives in the calling
    process, so a traced run is made there and never cached.
    """
    if fault_hook is not None:
        fault_hook(spec, attempt)
    task_seed = derive_seed(spec)
    random.seed(task_seed)
    np.random.seed(task_seed % 2**32)
    workload_spec, trace = load_workload(
        spec.workload, scale=spec.scale, seed=spec.seed
    )
    if spec.kind == "system":
        options = SimulatorOptions(
            dynamic=spec.dynamic,
            shootdown_mode=spec.shootdown_mode(),
            adaptive_trigger=spec.adaptive and spec.dynamic,
        )
        sim = SystemSimulator(
            workload_spec,
            machine=machine_for(spec.machine, workload_spec),
            params=spec.params(),
            options=options,
            tracer=tracer,
        )
        return sim.run(trace)
    # Trace-driven (Section 8): contentionless fixed-latency model.
    stream = trace.kernel_only() if spec.kernel_trace else trace.user_only()
    label = POLICY_LABELS[spec.policy]
    config = PolicySimConfig(
        n_cpus=workload_spec.n_cpus, n_nodes=workload_spec.n_nodes
    )
    if spec.pt_policy:
        from repro.ptpol import PtPolicySimulator

        pt_sim = PtPolicySimulator(config, tracer=tracer)
        return pt_sim.simulate(stream, spec.params(), label=label)
    sim = TracePolicySimulator(config, tracer=tracer)
    if spec.policy in _STATIC_POLICIES:
        return sim.simulate_static(stream, _STATIC_POLICIES[spec.policy])
    if spec.policy == "competitive":
        return sim.simulate_competitive(stream, label=label)
    return sim.simulate_dynamic(
        stream,
        spec.params(),
        metric=_METRICS_BY_LABEL[spec.metric],
        label=label,
    )


@dataclass
class SweepOutcome:
    """What happened to one spec during a sweep."""

    spec: ExperimentSpec
    result: Optional[ResultType] = None
    cached: bool = False
    attempts: int = 0
    duration_s: float = 0.0
    error: Optional[str] = None
    cancelled: bool = False

    @property
    def ok(self) -> bool:
        """Did the spec produce a result (from cache or execution)?"""
        return self.result is not None


@dataclass
class SweepReport:
    """A completed sweep: per-spec outcomes plus wall-clock accounting."""

    outcomes: List[SweepOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    jobs: int = 1
    #: Was the sweep stopped early (SIGINT/SIGTERM or ``request_stop``)?
    interrupted: bool = False
    #: Wall seconds per runner phase (cache/prewarm/pool/serial).
    phase_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Per-task execution durations (executed specs only, not cache hits).
    task_stats: SampleStats = field(default_factory=SampleStats)

    @property
    def results(self) -> List[Optional[ResultType]]:
        """Results in spec order (``None`` where a spec failed)."""
        return [o.result for o in self.outcomes]

    @property
    def failures(self) -> List[SweepOutcome]:
        """Outcomes that exhausted their retries (cancellations included)."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def cancelled(self) -> int:
        """How many specs were cancelled by a graceful stop."""
        return sum(1 for o in self.outcomes if o.cancelled)

    @property
    def from_cache(self) -> int:
        """How many specs were served without running a simulation."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        """How many specs actually ran a simulation."""
        return sum(1 for o in self.outcomes if o.ok and not o.cached)


class SweepRunner:
    """Run a grid of specs, in parallel, through the result cache."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        jobs: int = 1,
        retries: int = 1,
        fault_hook: Optional[FaultHook] = None,
        progress: Optional[Callable[[SweepOutcome, int, int], None]] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> None:
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.retries = max(0, int(retries))
        self.fault_hook = fault_hook
        self.progress = progress
        # Graceful-stop flag: settable from a signal handler or another
        # thread; the runner checks it between tasks (never mid-task)
        # and marks everything still pending as cancelled.
        self.stop_event = (
            stop_event if stop_event is not None else threading.Event()
        )

    # -- public API -----------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the sweep to stop after the task currently executing.

        Safe to call from a signal handler or another thread.  Pending
        tasks come back as cancelled outcomes; completed results (and
        anything already in the cache) are kept.
        """
        self.stop_event.set()

    @property
    def stopped(self) -> bool:
        """Has a graceful stop been requested?"""
        return self.stop_event.is_set()

    def run(self, specs: Sequence[ExperimentSpec]) -> SweepReport:
        """Execute every spec; never raises for individual task failures.

        Specs that fail after the bounded retries come back as outcomes
        with ``error`` set; callers decide whether that is fatal.
        """
        start = time.monotonic()
        outcomes = [SweepOutcome(spec=spec) for spec in specs]
        done = 0

        def report(outcome: SweepOutcome) -> None:
            nonlocal done
            done += 1
            if self.progress is not None:
                self.progress(outcome, done, len(outcomes))

        phase_wall_s: Dict[str, float] = {}

        @contextlib.contextmanager
        def phase(name: str):
            phase_start = time.perf_counter()
            yield
            phase_wall_s[name] = time.perf_counter() - phase_start

        to_run: List[int] = []
        with phase("cache"):
            for i, outcome in enumerate(outcomes):
                cached = (
                    self.cache.get(outcome.spec)
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    outcome.result = cached
                    outcome.cached = True
                    report(outcome)
                else:
                    to_run.append(i)

        if to_run and not self.stopped:
            if self.jobs > 1 and len(to_run) > 1:
                with phase("prewarm"):
                    self._prewarm_traces([outcomes[i].spec for i in to_run])
                with phase("pool"):
                    retry = self._run_pool(outcomes, to_run, report)
            else:
                retry = to_run
            with phase("serial"):
                self._run_serial(outcomes, retry, report)
        elif to_run:
            for i in to_run:
                self._cancel(outcomes[i])
                report(outcomes[i])

        report_obj = SweepReport(
            outcomes=outcomes,
            wall_s=time.monotonic() - start,
            jobs=self.jobs,
            interrupted=self.stopped,
            phase_wall_s=phase_wall_s,
        )
        for outcome in outcomes:
            if outcome.ok and not outcome.cached:
                report_obj.task_stats.add(outcome.duration_s)
        return report_obj

    # -- execution phases ------------------------------------------------------

    @staticmethod
    def _prewarm_traces(specs: Sequence[ExperimentSpec]) -> None:
        """Record each distinct workload trace once before fanning out.

        Pool workers then replay the recording from the shared
        :class:`~repro.store.TraceStore` instead of regenerating the
        trace in every worker process.  A no-op when the store is
        disabled; a workload that fails to record is left for the
        worker to surface (the sweep reports it per spec).
        """
        from repro.store import default_store
        from repro.workloads import record_workload

        if default_store() is None:
            return
        seen = set()
        for spec in specs:
            key = (spec.workload, spec.scale, spec.seed)
            if key in seen:
                continue
            seen.add(key)
            try:
                record_workload(spec.workload, scale=spec.scale, seed=spec.seed)
            except Exception:
                pass

    def _finish(self, outcome: SweepOutcome, result: ResultType) -> None:
        outcome.result = result
        outcome.error = None
        if self.cache is not None:
            self.cache.put(outcome.spec, result)

    @staticmethod
    def _cancel(outcome: SweepOutcome) -> None:
        outcome.cancelled = True
        outcome.error = "cancelled"

    def _run_pool(
        self,
        outcomes: List[SweepOutcome],
        indices: List[int],
        report: Callable[[SweepOutcome], None],
    ) -> List[int]:
        """First pass under a process pool; returns indices to retry."""
        chunks = self._chunk_by_workload(outcomes, indices)
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(chunks))
            )
        except (OSError, NotImplementedError, PermissionError):
            # No fork/spawn available (restricted sandboxes): run serial.
            return indices
        retry: List[int] = []
        broken = False
        try:
            futures: Dict[int, object] = {}
            try:
                for c, chunk in enumerate(chunks):
                    if self.stopped:
                        break
                    futures[c] = pool.submit(
                        _execute_chunk,
                        [outcomes[i].spec for i in chunk],
                        self.fault_hook,
                    )
            except (BrokenProcessPool, RuntimeError):
                broken = True
            for c, chunk in enumerate(chunks):
                future = futures.get(c)
                if future is None or broken:
                    retry.extend(chunk)
                    continue
                if self.stopped and future.cancel():
                    # Not started yet: hand it to the serial phase, which
                    # converts it into a cancelled outcome.
                    retry.extend(chunk)
                    continue
                try:
                    entries = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    for i in chunk:
                        outcomes[i].attempts += 1
                        outcomes[i].error = f"worker pool broke: {exc}"
                        retry.append(i)
                    continue
                except BaseException as exc:  # chunk machinery raised
                    for i in chunk:
                        outcomes[i].attempts += 1
                        outcomes[i].error = f"{type(exc).__name__}: {exc}"
                        retry.append(i)
                    continue
                for i, (ok, duration, payload) in zip(chunk, entries):
                    outcome = outcomes[i]
                    outcome.attempts += 1
                    if not ok:
                        outcome.error = payload
                        retry.append(i)
                        continue
                    outcome.duration_s = duration
                    self._finish(outcome, payload)
                    report(outcome)
        finally:
            pool.shutdown(wait=not broken, cancel_futures=True)
        return retry

    def _chunk_by_workload(
        self, outcomes: List[SweepOutcome], indices: List[int]
    ) -> List[List[int]]:
        """Group task indices so one worker owns one workload trace.

        ``load_workload`` memoises per process, so scattering a
        workload's specs across workers regenerates its trace in every
        one of them — at small spec counts that costs more than the
        simulations.  When there are fewer groups than workers, each
        group is split so every worker still gets work.
        """
        groups: Dict[tuple, List[int]] = {}
        for i in indices:
            spec = outcomes[i].spec
            groups.setdefault(
                (spec.workload, spec.scale, spec.seed), []
            ).append(i)
        pieces = max(1, -(-self.jobs // len(groups)))  # ceil
        chunks = []
        for group in groups.values():
            size = max(1, -(-len(group) // pieces))
            chunks.extend(
                group[k : k + size] for k in range(0, len(group), size)
            )
        return chunks

    def _run_serial(
        self,
        outcomes: List[SweepOutcome],
        indices: List[int],
        report: Callable[[SweepOutcome], None],
    ) -> None:
        """Serial (in-process) execution with bounded retries."""
        for i in indices:
            outcome = outcomes[i]
            if self.stopped:
                self._cancel(outcome)
                report(outcome)
                continue
            first = outcome.attempts  # pool attempt counts toward retries
            for attempt in range(first, self.retries + 1):
                if self.stopped:
                    self._cancel(outcome)
                    break
                t0 = time.monotonic()
                try:
                    result = execute_spec(
                        outcome.spec, self.fault_hook, attempt
                    )
                except Exception as exc:
                    outcome.attempts = attempt + 1
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    continue
                outcome.attempts = attempt + 1
                outcome.duration_s = time.monotonic() - t0
                self._finish(outcome, result)
                break
            report(outcome)
