"""Trace-driven policy simulation with a contentionless memory model.

Reproduces the methodology of Section 8: each workload's secondary-cache
miss trace is replayed against a simple memory model (300 ns local miss,
1200 ns remote miss, 350 µs per migration/replication/collapse) under

* three static policies — round-robin, first-touch, post-facto — and
* three dynamic policies — migration-only, replication-only, combined —

optionally driven by approximate information (sampled cache misses or
TLB misses, Section 8.3).  Static policies are evaluated fully vectorised;
dynamic policies replay the merged driver/cost streams through the same
counter bank and decision tree the kernel implementation uses.
"""

from __future__ import annotations

import enum
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.common.errors import ConfigurationError, TraceError
from repro.common.units import US
from repro.machine.directory import MissCounterBank, SamplingAccumulator
from repro.obs.events import (
    CollapseEvent,
    HotPageTriggered,
    IntervalReset,
    MigrationDecision,
    MissServiced,
    NoActionDecision,
    ReplicationDecision,
    RunMeta,
)
from repro.obs.prof import as_profiler
from repro.obs.tracer import as_tracer
from repro.policy.decision import Action, decide
from repro.policy.metrics import FULL_CACHE, Metric
from repro.policy.parameters import PolicyParameters
from repro.policy.placement import (
    first_touch_placement,
    post_facto_placement,
    round_robin_placement,
    static_stall_ns,
)
from repro.sim.results import RESULT_SCHEMA_VERSION, check_schema
from repro.trace.record import Trace
from repro.trace.tlbsim import derive_tlb_trace, merged_tlb_stream


class StaticPolicy(enum.Enum):
    """The static placement strategies of Figure 6."""

    ROUND_ROBIN = "RR"
    FIRST_TOUCH = "FT"
    POST_FACTO = "PF"


#: Valid values of :attr:`PolicySimConfig.engine`.
REPLAY_ENGINES = ("auto", "scalar", "vector")


def _engine_from_env() -> str:
    """Default replay engine, overridable via ``REPRO_REPLAY_ENGINE``.

    Reading the environment in the field default means sweep workers —
    which build a fresh :class:`PolicySimConfig` in-process — pick up
    the engine chosen on the driver's command line with no extra
    plumbing (the environment is inherited across the pool).
    """
    return os.environ.get("REPRO_REPLAY_ENGINE", "auto")


@dataclass(frozen=True)
class PolicySimConfig:
    """Memory model parameters for the trace-driven simulator."""

    n_cpus: int = 8
    n_nodes: int = 8
    local_ns: int = 300
    remote_ns: int = 1200
    op_cost_ns: int = 350 * US     # cost of a migrate/replicate/collapse
    decision_delay_ns: int = 20_000_000
    """Delay between a counter crossing the trigger and the pager acting.

    The directory controller collects multiple hot pages before raising an
    interrupt (Section 4); with weighted trace records the delay also lets
    concurrent CPUs' misses be counted before the sharing test runs, which
    is what happens naturally in an unweighted miss stream.
    """

    pt_walk_local_ns: int = 1200
    """Stall charged per page-table walk satisfied by a node-local PT
    (a walk is a dependent chain of memory references, so it costs a
    multiple of a single miss; see :mod:`repro.ptpol`)."""

    pt_walk_remote_ns: int = 4800
    """Stall charged per walk that must reference a remote page table."""

    pt_span_pages: int = 512
    """Data pages mapped by one page-table page (4 KB of 8-byte PTEs);
    the granularity at which PT pages are homed and replicated."""

    engine: str = field(default_factory=_engine_from_env)
    """Dynamic-replay engine: ``"auto"``, ``"scalar"`` or ``"vector"``.

    ``"vector"`` selects the segmented batch engines of
    :mod:`repro.trace.fastpath` and :mod:`repro.ptpol.fastpath`
    (byte-identical results — event logs included, emitted through the
    batched buffer of :mod:`repro.obs.batch` — and much faster);
    ``"auto"`` (the default, overridable via ``REPRO_REPLAY_ENGINE``)
    always picks the vector engine.  ``"scalar"`` pins the reference
    core, mainly for the differential suites and for debugging.
    """

    def __post_init__(self) -> None:
        if self.n_cpus <= 0 or self.n_nodes <= 0:
            raise ConfigurationError("need positive CPU and node counts")
        if self.n_cpus % self.n_nodes != 0:
            raise ConfigurationError("CPUs must divide evenly across nodes")
        if self.local_ns <= 0 or self.remote_ns < self.local_ns:
            raise ConfigurationError("latencies must satisfy 0 < local <= remote")
        if self.op_cost_ns < 0:
            raise ConfigurationError("operation cost must be non-negative")
        if self.decision_delay_ns < 0:
            raise ConfigurationError("decision delay must be non-negative")
        if self.pt_walk_local_ns <= 0 or self.pt_walk_remote_ns < self.pt_walk_local_ns:
            raise ConfigurationError(
                "walk latencies must satisfy 0 < local <= remote"
            )
        if self.pt_span_pages <= 0:
            raise ConfigurationError("PT span must be positive")
        if self.engine not in REPLAY_ENGINES:
            raise ConfigurationError(
                f"unknown replay engine {self.engine!r}; "
                f"expected one of {REPLAY_ENGINES}"
            )

    def node_of_cpu(self, cpu: int) -> int:
        """Home node of ``cpu``."""
        return cpu // (self.n_cpus // self.n_nodes)


@dataclass
class PolicySimResult:
    """Outcome of one policy run over one trace."""

    label: str
    total_misses: int = 0
    local_misses: int = 0
    stall_ns: float = 0.0
    overhead_ns: float = 0.0
    migrations: int = 0
    replications: int = 0
    collapses: int = 0
    hot_events: int = 0
    no_actions: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def remote_misses(self) -> int:
        """Misses serviced from remote memory."""
        return self.total_misses - self.local_misses

    @property
    def local_fraction(self) -> float:
        """Fraction of misses serviced from local memory."""
        return self.local_misses / self.total_misses if self.total_misses else 0.0

    @property
    def local_stall_ns(self) -> float:
        """Stall attributable to local misses (under the fixed latencies)."""
        return float(self.extra.get("local_stall_ns", 0.0))

    @property
    def remote_stall_ns(self) -> float:
        """Stall attributable to remote misses."""
        return self.stall_ns - self.local_stall_ns

    def run_time_ns(self, other_ns: float = 0.0) -> float:
        """Execution time: fixed 'other' time + stall + movement overhead."""
        return other_ns + self.stall_ns + self.overhead_ns

    def normalised_to(self, baseline: "PolicySimResult", other_ns: float = 0.0) -> float:
        """Run time normalised to another policy's (Figure 6 style)."""
        base = baseline.run_time_ns(other_ns)
        return self.run_time_ns(other_ns) / base if base else 0.0

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> Dict:
        """Versioned, JSON-safe snapshot (see :meth:`from_dict`)."""
        return {
            "kind": "trace",
            "schema_version": RESULT_SCHEMA_VERSION,
            "label": self.label,
            "total_misses": self.total_misses,
            "local_misses": self.local_misses,
            "stall_ns": self.stall_ns,
            "overhead_ns": self.overhead_ns,
            "migrations": self.migrations,
            "replications": self.replications,
            "collapses": self.collapses,
            "hot_events": self.hot_events,
            "no_actions": self.no_actions,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PolicySimResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises :class:`~repro.common.errors.ResultSchemaError` on a kind
        or schema-version mismatch.
        """
        check_schema(data, "trace")
        return cls(
            label=data["label"],
            total_misses=int(data["total_misses"]),
            local_misses=int(data["local_misses"]),
            stall_ns=float(data["stall_ns"]),
            overhead_ns=float(data["overhead_ns"]),
            migrations=int(data["migrations"]),
            replications=int(data["replications"]),
            collapses=int(data["collapses"]),
            hot_events=int(data["hot_events"]),
            no_actions=int(data["no_actions"]),
            extra={k: float(v) for k, v in data["extra"].items()},
        )


def _pager_act(
    now,
    page,
    cpu,
    copies,
    bank,
    armed,
    result,
    params,
    cpu_nodes,
    op_cost,
    tracer,
    trace_on,
):
    """Pager action once a hot page's interrupt is serviced.

    The one copy of the migrate/replicate/no-action state machine, shared
    by the scalar replay loop and the vectorized engine's hot-page
    sub-replay (:mod:`repro.trace.fastpath`) so the two cannot drift.
    ``cpu_nodes`` may be a numpy array or a plain list.
    """
    page_copies = copies[page]
    node = int(cpu_nodes[cpu])
    if node in page_copies:
        armed.discard(page)
        return  # became local while pending (another CPU acted)
    counters = bank.get(page)
    if counters is None:
        armed.discard(page)
        return  # counters cleared by a concurrent action
    decision = decide(
        counters.miss,
        counters.writes,
        counters.migrates,
        cpu,
        params,
        memory_pressure=False,
    )
    if decision.action is Action.MIGRATE and len(page_copies) == 1:
        dest = (
            int(cpu_nodes[decision.target_cpu])
            if decision.target_cpu is not None
            else node
        )
        if dest in page_copies:
            result.no_actions += 1
            if trace_on:
                tracer.emit(
                    NoActionDecision(
                        t=now, page=page, cpu=cpu,
                        reason="target-already-home",
                    )
                )
            return
        src = next(iter(page_copies))
        page_copies.clear()
        page_copies.add(dest)
        result.migrations += 1
        result.overhead_ns += op_cost
        bank.note_migration(page)
        bank.clear_page(page)
        armed.discard(page)
        if trace_on:
            tracer.emit(
                MigrationDecision(
                    t=now, page=page, cpu=cpu, src=src, dst=dest,
                    outcome="migrated", reason=decision.reason.value,
                    latency_ns=float(op_cost),
                )
            )
    elif decision.action is Action.REPLICATE:
        src = min(page_copies)
        page_copies.add(node)
        result.replications += 1
        result.overhead_ns += op_cost
        bank.clear_page(page)
        armed.discard(page)
        if trace_on:
            tracer.emit(
                ReplicationDecision(
                    t=now, page=page, cpu=cpu, src=src, dst=node,
                    outcome="replicated", reason=decision.reason.value,
                    latency_ns=float(op_cost),
                )
            )
    else:
        # No action: the page stays latched until the next reset so
        # the pager is not re-interrupted for it every miss.
        result.no_actions += 1
        if trace_on:
            tracer.emit(
                NoActionDecision(
                    t=now, page=page, cpu=cpu,
                    reason=decision.reason.value,
                )
            )


class _CompetitiveCore:
    """The [BGW89] competitive state machine, one event at a time.

    The single copy of the watermark/migrate/replicate logic, shared by
    the scalar loop and the vectorized engine's candidate sub-replay
    (:func:`repro.trace.fastpath.replay_competitive_vector`) so the two
    cannot drift.  Unlike the pager replay it needs no clock: no reset
    interval, no decision delay — actions fire synchronously at the
    event that crosses the break-even watermark.
    """

    __slots__ = (
        "result", "placement", "cpu_nodes", "copies", "remote_counts",
        "written", "break_even", "n_cpus", "local_ns", "remote_ns",
        "op_cost", "local_stall",
    )

    def __init__(self, config, result, placement, cpu_nodes, break_even):
        self.result = result
        self.placement = placement
        self.cpu_nodes = [int(n) for n in cpu_nodes]
        self.copies: Dict[int, Set[int]] = {}
        self.remote_counts: Dict[int, "np.ndarray"] = {}
        self.written: Set[int] = set()
        self.break_even = break_even
        self.n_cpus = config.n_cpus
        self.local_ns = config.local_ns
        self.remote_ns = config.remote_ns
        self.op_cost = config.op_cost_ns
        self.local_stall = 0.0

    def step(self, cpu: int, page: int, weight: int, is_write: bool) -> None:
        result = self.result
        page_copies = self.copies.get(page)
        if page_copies is None:
            page_copies = self.copies[page] = {int(self.placement[page])}
        node = self.cpu_nodes[cpu]
        if is_write:
            self.written.add(page)
            if len(page_copies) > 1:
                keep = node if node in page_copies else min(page_copies)
                page_copies.clear()
                page_copies.add(keep)
                result.collapses += 1
                result.overhead_ns += self.op_cost
        local = node in page_copies
        result.total_misses += weight
        if local:
            result.local_misses += weight
            result.stall_ns += weight * self.local_ns
            self.local_stall += weight * self.local_ns
            return
        result.stall_ns += weight * self.remote_ns
        counts = self.remote_counts.get(page)
        if counts is None:
            counts = self.remote_counts[page] = np.zeros(
                self.n_cpus, dtype=np.int64
            )
        counts[cpu] += weight
        if counts[cpu] < self.break_even:
            return
        result.hot_events += 1
        if page in self.written and len(page_copies) == 1:
            page_copies.clear()
            page_copies.add(node)
            result.migrations += 1
        else:
            page_copies.add(node)
            result.replications += 1
        result.overhead_ns += self.op_cost
        counts[:] = 0


class TracePolicySimulator:
    """Replay traces under static and dynamic placement policies."""

    def __init__(
        self,
        config: Optional[PolicySimConfig] = None,
        tracer=None,
        metrics=None,
        profiler=None,
    ) -> None:
        self.config = config or PolicySimConfig()
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self.profiler = as_profiler(profiler)
        self._cpu_nodes = np.asarray(
            [self.config.node_of_cpu(c) for c in range(self.config.n_cpus)],
            dtype=np.int64,
        )

    def _emit_run_meta(self, label: str, params=None, pt: bool = False) -> None:
        """Emit the run-context header event (once, at ``t=0``).

        Lets post-hoc consumers (``repro analyze``) redo the stall and
        cost arithmetic without the original config in hand.  ``pt``
        publishes the page-table walk latencies; runs without a PT
        model leave them at 0 so old logs and new logs read alike.
        """
        if not self.tracer.wants(RunMeta.KIND):
            return
        cfg = self.config
        self.tracer.emit(
            RunMeta(
                t=0,
                label=label,
                n_cpus=cfg.n_cpus,
                n_nodes=cfg.n_nodes,
                local_ns=float(cfg.local_ns),
                remote_ns=float(cfg.remote_ns),
                op_cost_ns=float(cfg.op_cost_ns),
                trigger=params.trigger_threshold if params is not None else 0,
                reset_interval_ns=(
                    params.reset_interval_ns if params is not None else 0
                ),
                engine=cfg.engine,
                pt_walk_local_ns=float(cfg.pt_walk_local_ns) if pt else 0.0,
                pt_walk_remote_ns=float(cfg.pt_walk_remote_ns) if pt else 0.0,
                pt_span_pages=cfg.pt_span_pages if pt else 0,
            )
        )

    def _resolve_engine(self, path: str = "dynamic") -> str:
        """Pick the replay engine for this run.

        Every replay path now has a vectorized twin, and an active
        tracer composes with the vector engines through batched
        emission (:mod:`repro.obs.batch`), so ``auto`` simply picks
        ``vector`` — there is no tracer-driven fallback and no
        vector+tracer error any more.  The choice lands in the
        aggregate ``replay.engine.<engine>`` counter and the per-path
        ``replay.engine.<path>.<engine>`` counter when a metrics
        registry is attached (``path`` is ``"dynamic"``, ``"chunks"``
        or ``"competitive"``; :mod:`repro.ptpol` counts under
        ``"ptpol"``).
        """
        engine = self.config.engine
        choice = "vector" if engine == "auto" else engine
        if self.metrics is not None:
            self.metrics.counter(f"replay.engine.{choice}").inc()
            self.metrics.counter(f"replay.engine.{path}.{choice}").inc()
        return choice

    # -- static policies ----------------------------------------------------------

    def placement_for(self, trace: Trace, policy: StaticPolicy) -> np.ndarray:
        """Page -> node array for a static policy."""
        cfg = self.config
        if policy is StaticPolicy.ROUND_ROBIN:
            return round_robin_placement(trace, cfg.n_nodes)
        if policy is StaticPolicy.FIRST_TOUCH:
            return first_touch_placement(trace, cfg.n_nodes, cfg.node_of_cpu)
        return post_facto_placement(trace, cfg.n_nodes, cfg.node_of_cpu)

    def simulate_static(
        self, trace: Trace, policy: StaticPolicy
    ) -> PolicySimResult:
        """Evaluate a static placement (no page movement, no overhead)."""
        cfg = self.config
        self._emit_run_meta(policy.value)
        placement = self.placement_for(trace, policy)
        stall, local_fraction = static_stall_ns(
            trace, placement, cfg.node_of_cpu, cfg.local_ns, cfg.remote_ns
        )
        total = trace.total_misses
        local = int(round(local_fraction * total))
        result = PolicySimResult(
            label=policy.value,
            total_misses=total,
            local_misses=local,
            stall_ns=stall,
        )
        result.extra["local_stall_ns"] = float(local * cfg.local_ns)
        if self.tracer.wants(MissServiced.KIND):
            self._emit_static_misses(trace, placement)
        return result

    def _emit_static_misses(self, trace: Trace, placement: np.ndarray) -> None:
        """Per-miss events for a static run (tracer-gated scalar pass).

        Mirrors :func:`~repro.policy.placement.static_stall_ns` exactly
        — same locality test, same latency charged — so attributed
        stall sums reconcile byte-for-byte with the vectorised result.
        """
        cfg = self.config
        tracer = self.tracer
        cpu_nodes = self._cpu_nodes.tolist()
        place = placement.tolist()
        local_ns, remote_ns = float(cfg.local_ns), float(cfg.remote_ns)
        rows = zip(
            trace.time_ns.tolist(),
            trace.cpu.tolist(),
            trace.page.tolist(),
            trace.weight.tolist(),
        )
        for t, cpu, page, weight in rows:
            node = place[page]
            local = node == cpu_nodes[cpu]
            tracer.emit(
                MissServiced(
                    t=t,
                    cpu=cpu,
                    page=page,
                    node=node,
                    weight=weight,
                    latency_ns=local_ns if local else remote_ns,
                    remote=not local,
                )
            )

    # -- dynamic policies ------------------------------------------------------------

    def simulate_dynamic(
        self,
        trace: Trace,
        params: PolicyParameters,
        metric: Metric = FULL_CACHE,
        label: Optional[str] = None,
        driver_trace: Optional[Trace] = None,
        initial: StaticPolicy = StaticPolicy.FIRST_TOUCH,
    ) -> PolicySimResult:
        """Replay ``trace`` under a dynamic migration/replication policy.

        ``metric`` picks the counter-driving stream: cache misses (the
        trace itself) or a TLB-miss trace derived from it (or supplied via
        ``driver_trace``), each optionally sampled.
        """
        cfg = self.config
        if metric.uses_tlb and driver_trace is None:
            driver_trace = derive_tlb_trace(trace, n_cpus=cfg.n_cpus)
        if metric.sampling_rate > 1:
            params = params.scaled_for_sampling(metric.sampling_rate)
        result = PolicySimResult(label=label or self._default_label(params, metric))
        placement = self.placement_for(trace, initial)
        profiler = self.profiler
        n_events = len(trace) + (len(driver_trace) if driver_trace is not None else 0)

        self._emit_run_meta(result.label, params)
        engine = self._resolve_engine("dynamic")
        with profiler.span("replay.dynamic", items=n_events):
            if engine == "vector":
                from repro.trace import fastpath

                with profiler.span("engine.vector", items=n_events):
                    fastpath.replay_dynamic_vector(
                        self.config, trace, params, result, placement,
                        sampling_rate=metric.sampling_rate,
                        driver_trace=driver_trace,
                        profiler=profiler,
                        tracer=self.tracer,
                    )
                return result

            def initial_node(page: int, cpu: int) -> int:
                return int(placement[page])

            if driver_trace is None:
                events = self._single_stream_events(trace)
            else:
                events = self._merged_events(trace, driver_trace)
            with profiler.span("engine.scalar", items=n_events):
                self._replay_dynamic(
                    events, params, result, initial_node,
                    sampling_rate=metric.sampling_rate,
                )
        return result

    def simulate_dynamic_chunks(
        self,
        chunks,
        params: PolicyParameters,
        metric: Metric = FULL_CACHE,
        label: Optional[str] = None,
        initial: StaticPolicy = StaticPolicy.FIRST_TOUCH,
    ) -> PolicySimResult:
        """Streaming dynamic replay over time-ordered trace chunks.

        ``chunks`` is a zero-argument callable returning a fresh
        iterator of time-ordered sub-traces (a *chunk factory*), a
        sequence of chunks, or a one-shot iterator — most usefully
        ``lambda: reader.iter_chunks()`` over a
        :class:`repro.store.ContainerReader`, so a stored trace replays
        with peak memory bounded by one chunk instead of the whole
        trace.  The streamed result is byte-identical to
        :meth:`simulate_dynamic` over the concatenated trace for every
        initial placement and metric: first-touch and round-robin
        placements are derived on the fly, post-facto placement
        majority-counts the stream in a first pass (so it needs a
        factory or a sequence — a one-shot iterator raises), and
        TLB-driven metrics derive and merge the TLB stream chunk by
        chunk (:func:`repro.trace.tlbsim.merged_tlb_stream`).
        """
        cfg = self.config
        if callable(chunks):
            factory = chunks
        elif isinstance(chunks, (list, tuple)):
            chunk_seq = chunks
            factory = lambda: iter(chunk_seq)  # noqa: E731
        else:
            factory = None  # one-shot iterator: single pass only
        if metric.sampling_rate > 1:
            params = params.scaled_for_sampling(metric.sampling_rate)
        result = PolicySimResult(label=label or self._default_label(params, metric))
        cpu_nodes = self._cpu_nodes
        placement: Optional[np.ndarray] = None
        if initial is StaticPolicy.FIRST_TOUCH:
            initial_kind: Optional[str] = "ft"

            def initial_node(page: int, cpu: int) -> int:
                return int(cpu_nodes[cpu])
        elif initial is StaticPolicy.ROUND_ROBIN:
            initial_kind = "rr"
            n_nodes = cfg.n_nodes

            def initial_node(page: int, cpu: int) -> int:
                return int(page % n_nodes)
        else:
            if factory is None:
                raise ConfigurationError(
                    "post-facto initial placement replays the stream "
                    "twice; pass a chunk factory (a zero-argument "
                    "callable returning a fresh iterator) or a "
                    "sequence of chunks instead of a one-shot iterator"
                )
            initial_kind = None
            placement = self._post_facto_from_chunks(factory)
            pf_placement = placement

            def initial_node(page: int, cpu: int) -> int:
                return int(pf_placement[page])
        stream = factory() if factory is not None else chunks
        profiler = self.profiler
        self._emit_run_meta(result.label, params)
        engine = self._resolve_engine("chunks")
        with profiler.span("replay.chunks") as run_span:
            if engine == "vector":
                from repro.trace import fastpath

                with profiler.span("engine.vector") as engine_span:
                    if metric.uses_tlb:
                        fastpath.replay_batches_vector(
                            self.config,
                            merged_tlb_stream(stream, cfg.n_cpus),
                            params, result,
                            initial_kind=initial_kind,
                            sampling_rate=metric.sampling_rate,
                            profiler=profiler,
                            tracer=self.tracer,
                            placement=placement,
                        )
                    else:
                        fastpath.replay_chunks_vector(
                            self.config, stream, params, result,
                            initial_kind=initial_kind,
                            sampling_rate=metric.sampling_rate,
                            profiler=profiler,
                            tracer=self.tracer,
                            placement=placement,
                        )
                    engine_span.add_items(result.total_misses)
                run_span.add_items(result.total_misses)
                return result
            if metric.uses_tlb:
                events = self._batch_stream_events(
                    merged_tlb_stream(stream, cfg.n_cpus), profiler
                )
            else:
                events = self._chunk_stream_events(stream, profiler)
            with profiler.span("engine.scalar") as engine_span:
                self._replay_dynamic(
                    events, params, result, initial_node,
                    sampling_rate=metric.sampling_rate,
                )
                engine_span.add_items(result.total_misses)
            run_span.add_items(result.total_misses)
        return result

    def _post_facto_from_chunks(self, factory) -> np.ndarray:
        """Majority-count pass: post-facto placement from streamed chunks.

        Reproduces :func:`repro.policy.placement.post_facto_placement`
        over the concatenated stream without materializing it: per-page
        per-node miss weights accumulate chunk by chunk into a flat
        ``(page, node)`` table (float64 sums of integer weights — exact
        below 2**53, like every other bulk sum in the vector engine).
        """
        cfg = self.config
        n_nodes = cfg.n_nodes
        cpu_nodes = self._cpu_nodes
        counts = np.zeros(0, dtype=np.float64)
        with self.profiler.span("replay.post-facto-count"):
            for chunk in factory():
                if not len(chunk):
                    continue
                pages = chunk.page
                need = (int(pages.max()) + 1) * n_nodes
                if need > len(counts):
                    counts = np.concatenate(
                        [counts, np.zeros(need - len(counts), dtype=np.float64)]
                    )
                keys = pages * n_nodes + cpu_nodes[chunk.cpu]
                counts += np.bincount(
                    keys, weights=chunk.weight, minlength=len(counts)
                )
        n_pages = len(counts) // n_nodes
        placement = np.arange(max(n_pages, 1), dtype=np.int64) % max(n_nodes, 1)
        if n_pages:
            per_page = counts.reshape(n_pages, n_nodes)
            touched = per_page.sum(axis=1) > 0
            placement[touched] = per_page[touched].argmax(axis=1)
        return placement

    def _replay_dynamic(
        self,
        events,
        params: PolicyParameters,
        result: PolicySimResult,
        initial_node,
        sampling_rate: int = 1,
    ) -> None:
        """The shared dynamic replay core.

        ``events`` yields ``(time, cpu, page, weight, is_write, costs,
        counts)`` tuples in time order; ``initial_node(page, cpu)``
        supplies a page's placement the first time it is touched.
        """
        cfg = self.config
        copies: Dict[int, Set[int]] = {}
        bank = MissCounterBank(cfg.n_cpus)
        sampler = SamplingAccumulator(cfg.n_cpus, sampling_rate)
        armed: Set[int] = set()
        cpu_nodes = self._cpu_nodes
        local_ns, remote_ns = cfg.local_ns, cfg.remote_ns
        op_cost = cfg.op_cost_ns
        trigger = params.trigger_threshold
        next_reset = params.reset_interval_ns
        local_stall = 0.0
        pending: deque = deque()   # (due_time, page, cpu) awaiting the pager
        tracer = self.tracer
        trace_on = tracer.active
        emit_miss = tracer.wants(MissServiced.KIND)
        interval_index = 0

        def act(now: int, page: int, cpu: int) -> None:
            """Pager action once the hot page's interrupt is serviced."""
            _pager_act(
                now, page, cpu, copies, bank, armed, result, params,
                cpu_nodes, op_cost, tracer, trace_on,
            )

        for time, cpu, page, weight, is_write, costs, counts in events:
            while pending and pending[0][0] <= time:
                due, hot_page, hot_cpu = pending.popleft()
                act(due, hot_page, hot_cpu)
            if time >= next_reset:
                # Flush in-flight interrupts against pre-reset counters,
                # then start the new interval.
                while pending:
                    due, hot_page, hot_cpu = pending.popleft()
                    act(due, hot_page, hot_cpu)
                if trace_on:
                    tracer.emit(
                        IntervalReset(
                            t=time,
                            index=interval_index,
                            tracked_pages=bank.tracked_pages,
                            triggers=result.hot_events,
                        )
                    )
                interval_index += 1
                bank.reset()
                armed.clear()
                while next_reset <= time:
                    next_reset += params.reset_interval_ns
            page_copies = copies.get(page)
            if page_copies is None:
                page_copies = copies[page] = {initial_node(page, cpu)}
            node = cpu_nodes[cpu]
            if costs:
                if is_write and len(page_copies) > 1:
                    # A store to a replicated page: collapse (pfault path).
                    keep = node if node in page_copies else min(page_copies)
                    dropped = len(page_copies) - 1
                    page_copies.clear()
                    page_copies.add(int(keep))
                    result.collapses += 1
                    result.overhead_ns += op_cost
                    if trace_on:
                        tracer.emit(
                            CollapseEvent(
                                t=time, page=page, cpu=cpu,
                                keep_node=int(keep),
                                replicas_dropped=dropped,
                                latency_ns=float(op_cost),
                            )
                        )
                local = node in page_copies
                result.total_misses += weight
                if local:
                    result.local_misses += weight
                    result.stall_ns += weight * local_ns
                    local_stall += weight * local_ns
                else:
                    result.stall_ns += weight * remote_ns
                if emit_miss:
                    tracer.emit(
                        MissServiced(
                            t=time,
                            cpu=cpu,
                            page=page,
                            node=int(node) if local else min(page_copies),
                            weight=weight,
                            latency_ns=float(
                                local_ns if local else remote_ns
                            ),
                            remote=not local,
                        )
                    )
            if not counts:
                continue
            counted = sampler.sample(cpu, weight)
            if counted == 0:
                continue
            count = bank.record(page, cpu, counted, is_write)
            if count < trigger or page in armed:
                continue
            if node in page_copies:
                continue  # hot but already local
            result.hot_events += 1
            armed.add(page)
            if trace_on:
                tracer.emit(
                    HotPageTriggered(
                        t=time, page=page, cpu=cpu, count=count,
                        threshold=trigger,
                    )
                )
            pending.append((time + cfg.decision_delay_ns, page, cpu))
        while pending:
            due, hot_page, hot_cpu = pending.popleft()
            act(due, hot_page, hot_cpu)
        result.extra["local_stall_ns"] = local_stall

    # -- event stream helpers ------------------------------------------------------------

    @staticmethod
    def _single_stream_events(trace: Trace):
        """Each record both costs stall and drives the counters.

        Columns are converted to Python lists once (``.tolist()``), so
        the replay loop iterates native ints instead of paying a numpy
        scalar box per field per event.
        """
        times = trace.time_ns.tolist()
        cpus = trace.cpu.tolist()
        pages = trace.page.tolist()
        weights = trace.weight.tolist()
        writes = trace.is_write.tolist()
        for row in zip(times, cpus, pages, weights, writes):
            yield (row[0], row[1], row[2], row[3], row[4], True, True)

    @staticmethod
    def _chunk_stream_events(chunks, profiler=None):
        """Single-stream events over an iterator of time-ordered chunks.

        Equivalent to :meth:`_single_stream_events` on the concatenated
        trace, but only one chunk's columns are live at a time.  Each
        chunk's span covers the *consumption* of its events by the
        replay loop (the generator suspends inside the span), so the
        per-chunk profile reflects replay time, not just decode time.
        """
        prof = as_profiler(profiler)
        for chunk in chunks:
            with prof.span("replay.chunk", items=len(chunk)):
                times = chunk.time_ns.tolist()
                cpus = chunk.cpu.tolist()
                pages = chunk.page.tolist()
                weights = chunk.weight.tolist()
                writes = chunk.is_write.tolist()
                for row in zip(times, cpus, pages, weights, writes):
                    yield (row[0], row[1], row[2], row[3], row[4], True, True)

    @staticmethod
    def _batch_stream_events(batches, profiler=None):
        """Scalar 7-tuple events over pre-merged column batches.

        Consumes the ``(times, cpus, pages, weights, is_write,
        costmask)`` batches of
        :func:`repro.trace.tlbsim.merged_tlb_stream`; equivalent to
        :meth:`_merged_events` on the concatenated cost and driver
        traces, with only one batch's columns live at a time.
        """
        prof = as_profiler(profiler)
        for times, cpus, pages, weights, iswrite, costmask in batches:
            with prof.span("replay.chunk", items=len(times)):
                rows = zip(
                    times.tolist(), cpus.tolist(), pages.tolist(),
                    weights.tolist(), iswrite.tolist(), costmask.tolist(),
                )
                for t, cpu, page, weight, iw, cost in rows:
                    yield (t, cpu, page, weight, iw, cost, not cost)

    @staticmethod
    def _merged_events(cost: Trace, driver: Trace):
        """Merge the cost and driver streams in time order.

        Driver events sort *after* cost events at equal timestamps, so a
        policy acting on an event never retroactively cheapens the miss
        that produced it.
        """
        if cost.meta is not driver.meta and cost.meta is not None:
            if driver.meta is not None and cost.meta.name != driver.meta.name:
                raise TraceError("cost and driver traces are from different workloads")
        i = j = 0
        n_cost, n_driver = len(cost), len(driver)
        c_t, d_t = cost.time_ns.tolist(), driver.time_ns.tolist()
        c_c, d_c = cost.cpu.tolist(), driver.cpu.tolist()
        c_p, d_p = cost.page.tolist(), driver.page.tolist()
        c_wt, d_wt = cost.weight.tolist(), driver.weight.tolist()
        c_w, d_w = cost.is_write.tolist(), driver.is_write.tolist()
        while i < n_cost or j < n_driver:
            take_cost = j >= n_driver or (i < n_cost and c_t[i] <= d_t[j])
            if take_cost:
                yield (c_t[i], c_c[i], c_p[i], c_wt[i], c_w[i], True, False)
                i += 1
            else:
                yield (d_t[j], d_c[j], d_p[j], d_wt[j], d_w[j], False, True)
                j += 1

    # -- the competitive baseline [BGW89] ------------------------------------------

    def simulate_competitive(
        self,
        trace: Trace,
        initial: StaticPolicy = StaticPolicy.FIRST_TOUCH,
        label: str = "Competitive",
    ) -> PolicySimResult:
        """The Black–Gupta–Weber competitive strategy, as a baseline.

        The related-work comparator (Section 2): per-page per-processor
        counters accumulate *remote* references, and a page moves once the
        accumulated remote penalty would have paid for the move — the
        classic rent-vs-buy break-even, ``op_cost / (remote - local)``
        misses.  A recently-written page migrates, an unwritten one
        replicates.

        What it lacks, by design, is the paper's selectivity: no reset
        interval (stale history still counts), no write-shared veto (only
        a "written recently" hint), and no migrate limit.  On workloads
        with fine-grain write sharing it therefore replicates pages it
        should leave alone and pays for the collapses — the behaviour the
        paper's Section 2 argues coherent caches make unaffordable.

        Both engines run it: the scalar loop steps every event through
        :class:`_CompetitiveCore`; the vector engine
        (:func:`repro.trace.fastpath.replay_competitive_vector`) steps
        only events of pages whose remote weight can reach the
        break-even watermark through the same core and bulk-sums the
        rest, byte-identically.
        """
        cfg = self.config
        break_even = max(
            1, -(-cfg.op_cost_ns // max(cfg.remote_ns - cfg.local_ns, 1))
        )
        result = PolicySimResult(label=label)
        self._emit_run_meta(label)
        engine = self._resolve_engine("competitive")
        with self.profiler.span("replay.competitive", items=len(trace)):
            placement = self.placement_for(trace, initial)
            core = _CompetitiveCore(
                cfg, result, placement, self._cpu_nodes, break_even
            )
            if engine == "vector":
                from repro.trace import fastpath

                fastpath.replay_competitive_vector(
                    cfg, trace, result, placement, core,
                    profiler=self.profiler,
                )
            else:
                step = core.step
                rows = zip(
                    trace.cpu.tolist(), trace.page.tolist(),
                    trace.weight.tolist(), trace.is_write.tolist(),
                )
                for cpu, page, weight, is_write in rows:
                    step(cpu, page, weight, is_write)
            result.extra["local_stall_ns"] = core.local_stall
            result.extra["break_even_misses"] = float(break_even)
        return result

    @staticmethod
    def _default_label(params: PolicyParameters, metric: Metric) -> str:
        if params.enable_migration and params.enable_replication:
            base = "Mig/Rep"
        elif params.enable_migration:
            base = "Migr"
        elif params.enable_replication:
            base = "Repl"
        else:
            base = "Static"
        if metric is not FULL_CACHE:
            base += f" ({metric.label})"
        return base
