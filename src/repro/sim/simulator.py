"""The full-system simulator: Section 7's experimental apparatus.

Replays a workload's weighted miss trace against the complete stack:

* the NUMA memory system services every miss (latency + contention);
* the directory controller counts misses per page per CPU, samples if
  configured, and raises batched pager interrupts for hot remote pages;
* the pager executes Figure 2 against live VM structures (page frames,
  replica chains, hash table, page tables, locks), charging its costs;
* writes to replicated pages trap into the collapse path;
* kernel-mode pages are placed first-touch and never moved — IRIX loads
  its kernel unmapped at boot, so kernel pages cannot be migrated or
  replicated (Section 8.2), only user pages can.

Timestamps come from the trace (fixed timeline); policies are compared by
the execution-time decomposition compute + idle + stall + overhead, as in
the paper's trace-based methodology.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.kernel.pager.collapse import CollapseHandler
from repro.kernel.pager.costs import KernelCostAccounting, KernelCostModel
from repro.kernel.pager.handler import PagerHandler
from repro.kernel.vm.shootdown import ShootdownMode
from repro.kernel.vm.system import VmSystem
from repro.machine.config import MachineConfig
from repro.machine.directory import DirectoryArray
from repro.machine.memory import NumaMemorySystem
from repro.obs.events import (
    IntervalReset,
    MissServiced,
    RunMeta,
    TriggerAdjusted,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import as_tracer
from repro.policy.adaptive import AdaptiveTriggerController, IntervalFeedback
from repro.policy.parameters import PolicyParameters
from repro.sim.results import ContentionStats, SimulationResult
from repro.sim.segments import SegmentReplay
from repro.trace.record import Trace
from repro.workloads.base import generate_trace
from repro.workloads.spec import WorkloadSpec


class Placement(enum.Enum):
    """Initial (fault-time) page placement."""

    FIRST_TOUCH = "FT"
    ROUND_ROBIN = "RR"


@dataclass
class SimulatorOptions:
    """Knobs of a full-system run."""

    dynamic: bool = True                      # migration/replication on?
    placement: Placement = Placement.FIRST_TOUCH
    shootdown_mode: ShootdownMode = ShootdownMode.ALL_CPUS
    pipelined_copy: bool = False              # MAGIC memory-to-memory copy
    pager_delay_ns: int = 20_000_000          # interrupt dispatch latency
    adaptive_trigger: bool = False            # Section 8.4's open problem

    @property
    def label(self) -> str:
        """Short policy label for result tables."""
        return "Mig/Rep" if self.dynamic else self.placement.value


class SystemSimulator:
    """Run one workload on one machine under one policy."""

    def __init__(
        self,
        spec: WorkloadSpec,
        machine: Optional[MachineConfig] = None,
        params: Optional[PolicyParameters] = None,
        options: Optional[SimulatorOptions] = None,
        costs: Optional[KernelCostModel] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.spec = spec
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        if machine is None:
            machine = MachineConfig.flash_ccnuma(
                n_cpus=spec.n_cpus, n_nodes=spec.n_nodes
            )
        if machine.n_cpus != spec.n_cpus or machine.n_nodes != spec.n_nodes:
            raise ConfigurationError(
                "machine CPU/node counts must match the workload spec"
            )
        self.machine = machine
        self.params = params or PolicyParameters.base()
        self.options = options or SimulatorOptions()
        self.costs = costs or KernelCostModel.for_machine(
            machine, pipelined_copy=self.options.pipelined_copy
        )

    # -- machine-label helper ----------------------------------------------------

    def _machine_label(self) -> str:
        remote = self.machine.memory.remote_ns
        if remote >= 2500:
            return "CC-NOW"
        if self.machine.network.hop_ns == 0:
            return "zero-network"
        return "CC-NUMA"

    # -- metrics wiring ----------------------------------------------------------

    @staticmethod
    def _register_metrics(
        registry, memory, directory, pager, collapser, vm, accounting
    ) -> None:
        """Attach every layer's counters to one queryable namespace.

        Registration is collect-time only (callbacks and by-reference
        histograms), so the hot loop pays nothing for it.
        """
        memory.register_metrics(registry)
        directory.register_metrics(registry)
        pager.register_metrics(registry)
        collapser.register_metrics(registry)
        vm.locks.register_metrics(registry)
        accounting.register_metrics(registry)
        stats = vm.stats
        registry.register_callback("vm.migrations", lambda: stats.migrations)
        registry.register_callback(
            "vm.replications", lambda: stats.replications
        )
        registry.register_callback("vm.faults", lambda: stats.faults)
        registry.register_callback(
            "vm.replicas_reclaimed", lambda: stats.replicas_reclaimed
        )
        registry.register_callback("vm.base_pages", lambda: stats.base_pages)
        registry.register_callback(
            "vm.peak_replica_frames",
            lambda: vm.allocator.peak_replica_frames,
        )

    # -- the run --------------------------------------------------------------------

    def run(self, trace: Optional[Trace] = None) -> SimulationResult:
        """Execute the workload and return the full result."""
        spec = self.spec
        if trace is None:
            trace = generate_trace(spec)
        self._check_cpus(trace)
        state = self._setup(trace)
        self._replay(trace, *state)
        return self._finalize(trace, *state)

    def _check_cpus(self, trace: Trace) -> None:
        """Reject a trace naming a CPU the machine lacks, before any state."""
        if not len(trace):
            return
        n_cpus = self.machine.n_cpus
        low, high = int(trace.cpu.min()), int(trace.cpu.max())
        if low < 0 or high >= n_cpus:
            bad = low if low < 0 else high
            raise ConfigurationError(
                f"trace names cpu {bad}, but the machine has CPUs "
                f"0..{n_cpus - 1}"
            )

    def _setup(self, trace: Trace):
        """Build the machine/kernel stack for one run (the setup phase)."""
        spec, machine, params, options = (
            self.spec,
            self.machine,
            self.params,
            self.options,
        )
        tracer = self.tracer
        registry = self.metrics if self.metrics is not None else MetricsRegistry()
        frames_per_node = spec.frames_per_node or machine.memory.frames_per_node
        vm = VmSystem(machine.n_nodes, frames_per_node)
        memory = NumaMemorySystem(machine)
        directory = DirectoryArray(
            machine.n_cpus,
            trigger_threshold=params.trigger_threshold,
            sampling_rate=params.sampling_rate,
            batch_pages=params.batch_pages,
            tracer=tracer,
        )
        accounting = KernelCostAccounting()
        last_cpu: Dict[int, int] = {}

        def node_of_cpu(cpu: int) -> int:
            return machine.node_of_cpu(cpu)

        def cpu_of_process(pid: int) -> Optional[int]:
            return last_cpu.get(pid)

        def node_of_process(pid: int) -> int:
            return machine.node_of_cpu(last_cpu.get(pid, 0))

        pager = PagerHandler(
            vm=vm,
            directory=directory,
            params=params,
            costs=self.costs,
            accounting=accounting,
            n_cpus=machine.n_cpus,
            node_of_cpu=node_of_cpu,
            node_of_process=node_of_process,
            cpu_of_process=cpu_of_process,
            shootdown_mode=options.shootdown_mode,
            tracer=tracer,
        )
        collapser = CollapseHandler(
            vm=vm,
            directory=directory,
            costs=self.costs,
            accounting=accounting,
            n_cpus=machine.n_cpus,
            node_of_cpu=node_of_cpu,
            cpu_of_process=cpu_of_process,
            shootdown_mode=options.shootdown_mode,
            tracer=tracer,
        )
        self._register_metrics(
            registry, memory, directory, pager, collapser, vm, accounting
        )
        result = SimulationResult(
            workload=spec.name,
            policy=options.label,
            machine=self._machine_label(),
            compute_time_ns=float(spec.compute_time_ns),
            idle_time_ns=float(spec.idle_time_ns()),
        )
        adaptive: Optional[AdaptiveTriggerController] = None
        if options.adaptive_trigger and options.dynamic:
            adaptive = AdaptiveTriggerController(
                initial_trigger=params.trigger_threshold
            )
            adaptive.register_metrics(registry)
        pending: list = []                # heap of (due_ns, seq, HotBatch)
        return (
            registry, vm, memory, directory, accounting, last_cpu,
            pager, collapser, result, adaptive, pending,
        )

    def _emit_run_meta(self) -> None:
        machine, params, options = self.machine, self.params, self.options
        self.tracer.emit(
            RunMeta(
                t=0,
                label=f"{self.spec.name}:{options.label}",
                n_cpus=machine.n_cpus,
                n_nodes=machine.n_nodes,
                local_ns=float(machine.memory.local_ns),
                remote_ns=float(machine.memory.remote_ns),
                trigger=params.trigger_threshold,
                reset_interval_ns=params.reset_interval_ns,
            )
        )

    def _end_interval(
        self, t, index, marks, memory, directory, accounting, pager,
        adaptive, pending, handle_batch,
    ):
        """Reset-interval expiry at ``t``: drain in-flight batches, reset
        the counters and retune an adaptive trigger.

        ``marks`` holds the overhead/remote/total counts at the interval's
        start; the next interval's marks are returned.  ``handle_batch``
        services each drained batch.
        """
        params, tracer = self.params, self.tracer
        for batch in directory.drain():
            handle_batch(t, batch)
        while pending:
            _, _, batch = heapq.heappop(pending)
            handle_batch(t, batch)
        if tracer.active:
            tracer.emit(
                IntervalReset(
                    t=t,
                    index=index,
                    tracked_pages=directory.bank.tracked_pages,
                    triggers=directory.triggers,
                )
            )
        directory.interval_reset()
        if adaptive is not None:
            feedback = IntervalFeedback(
                interval_ns=params.reset_interval_ns,
                n_cpus=self.machine.n_cpus,
                overhead_ns=accounting.total_overhead_ns - marks[0],
                remote_misses=memory.remote_misses - marks[1],
                total_misses=memory.total_misses - marks[2],
            )
            old_trigger = directory.trigger_threshold
            new_trigger = adaptive.update(feedback)
            directory.trigger_threshold = new_trigger
            pager.params = params.replace(
                trigger_threshold=new_trigger,
                sharing_threshold=max(1, new_trigger // 4),
            )
            if tracer.active and new_trigger != old_trigger:
                tracer.emit(
                    TriggerAdjusted(
                        t=t,
                        old_trigger=old_trigger,
                        new_trigger=new_trigger,
                        overhead_fraction=feedback.overhead_fraction,
                        remote_fraction=feedback.remote_fraction,
                    )
                )
        return (
            accounting.total_overhead_ns,
            memory.remote_misses,
            memory.total_misses,
        )

    def _replay(
        self, trace, registry, vm, memory, directory, accounting,
        last_cpu, pager, collapser, result, adaptive, pending,
    ) -> None:
        """The replay phase, in columnar segments between state changes.

        See :mod:`repro.sim.segments`.  Results and event logs are
        byte-identical to :class:`ReferenceSystemSimulator`'s.
        """
        SegmentReplay(
            self, trace, vm, memory, directory, accounting, last_cpu,
            pager, collapser, result, adaptive, pending,
            round_robin=self.options.placement is Placement.ROUND_ROBIN,
        ).run()

    def _finalize(
        self, trace, registry, vm, memory, directory, accounting,
        last_cpu, pager, collapser, result, adaptive, pending,
    ) -> SimulationResult:
        """End-of-run drain and result gathering (the finalize phase)."""
        # End of run: flush whatever is still queued.
        end_time = int(trace.time_ns[-1]) if len(trace) else 0
        for batch in directory.drain():
            pager.handle_batch(end_time, batch)
        while pending:
            _, _, batch = heapq.heappop(pending)
            pager.handle_batch(end_time, batch)

        # -- gather results ------------------------------------------------------
        result.accounting = accounting
        result.tally = pager.tally
        result.collapses = collapser.collapses
        result.base_pages = vm.stats.base_pages
        result.peak_replica_frames = vm.allocator.peak_replica_frames
        result.contention = ContentionStats(
            remote_handler_invocations=memory.remote_handler_invocations,
            average_network_queue_length=memory.average_network_queue_length(
                max(end_time, 1)
            ),
            max_controller_occupancy=memory.max_controller_occupancy(),
            average_local_latency_ns=memory.average_local_latency(),
            average_remote_latency_ns=memory.average_remote_latency(),
        )
        result.metrics = registry.collect()
        vm.check_invariants()
        return result


class ReferenceSystemSimulator(SystemSimulator):
    """The per-record reference loop: every record replayed on its own.

    :class:`SystemSimulator` replays in columnar segments
    (:mod:`repro.sim.segments`).  This subclass overrides only
    :meth:`_replay`, calling :meth:`NumaMemorySystem.service_record`,
    ``StallBreakdown.add`` and, per user record,
    :meth:`VmSystem.fault_page` and :meth:`DirectoryArray.observe`; set-up
    and finalize are the base class's.  Its results and event logs are
    byte-identical to the segment engine's, which
    ``tests/integration/test_fullsys_identity.py`` checks by running
    both.
    """

    def _replay(
        self, trace, registry, vm, memory, directory, accounting,
        last_cpu, pager, collapser, result, adaptive, pending,
    ) -> None:
        machine, params, options = self.machine, self.params, self.options
        tracer = self.tracer
        node_of_cpu = machine.node_of_cpu
        kernel_placement: Dict[int, int] = {}
        pending_seq = itertools.count()
        next_reset = params.reset_interval_ns
        interval_marks = (0.0, 0, 0)
        interval_index = 0
        dynamic = options.dynamic
        round_robin = options.placement is Placement.ROUND_ROBIN
        n_nodes = machine.n_nodes
        emit_miss = tracer.wants(MissServiced.KIND)
        if tracer.wants(RunMeta.KIND):
            self._emit_run_meta()

        times = trace.time_ns
        cpus = trace.cpu
        pids = trace.process
        pages = trace.page
        weights = trace.weight
        is_write = trace.is_write
        is_instr = trace.is_instr
        is_kernel = trace.is_kernel

        for i in range(len(trace)):
            t = int(times[i])
            cpu = int(cpus[i])
            pid = int(pids[i])
            page = int(pages[i])
            weight = int(weights[i])
            write = bool(is_write[i])
            instr = bool(is_instr[i])
            kernel = bool(is_kernel[i])
            last_cpu[pid] = cpu

            while pending and pending[0][0] <= t:
                due, _, batch = heapq.heappop(pending)
                pager.handle_batch(due, batch)
            if t >= next_reset:
                interval_marks = self._end_interval(
                    t, interval_index, interval_marks, memory, directory,
                    accounting, pager, adaptive, pending, pager.handle_batch,
                )
                interval_index += 1
                while next_reset <= t:
                    next_reset += params.reset_interval_ns

            if kernel:
                node = kernel_placement.get(page)
                if node is None:
                    node = (
                        page % n_nodes if round_robin else node_of_cpu(cpu)
                    )
                    kernel_placement[page] = node
            else:
                preferred = (
                    page % n_nodes if round_robin else node_of_cpu(cpu)
                )
                pte = vm.fault_page(pid, page, preferred)
                master = vm.master_of(page)
                if write and master is not None and master.has_replicas:
                    collapser.handle_write_fault(t, page, cpu)
                node = pte.frame.node
            latency, remote = memory.service_record(t, cpu, node, weight)
            result.stall.add(
                latency * weight,
                weight,
                is_kernel=kernel,
                is_instr=instr,
                is_remote=remote,
            )
            if emit_miss:
                tracer.emit(
                    MissServiced(
                        t=t,
                        cpu=cpu,
                        page=page,
                        node=node,
                        weight=weight,
                        latency_ns=latency,
                        remote=remote,
                        kernel=kernel,
                    )
                )
            if dynamic and not kernel:
                batch = directory.observe(
                    page,
                    cpu,
                    write,
                    weight,
                    is_local=not remote,
                    process=pid,
                    now_ns=t,
                )
                if batch is not None:
                    jitter = (cpu * 997_001) % 4_000_000
                    heapq.heappush(
                        pending,
                        (t + options.pager_delay_ns + jitter,
                         next(pending_seq), batch),
                    )


def run_policy_comparison(
    spec: WorkloadSpec,
    trace: Optional[Trace] = None,
    machine: Optional[MachineConfig] = None,
    params: Optional[PolicyParameters] = None,
    shootdown_mode: ShootdownMode = ShootdownMode.ALL_CPUS,
    adaptive_trigger: bool = False,
) -> Dict[str, SimulationResult]:
    """Run FT (static) and Mig/Rep (dynamic) on one workload (Figure 3)."""
    if trace is None:
        trace = generate_trace(spec)
    legs = [
        SimulatorOptions(dynamic=False, shootdown_mode=shootdown_mode),
        SimulatorOptions(
            dynamic=True,
            shootdown_mode=shootdown_mode,
            adaptive_trigger=adaptive_trigger,
        ),
    ]
    return {
        options.label: SystemSimulator(
            spec, machine=machine, params=params, options=options
        ).run(trace)
        for options in legs
    }
