"""Deterministic synthesis of weighted miss traces from a workload spec.

The generator walks the schedule in fixed quanta.  For every (quantum,
CPU) with a running process it splits the CPU's miss budget over the page
groups the process can touch, concentrates each group's share onto a small
set of pages (hot-set skew), and emits weighted read and write records.
All randomness flows from one seeded generator, so a (spec, seed) pair
always produces the identical trace.

The emitted structure is what the policy cares about:

* per-process groups produce misses only from their owner, so their pages
  look unshared to the counters and migrate when the scheduler moves the
  owner;
* shared groups produce misses from every accessor, with a *common* hot
  set, so their pages cross the sharing threshold;
* ``write_fraction`` controls how often a page's read chains terminate,
  deciding between the replication branch and the write-shared veto.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.common.units import SEC
from repro.trace.record import FLAG_INSTR, FLAG_KERNEL, FLAG_WRITE, Trace
from repro.workloads.spec import GroupInstance, WorkloadSpec


#: Columns of one page-group row gathered by :meth:`TraceGenerator.generate`.
_ROW = ("start", "span", "phase", "cpu", "pid", "flags", "slot",
        "n_hot", "n_cold", "hot_w", "cold_w")


class TraceGenerator:
    """Synthesises the weighted miss trace for one workload spec.

    Generation runs in two passes.  The schedule walk draws, for every
    (quantum, CPU, page group), the group's hot and cold page picks and
    the uniforms that round its write weights; these draws are the only
    sequential part, because each one advances the shared generator.
    One numpy pass then lays the picks out in time, splits their weight
    into read and write records and sorts the result.

    The draw order is part of the output: per group, ``integers(0,
    hot_n, size=...)``, then ``integers(0, n_pages, size=...)`` when the
    group has cold pages, then one ``random(m)`` over its ``m``
    positive-weight picks when ``write_fraction > 0``.  ``random(m)``
    yields the same values as ``m`` scalar ``random()`` calls; the
    ``integers`` calls keep scalar bounds because array bounds draw a
    different stream.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._rng = make_rng(spec.seed, "trace-generator", spec.name)
        self._slots = {inst: k for k, inst in enumerate(spec.instances)}
        self._user_cache: Dict[int, List[tuple]] = {}
        self._kernel_cache: Dict[Tuple[int, int], List[tuple]] = {}

    # -- per-instance draw plans, cached by scope ---------------------------------

    def _plans(self, instances: Sequence[GroupInstance], kernel: bool) -> List[tuple]:
        """Draw parameters per instance, shares normalised to sum to one."""
        total = sum(inst.spec.miss_share for inst in instances)
        if total <= 0:
            return []
        plans = []
        for inst in instances:
            group = inst.spec
            # Hot picks carry ``hot_weight`` of the group's misses over a
            # small hot set (these are the pages that can cross the
            # trigger threshold); cold picks spread the remainder thinly —
            # an individual cold touch must stay well below the trigger.
            hot_n = max(1, int(round(group.hot_fraction * inst.n_pages)))
            k = min(group.pages_per_quantum, inst.n_pages)
            flags = (FLAG_INSTR if group.is_instr else 0) | (
                FLAG_KERNEL if kernel else 0
            )
            plans.append((
                group.miss_share / total,
                hot_n,
                min(k, hot_n),
                inst.n_pages,
                k if inst.n_pages > hot_n else 0,
                group.hot_weight,
                group.write_fraction > 0.0,
                flags,
                self._slots[inst],
            ))
        return plans

    def _user_plans(self, pid: int) -> List[tuple]:
        cached = self._user_cache.get(pid)
        if cached is None:
            cached = self._plans(self.spec.instances_for_process(pid), False)
            self._user_cache[pid] = cached
        return cached

    def _kernel_plans(self, cpu: int, pid: int) -> List[tuple]:
        key = (cpu, pid)
        cached = self._kernel_cache.get(key)
        if cached is None:
            cached = self._plans(
                self.spec.kernel_instances_for_cpu(cpu, pid), True
            )
            self._kernel_cache[key] = cached
        return cached

    # -- generation ------------------------------------------------------------------

    def generate(self) -> Trace:
        """Produce the full trace (sorted by time)."""
        spec = self.spec
        rng = self._rng
        # Flat int64 buffers, not lists: no Python int outlives its group.
        rows = array("q")       # one _ROW per drawn page group
        offsets = array("q")    # page offsets of every pick, in pick order
        uniforms: List[np.ndarray] = []
        quantum = spec.quantum_ns
        quantum_sec = quantum / SEC
        user_budget = spec.user_miss_rate * quantum_sec
        kernel_budget = spec.kernel_miss_rate * quantum_sec
        time = spec.schedule.start_ns
        while time < spec.schedule.end_ns:
            epoch = spec.schedule.at(time)
            span = min(quantum, spec.schedule.end_ns - time)
            scale = span / quantum
            for cpu in sorted(epoch.running):
                pid = epoch.running[cpu]
                # De-phase CPUs within the quantum so their miss bursts
                # (and hence their pager interrupts) do not all land at
                # the quantum start.
                phase = (cpu % 8) * (span // 16)
                for budget, plans in (
                    (user_budget * scale, self._user_plans(pid)),
                    (kernel_budget * scale, self._kernel_plans(cpu, pid)),
                ):
                    if budget < 1.0:
                        continue
                    for (share, hot_n, hot_k, n_pages, cold_k, hot_weight,
                         written, flags, slot) in plans:
                        group_weight = int(round(budget * share))
                        if group_weight <= 0:
                            continue
                        hot = set(rng.integers(0, hot_n, size=hot_k).tolist())
                        hot_budget = int(round(group_weight * hot_weight))
                        if cold_k:
                            cold = set(
                                rng.integers(0, n_pages, size=cold_k).tolist()
                            )
                            cold -= hot
                            cold_budget = group_weight - hot_budget
                        else:
                            cold = set()
                            cold_budget = 0
                            hot_budget = group_weight
                        n_hot, n_cold = len(hot), len(cold)
                        hot_w = hot_budget // n_hot
                        cold_w = cold_budget // max(n_cold, 1)
                        if written:
                            m = (n_hot if hot_w > 0 else 0) + (
                                n_cold if cold_w > 0 else 0
                            )
                            if m:
                                uniforms.append(rng.random(m))
                        offsets.extend(sorted(hot))
                        offsets.extend(sorted(cold))
                        rows.extend((time, span, phase, cpu, pid, flags, slot,
                                     n_hot, n_cold, hot_w, cold_w))
            time += span
        return self._assemble(rows, offsets, uniforms)

    def _assemble(
        self, rows: array, offsets: array, uniforms: List[np.ndarray]
    ) -> Trace:
        """Lay every group's picks out as time-sorted read/write records."""
        instances = self.spec.instances
        table = np.frombuffer(rows, dtype=np.int64).reshape(-1, len(_ROW))
        (start, span, phase, cpu, pid, flags, slot,
         n_hot, n_cold, hot_w, cold_w) = table.T
        n_picks = n_hot + n_cold
        # Per pick: its group row and its index j within the group.
        group = np.repeat(np.arange(len(table), dtype=np.int32), n_picks)
        j = np.arange(len(group)) - np.repeat(np.cumsum(n_picks) - n_picks, n_picks)
        weight = np.where(j < n_hot[group], hot_w[group], cold_w[group])
        step = np.maximum(1, span // (n_picks + 1))
        when = start[group] + (j * step[group] + phase[group]) % span[group]
        del j
        # Writes: ``int(w * f)`` plus one with probability of the
        # fractional part, capped at ``w``; one uniform per drawn pick.
        write_fraction = np.array(
            [inst.spec.write_fraction for inst in instances], dtype=np.float64
        )[slot]
        drawn = np.flatnonzero((weight > 0) & (write_fraction > 0.0)[group])
        writes = np.zeros(len(group), dtype=np.int64)
        if len(drawn):
            expected = weight[drawn] * write_fraction[group[drawn]]
            whole = expected.astype(np.int64)
            bump = np.concatenate(uniforms) < expected - whole
            writes[drawn] = np.minimum(whole + bump, weight[drawn])
            del expected, whole, bump
        reads = weight - writes
        del weight, drawn
        # Record ``2 * pick + is_write``: a pick's read precedes its write,
        # zero-weight halves drop out, and a stable sort on time keeps
        # generation order among equal timestamps.
        present = np.empty((len(group), 2), dtype=bool)
        present[:, 0] = reads > 0
        present[:, 1] = writes > 0
        record = np.flatnonzero(present.ravel())
        del present
        time_ns = when[record >> 1] + (record & 1)
        del when
        order = np.argsort(time_ns, kind="stable")
        time_ns = time_ns[order]
        record = record[order]
        del order
        pick = record >> 1
        is_write = (record & 1).astype(bool)
        del record
        row = group[pick]
        first_page = np.array(
            [inst.first_page for inst in instances], dtype=np.int64
        )
        page = first_page[slot[row]]
        page += np.frombuffer(offsets, dtype=np.int64)[pick]
        return Trace(
            time_ns,
            cpu[row],
            pid[row],
            page,
            np.where(is_write, writes[pick], reads[pick]),
            flags[row] | np.where(is_write, FLAG_WRITE, 0),
            meta=self.spec,
        )


def generate_trace(spec: WorkloadSpec) -> Trace:
    """Convenience wrapper: synthesise the trace for ``spec``."""
    return TraceGenerator(spec).generate()


def check_scale(scale: float) -> None:
    """Reject a run-length scale outside ``(0, 1]``.

    A scale is a fraction of the paper's run length; the one check that
    every workload builder and :class:`~repro.exp.spec.ExperimentSpec`
    share.
    """
    if not 0.0 < scale <= 1.0:
        raise ConfigurationError(f"scale must be in (0, 1], not {scale}")


def scaled_duration(base_duration_ns: int, scale: float) -> int:
    """Scale a workload duration, keeping it positive."""
    check_scale(scale)
    return max(int(base_duration_ns * scale), 1_000_000)
