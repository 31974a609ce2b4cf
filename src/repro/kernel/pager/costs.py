"""Kernel cost model and overhead accounting (Tables 5 and 6).

Each step of the Figure 2 pager path has a base cost calibrated to the
latencies Table 5 reports (in the hundreds of microseconds per page
operation), and lock waits computed by the simulated memlock / page locks
are added to the step that acquired them — which is how the paper's
workload-to-workload differences arise (engineering's 184 µs page
allocation is mostly memlock contention; raytrace's 74 µs is not).

Interrupt processing and the TLB flush are paid once per *batch* and
amortised over the batch's pages, exactly as the paper describes.

For the CC-NOW configuration the steps that cross the network (the data
copy and the inter-processor flush synchronisation) stretch with the
remote latency; :meth:`KernelCostModel.for_machine` reproduces the paper's
observation that the per-operation cost grows to ~600 µs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.common.stats import OnlineStats
from repro.common.units import us
from repro.machine.config import MachineConfig

#: Baseline CC-NUMA remote latency the cost model was calibrated against.
_BASELINE_REMOTE_NS = 1200


class CostCategory(enum.Enum):
    """The overhead categories of Tables 5 and 6."""

    INTR_PROC = "Intr. Proc"
    POLICY_DECISION = "Policy Decision"
    PAGE_ALLOC = "Page Alloc"
    LINKS_MAPPING = "Links & Mapping"
    TLB_FLUSH = "TLB Flush"
    PAGE_COPY = "Page Copying"
    POLICY_END = "Policy End"
    PAGE_FAULT = "Page Fault"

    # Members are singletons: hash by identity in C, not through
    # Enum.__hash__, a Python call on every dict lookup.
    __hash__ = object.__hash__


class OpType(enum.Enum):
    """Kinds of pager operations."""

    MIGRATION = "migration"
    REPLICATION = "replication"
    COLLAPSE = "collapse"

    __hash__ = object.__hash__  # see CostCategory


@dataclass(frozen=True)
class KernelCostModel:
    """Base (uncontended) step costs, in nanoseconds."""

    interrupt_ns: int = us(50)             # per interrupt (batch)
    decision_ns: int = us(13)              # per page
    page_alloc_ns: int = us(55)            # per page, + memlock wait
    memlock_hold_alloc_ns: int = us(12)    # memlock hold while allocating
    links_mapping_repl_ns: int = us(30)    # replica chained under page lock
    links_mapping_migr_ns: int = us(55)    # hash-table swap under memlock
    memlock_hold_links_ns: int = us(8)
    page_lock_hold_ns: int = us(12)
    tlb_flush_base_ns: int = us(40)        # per flush (batch), + per CPU
    tlb_flush_per_cpu_ns: int = us(62)
    page_copy_ns: int = us(95)             # unoptimised bcopy (~100 us)
    page_copy_pipelined_ns: int = us(35)   # MAGIC memory-to-memory copy
    policy_end_repl_ns: int = us(76)       # all mappings -> nearest replica
    policy_end_migr_ns: int = us(60)
    page_fault_ns: int = us(48)            # downstream faults per operation
    collapse_ns: int = us(90)              # collapse-specific bookkeeping

    @classmethod
    def for_machine(
        cls, machine: MachineConfig, pipelined_copy: bool = False
    ) -> "KernelCostModel":
        """Scale network-bound steps for the machine's remote latency.

        The copy moves a page across the network and the flush requires a
        round of inter-processor synchronisation; both stretch as remote
        latency grows (CC-NOW's per-operation cost reaches ~600 µs,
        Section 7.1.3).
        """
        model = cls()
        factor = max(1.0, machine.memory.remote_ns / _BASELINE_REMOTE_NS)
        if factor == 1.0 and not pipelined_copy:
            return model
        copy = model.page_copy_pipelined_ns if pipelined_copy else model.page_copy_ns
        return replace(
            model,
            page_copy_ns=int(copy * (1 + 0.85 * (factor - 1))),
            tlb_flush_per_cpu_ns=int(
                model.tlb_flush_per_cpu_ns * (1 + 0.5 * (factor - 1))
            ),
            tlb_flush_base_ns=int(
                model.tlb_flush_base_ns * (1 + 0.5 * (factor - 1))
            ),
            policy_end_repl_ns=int(
                model.policy_end_repl_ns * (1 + 0.25 * (factor - 1))
            ),
            policy_end_migr_ns=int(
                model.policy_end_migr_ns * (1 + 0.25 * (factor - 1))
            ),
        )


class KernelCostAccounting:
    """Accumulates pager overhead by category and per-operation latency."""

    def __init__(self) -> None:
        self.category_ns: Dict[CostCategory, float] = {
            c: 0.0 for c in CostCategory
        }
        self.op_category_ns: Dict[Tuple[OpType, CostCategory], float] = {}
        self.op_counts: Dict[OpType, int] = {op: 0 for op in OpType}
        self.op_latency: Dict[OpType, OnlineStats] = {
            op: OnlineStats() for op in OpType
        }

    def charge(
        self,
        category: CostCategory,
        ns: float,
        op: Optional[OpType] = None,
    ) -> float:
        """Record ``ns`` of kernel time in ``category``; returns ``ns``."""
        if ns < 0:
            raise ValueError("cannot charge negative time")
        self.category_ns[category] += ns
        if op is not None:
            self.attribute_op(op, category, ns)
        return ns

    def attribute_op(self, op: OpType, category: CostCategory, ns: float) -> float:
        """Attribute ``ns`` to an operation's Table 5 step *without* adding
        to the machine-wide overhead (used for amortised shares whose total
        was charged once per batch)."""
        key = (op, category)
        self.op_category_ns[key] = self.op_category_ns.get(key, 0.0) + ns
        return ns

    def finish_op(self, op: OpType, latency_ns: float) -> None:
        """Record the end-to-end latency of one completed operation."""
        self.op_counts[op] += 1
        self.op_latency[op].add(latency_ns)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of the full accounting state."""
        return {
            "category_ns": {
                c.name: v for c, v in self.category_ns.items()
            },
            "op_category_ns": {
                f"{op.value}/{cat.name}": v
                for (op, cat), v in sorted(
                    self.op_category_ns.items(),
                    key=lambda kv: (kv[0][0].value, kv[0][1].name),
                )
            },
            "op_counts": {op.value: n for op, n in self.op_counts.items()},
            "op_latency": {
                op.value: stats.to_dict()
                for op, stats in self.op_latency.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KernelCostAccounting":
        """Rebuild the accounting from :meth:`to_dict` output."""
        out = cls()
        for name, v in data["category_ns"].items():
            out.category_ns[CostCategory[name]] = float(v)
        for key, v in data["op_category_ns"].items():
            op_value, cat_name = key.split("/", 1)
            out.op_category_ns[(OpType(op_value), CostCategory[cat_name])] = (
                float(v)
            )
        for op_value, n in data["op_counts"].items():
            out.op_counts[OpType(op_value)] = int(n)
        for op_value, stats in data["op_latency"].items():
            out.op_latency[OpType(op_value)] = OnlineStats.from_dict(stats)
        return out

    def register_metrics(self, registry) -> None:
        """Expose the Table 5/6 accounting under ``kernel.costs``.

        Per-category totals and per-operation counts become collect-time
        callbacks; the per-operation latency accumulators join the
        registry by reference as a labeled histogram family.
        """
        registry.register_callback(
            "kernel.costs.total_overhead_ns", lambda: self.total_overhead_ns
        )
        for category in CostCategory:
            registry.register_callback(
                f"kernel.costs.category_ns.{category.name.lower()}",
                lambda c=category: self.category_ns[c],
            )
        family = registry.family("kernel.costs.op_latency_ns")
        for op in OpType:
            registry.register_callback(
                f"kernel.costs.ops.{op.value}", lambda o=op: self.op_counts[o]
            )
            family.attach(self.op_latency[op], op=op.value)

    # -- table views --------------------------------------------------------------

    @property
    def total_overhead_ns(self) -> float:
        """Total kernel time spent on page movement."""
        return sum(self.category_ns.values())

    def overhead_percentages(self) -> Dict[CostCategory, float]:
        """Table 6: percentage of total kernel overhead per category."""
        total = self.total_overhead_ns
        if total == 0:
            return {c: 0.0 for c in CostCategory}
        return {c: 100.0 * v / total for c, v in self.category_ns.items()}

    def mean_step_latency_us(
        self, op: OpType, category: CostCategory
    ) -> float:
        """Table 5: average per-operation time in one step, microseconds."""
        count = self.op_counts[op]
        if count == 0:
            return 0.0
        return self.op_category_ns.get((op, category), 0.0) / count / 1000.0

    def mean_op_latency_us(self, op: OpType) -> float:
        """Table 5: average end-to-end operation latency, microseconds."""
        return self.op_latency[op].mean / 1000.0

    def table5_row(self, op: OpType) -> Dict[str, float]:
        """One Table 5 row: per-step and total latencies in microseconds."""
        row = {
            category.value: self.mean_step_latency_us(op, category)
            for category in (
                CostCategory.INTR_PROC,
                CostCategory.POLICY_DECISION,
                CostCategory.PAGE_ALLOC,
                CostCategory.LINKS_MAPPING,
                CostCategory.TLB_FLUSH,
                CostCategory.PAGE_COPY,
                CostCategory.POLICY_END,
            )
        }
        row["Total Latency"] = self.mean_op_latency_us(op)
        return row
