"""Table 6: breakdown of total kernel overhead by function.

The percentage of all kernel page-movement overhead attributable to each
function, plus the total overhead in seconds.  The paper's headline: TLB
flushing leads (34-54 %) because every processor must flush, page
allocation is second (memlock contention), and the actual byte copy is
only ~10 % — plus the simulated "tracked mappings" flush that cuts total
overhead by ~25 %.
"""

from conftest import params_for

from repro.analysis.tables import format_table
from repro.kernel.pager.costs import CostCategory
from repro.kernel.vm.shootdown import ShootdownMode
from repro.sim.simulator import run_policy_comparison

WORKLOADS = ("engineering", "raytrace", "splash")

COLUMNS = [
    CostCategory.TLB_FLUSH,
    CostCategory.PAGE_ALLOC,
    CostCategory.PAGE_COPY,
    CostCategory.PAGE_FAULT,
    CostCategory.LINKS_MAPPING,
    CostCategory.POLICY_END,
    CostCategory.POLICY_DECISION,
    CostCategory.INTR_PROC,
]


def test_table6_overhead_breakdown(store, emit, once):
    def compute():
        rows = []
        for name in WORKLOADS:
            r = store.fig3(name)["Mig/Rep"]
            pct = r.accounting.overhead_percentages()
            rows.append(
                [name, r.kernel_overhead_ns / 1e9]
                + [pct[c] for c in COLUMNS]
            )
        return rows

    rows = once(compute)
    emit(
        "table6_overhead",
        format_table(
            "Table 6: Kernel overhead by function (% of total; paper: "
            "flush 34-54, alloc 8-26, copy ~10)",
            ["Workload", "Ovhd (s)", "Flush", "Alloc", "Copy", "Fault",
             "Links", "End", "Decide", "Intr"],
            rows,
        ),
    )
    for row in rows:
        flush, alloc, copy = row[2], row[3], row[4]
        # Flushing and allocation are the two leading costs...
        assert flush + alloc > 40
        # ... and the byte copy is nowhere near dominant (paper: ~10 %).
        assert copy < 20


def test_table6_tracked_flush_saving(store, emit, once):
    """Tracking mapped CPUs cuts total kernel overhead ~25 % (paper)."""

    def compute():
        spec, trace = store.workload("engineering")
        full = store.fig3("engineering")["Mig/Rep"]
        tracked = run_policy_comparison(
            spec, trace, params=params_for("engineering"),
            shootdown_mode=ShootdownMode.TRACKED,
        )["Mig/Rep"]
        return full, tracked

    full, tracked = once(compute)
    saving = 100 * (1 - tracked.kernel_overhead_ns / full.kernel_overhead_ns)
    avg_flushed = tracked.metrics["kernel.pager.tlbs_flushed"] / max(
        tracked.metrics["kernel.pager.flush_operations"], 1
    )
    emit(
        "table6_tracked_flush",
        format_table(
            "Tracked-mapping TLB flush (paper: ~25% overhead saving, "
            "~2 TLBs flushed instead of 8)",
            ["Mode", "Overhead (s)", "Avg TLBs/flush"],
            [
                ["all-CPUs", full.kernel_overhead_ns / 1e9,
                 full.metrics["kernel.pager.tlbs_flushed"]
                 / max(full.metrics["kernel.pager.flush_operations"], 1)],
                ["tracked", tracked.kernel_overhead_ns / 1e9, avg_flushed],
                ["saving %", saving, 0.0],
            ],
        ),
    )
    assert 8 < saving < 45
    assert avg_flushed < 5
