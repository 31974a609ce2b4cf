"""Ablations of the design choices DESIGN.md calls out.

Three mechanisms the paper discusses qualitatively, measured head-on:

* **pipelined copy** — FLASH's MAGIC controller can copy a page
  memory-to-memory in ~35 us instead of the processor's ~100 us bcopy
  (Section 7.2.2); how much total overhead does that save?
* **interrupt batching** — the controller collects multiple hot pages per
  pager interrupt to amortise interrupt processing and the TLB flush;
  what does batch size 1 cost?
* **reset interval** — the counters approximate rates via periodic reset;
  shorter intervals react faster but re-trigger more.
"""

from conftest import params_for

from repro.analysis.tables import format_table
from repro.sim.simulator import SimulatorOptions, SystemSimulator


def run_with(store, name, **option_overrides):
    spec, trace = store.workload(name)
    params = params_for(name)
    if "batch_pages" in option_overrides:
        params = params.replace(
            batch_pages=option_overrides.pop("batch_pages")
        )
    if "reset_interval_ns" in option_overrides:
        params = params.replace(
            reset_interval_ns=option_overrides.pop("reset_interval_ns")
        )
    options = SimulatorOptions(dynamic=True, **option_overrides)
    return SystemSimulator(spec, params=params, options=options).run(trace)


def test_ablation_pipelined_copy(store, emit, once):
    def compute():
        processor = store.fig3("engineering")["Mig/Rep"]
        pipelined = run_with(store, "engineering", pipelined_copy=True)
        return processor, pipelined

    processor, pipelined = once(compute)
    rows = [
        ["processor bcopy", processor.kernel_overhead_ns / 1e9],
        ["MAGIC pipelined copy", pipelined.kernel_overhead_ns / 1e9],
        ["saving %", 100 * (1 - pipelined.kernel_overhead_ns
                            / processor.kernel_overhead_ns)],
    ]
    emit(
        "ablation_pipelined_copy",
        format_table(
            "Ablation: pipelined page copy (paper: bcopy ~100 us, MAGIC "
            "copy ~35 us, copy is ~10% of overhead)",
            ["Copy engine", "Kernel overhead (s)"],
            rows,
        ),
    )
    saving = rows[2][1]
    assert 2 < saving < 25       # copy is ~10 % of overhead, so savings are modest


def test_ablation_interrupt_batching(store, emit, once):
    def compute():
        batched = store.fig3("engineering")["Mig/Rep"]
        unbatched = run_with(store, "engineering", batch_pages=1)
        return batched, unbatched

    batched, unbatched = once(compute)
    rows = [
        ["batch = 4 pages", batched.kernel_overhead_ns / 1e9,
         batched.metrics["kernel.pager.flush_operations"]],
        ["batch = 1 page", unbatched.kernel_overhead_ns / 1e9,
         unbatched.metrics["kernel.pager.flush_operations"]],
    ]
    emit(
        "ablation_batching",
        format_table(
            "Ablation: hot-page batching (the controller collects pages "
            "to amortise interrupts and flushes)",
            ["Configuration", "Kernel overhead (s)", "TLB flush ops"],
            rows,
        ),
    )
    # Without batching, every operation pays its own interrupt + flush.
    flushes = "kernel.pager.flush_operations"
    assert unbatched.metrics[flushes] > batched.metrics[flushes]
    assert unbatched.kernel_overhead_ns > batched.kernel_overhead_ns


def test_ablation_reset_interval(store, emit, once):
    def compute():
        base = store.fig3("engineering")["Mig/Rep"]
        fast = run_with(store, "engineering", reset_interval_ns=25_000_000)
        slow = run_with(store, "engineering", reset_interval_ns=400_000_000)
        return fast, base, slow

    fast, base, slow = once(compute)
    rows = [
        ["25 ms", fast.local_miss_fraction * 100,
         fast.kernel_overhead_ns / 1e9, fast.tally.hot_pages],
        ["100 ms (paper)", base.local_miss_fraction * 100,
         base.kernel_overhead_ns / 1e9, base.tally.hot_pages],
        ["400 ms", slow.local_miss_fraction * 100,
         slow.kernel_overhead_ns / 1e9, slow.tally.hot_pages],
    ]
    emit(
        "ablation_reset_interval",
        format_table(
            "Ablation: counter reset interval",
            ["Interval", "Local %", "Overhead (s)", "Hot pages"],
            rows,
        ),
    )
    # Faster resets react sooner (more locality) but pay more overhead.
    assert fast.local_miss_fraction >= slow.local_miss_fraction - 0.01
    assert fast.kernel_overhead_ns >= slow.kernel_overhead_ns


def test_extension_hotspot_migration(store, emit, once):
    """Section 7.1.2's future-work idea: migrate even write-shared pages.

    The database's miss traffic concentrates on write-shared pages that
    the base policy refuses to touch; with hotspot migration each such
    page moves to its dominant sharer's node, trading controller load for
    locality.
    """

    def compute():
        base = store.fig3("database")["Mig/Rep"]
        spec, trace = store.workload("database")
        params = params_for("database").replace(hotspot_migration=True)
        from repro.sim.simulator import SimulatorOptions, SystemSimulator

        hotspot = SystemSimulator(
            spec, params=params, options=SimulatorOptions(dynamic=True)
        ).run(trace)
        return base, hotspot

    base, hotspot = once(compute)
    rows = [
        ["base policy", base.local_miss_fraction * 100,
         base.tally.migrated, base.kernel_overhead_ns / 1e9,
         base.contention.max_controller_occupancy],
        ["+ hotspot migration", hotspot.local_miss_fraction * 100,
         hotspot.tally.migrated, hotspot.kernel_overhead_ns / 1e9,
         hotspot.contention.max_controller_occupancy],
    ]
    emit(
        "extension_hotspot",
        format_table(
            "Extension (Section 7.1.2 future work): migrate write-shared "
            "pages toward their dominant sharer (database workload)",
            ["Policy", "Local %", "Migrations", "Overhead (s)",
             "Max ctrl occupancy"],
            rows,
            float_format="{:.3f}",
        ),
    )
    # More pages move, and locality does not get worse.
    assert hotspot.tally.migrated > base.tally.migrated
    assert hotspot.local_miss_fraction >= base.local_miss_fraction - 0.01


def test_extension_adaptive_trigger(store, emit, once):
    """Section 8.4's open problem: pick the trigger adaptively.

    A per-interval controller doubles the trigger when the pager blows
    its overhead budget and halves it when the pager idles while remote
    misses remain.  Compared against Figure 9's fixed settings, adaptive
    runs land near the good operating region from either bad start.
    """

    def compute():
        spec, trace = store.workload("engineering")
        rows = []
        for start in (32, 512):
            for adaptive in (False, True):
                params = params_for("engineering").replace(
                    trigger_threshold=start,
                    sharing_threshold=max(1, start // 4),
                )
                options = SimulatorOptions(
                    dynamic=True, adaptive_trigger=adaptive
                )
                r = SystemSimulator(
                    spec, params=params, options=options
                ).run(trace)
                rows.append(
                    [
                        start,
                        "adaptive" if adaptive else "fixed",
                        r.metrics.get("policy.adaptive.trigger", float(start)),
                        r.local_miss_fraction * 100,
                        r.kernel_overhead_ns / 1e9,
                    ]
                )
        return rows

    rows = once(compute)
    emit(
        "extension_adaptive_trigger",
        format_table(
            "Extension (Section 8.4): adaptive trigger selection "
            "(engineering)",
            ["Start", "Mode", "Final trigger", "Local %", "Overhead (s)"],
            rows,
        ),
    )
    fixed = {r[0]: r for r in rows if r[1] == "fixed"}
    adaptive = {r[0]: r for r in rows if r[1] == "adaptive"}
    # A too-aggressive fixed start pays heavily; adaptive reins it in.
    assert adaptive[32][4] < fixed[32][4]
    # A too-timid fixed start leaves locality behind; adaptive recovers it.
    assert adaptive[512][3] > fixed[512][3] - 2.0
    # Both adaptive runs end in the same neighbourhood.
    assert abs(adaptive[32][3] - adaptive[512][3]) < 12.0
