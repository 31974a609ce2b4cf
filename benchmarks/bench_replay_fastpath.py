"""Replay fastpath: the vectorized engine vs the scalar core.

docs/PERFORMANCE.md's headline claim — the vectorized engine replays
every path several times faster than the scalar core while producing
byte-identical results — is backed by this bench.  Every user workload
replays under both engines (same trace, same parameters) across the
full path matrix: the dynamic Mig/Rep cells with full-cache and
sampled-TLB metrics, the full-rate TLB-derived metric (the merged
driver-stream path), the competitive baseline, a traced Mig/Rep cell
(batched emission vs inline), and the four-policy PT table.  Results
are compared exactly with ``to_dict()`` and the wall-clock ratio is
reported per cell.
"""

import time

from conftest import BENCH_SCALE, USER_WORKLOADS, params_for

from repro.analysis.tables import format_table
from repro.obs.events import ALL_KINDS, MissServiced
from repro.obs.tracer import Tracer
from repro.policy.metrics import FULL_CACHE, FULL_TLB, SAMPLED_TLB
from repro.ptpol import PT_POLICIES, PtPolicySimulator, params_for_pt_policy
from repro.ptpol.sim import ReferencePtPolicySimulator
from repro.trace.policysim import (
    PolicySimConfig,
    ReferenceTracePolicySimulator,
    TracePolicySimulator,
)
from repro.trace.tlbsim import derive_tlb_trace

METRICS = {"FC": FULL_CACHE, "ST": SAMPLED_TLB, "TLB": FULL_TLB}

#: (data-policy, PT-policy) simulator per timed side: the scalar
#: reference cores and the production (vectorized) replay.
SIMULATORS = {
    "scalar": (ReferenceTracePolicySimulator, ReferencePtPolicySimulator),
    "vector": (TracePolicySimulator, PtPolicySimulator),
}


def best_of(fn, *args, rounds=2):
    """Best-of-N wall time for one replay cell.

    Single-shot timings swing by tens of percent between adjacent cells
    (allocator and cache state left behind by the previous replay);
    the minimum of two runs is stable enough to commit as a baseline.
    """
    best = None
    for _ in range(rounds):
        out = fn(*args)
        if best is None or out[0] < best[0]:
            best = out
    return best


def _trace_sim(spec, engine, tracer=None):
    config = PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)
    return SIMULATORS[engine][0](config, tracer=tracer)


def replay(spec, stream, params, metric, engine, driver):
    sim = _trace_sim(spec, engine)
    t0 = time.perf_counter()
    result = sim.simulate_dynamic(
        stream, params, metric=metric, driver_trace=driver
    )
    return time.perf_counter() - t0, result


def replay_competitive(spec, stream, engine):
    sim = _trace_sim(spec, engine)
    t0 = time.perf_counter()
    result = sim.simulate_competitive(stream)
    return time.perf_counter() - t0, result


def replay_traced(spec, stream, params, engine):
    # The decision stream, as `--trace-out` records it: per-miss events
    # are opt-in there and inherently O(events) to construct on either
    # engine, so they would only measure event construction.
    tracer = Tracer(
        capacity=1 << 10, kinds=ALL_KINDS - {MissServiced.KIND}
    )
    sim = _trace_sim(spec, engine, tracer=tracer)
    t0 = time.perf_counter()
    result = sim.simulate_dynamic(stream, params)
    return time.perf_counter() - t0, result, tracer.emitted


def replay_ptpol(spec, stream, engine, driver):
    # The full four-policy table, as `repro ptsim` replays it.  The
    # walk trace, like the TLB driver above, is derived once outside
    # the timed region: identical prep for both engines.
    results = []
    t0 = time.perf_counter()
    for policy in PT_POLICIES:
        sim = SIMULATORS[engine][1](
            PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)
        )
        results.append(
            sim.simulate(
                stream, params_for_pt_policy(policy), driver_trace=driver
            ).to_dict()
        )
    return time.perf_counter() - t0, results


def test_replay_fastpath_speedup(store, report, once):
    def compute():
        measured = []
        for name in USER_WORKLOADS:
            spec, trace = store.workload(name)
            stream = trace.user_only()
            params = params_for(name)
            for mlabel, metric in METRICS.items():
                # The TLB driver trace is derived once, outside the timed
                # region: it is metric preparation shared verbatim by both
                # engines, and timing it would only dilute the replay
                # comparison this bench exists to make.
                driver = (
                    derive_tlb_trace(stream, n_cpus=spec.n_cpus)
                    if metric.uses_tlb
                    else None
                )
                # Scalar first (warms any lazy state), then vector; both
                # runs see the identical stream and parameters.
                scalar_s, scalar = best_of(
                    replay, spec, stream, params, metric, "scalar", driver
                )
                vector_s, vector = best_of(
                    replay, spec, stream, params, metric, "vector", driver
                )
                assert scalar.to_dict() == vector.to_dict(), (name, mlabel)
                measured.append(
                    (name, mlabel, len(stream), scalar_s, vector_s)
                )
            # The competitive baseline (watermark candidates + sub-replay).
            scalar_s, scalar = best_of(
                replay_competitive, spec, stream, "scalar"
            )
            vector_s, vector = best_of(
                replay_competitive, spec, stream, "vector"
            )
            assert scalar.to_dict() == vector.to_dict(), (name, "Comp")
            measured.append((name, "Comp", len(stream), scalar_s, vector_s))
            # Traced Mig/Rep: batched emission vs the inline scalar path;
            # the logs must carry the same number of events on top of
            # identical results (full log identity is the test suites' job).
            scalar_s, scalar, scalar_n = best_of(
                replay_traced, spec, stream, params, "scalar"
            )
            vector_s, vector, vector_n = best_of(
                replay_traced, spec, stream, params, "vector"
            )
            assert scalar.to_dict() == vector.to_dict(), (name, "Traced")
            assert scalar_n == vector_n, (name, "Traced", scalar_n, vector_n)
            measured.append((name, "Traced", len(stream), scalar_s, vector_s))
            # The four PT policies (walk-candidacy fastpath).
            walk_driver = derive_tlb_trace(stream, n_cpus=spec.n_cpus)
            scalar_s, scalar = best_of(
                replay_ptpol, spec, stream, "scalar", walk_driver
            )
            vector_s, vector = best_of(
                replay_ptpol, spec, stream, "vector", walk_driver
            )
            assert scalar == vector, (name, "PT")
            measured.append((name, "PT", len(stream), scalar_s, vector_s))
        return measured

    measured = once(compute)

    rows = []
    total_scalar = total_vector = 0.0
    path_totals = {}
    for name, mlabel, events, scalar_s, vector_s in measured:
        total_scalar += scalar_s
        total_vector += vector_s
        ps, pv = path_totals.get(mlabel, (0.0, 0.0))
        path_totals[mlabel] = (ps + scalar_s, pv + vector_s)
        rows.append(
            [f"{name}/{mlabel}", events, scalar_s, vector_s,
             scalar_s / vector_s]
        )
    speedup = total_scalar / total_vector
    rows.append(
        ["(all)", sum(m[2] for m in measured), total_scalar, total_vector,
         speedup]
    )

    # The fastpath has to pay for itself decisively at full scale; at
    # reduced REPRO_BENCH_SCALE the fixed per-segment costs loom larger,
    # so only a net win is required there.  (The aggregate now spans the
    # full path matrix — the sub-replay-heavy competitive, traced and PT
    # cells pull it below the dynamic-only cells' ratio by design.)
    floor = 2.0 if BENCH_SCALE >= 1.0 else 1.2

    run = report("replay_fastpath", scale=BENCH_SCALE, floor=floor)
    for name, mlabel, events, scalar_s, vector_s in measured:
        run.metric(f"speedup.{name}.{mlabel}", scalar_s / vector_s, unit="x")
    # Per-path aggregates (FC/ST/TLB/Comp/Traced/PT): informational, but
    # the committed baseline must show every newly vectorized path paying
    # off on its own, not hiding behind the dynamic cells.
    path_labels = {"FC": "dynamic_fc", "ST": "dynamic_st",
                   "TLB": "tlbmetric", "Comp": "competitive",
                   "Traced": "traced", "PT": "ptpol"}
    for mlabel, (ps, pv) in path_totals.items():
        run.metric(f"speedup.path.{path_labels[mlabel]}", ps / pv, unit="x")
    # Only the aggregate ratio is gated: it is machine-portable, while
    # absolute seconds and per-workload ratios are informational.
    run.metric("speedup.all", speedup, unit="x", tolerance=0.5)
    run.metric("wall_s.scalar", total_scalar, unit="s", direction="lower")
    run.metric("wall_s.vector", total_vector, unit="s", direction="lower")
    run.metric("events.total", sum(m[2] for m in measured), unit="events")
    run.emit(
        format_table(
            "Replay paths: scalar core vs vectorized fastpath "
            "(byte-identical results)",
            ["Workload/Path", "Events", "Scalar (s)", "Vector (s)",
             "Speedup"],
            rows,
            float_format="{:.3f}",
        ),
    )

    assert speedup >= floor, (
        f"fastpath speedup only {speedup:.2f}x at scale {BENCH_SCALE} "
        f"(floor {floor}x)"
    )
