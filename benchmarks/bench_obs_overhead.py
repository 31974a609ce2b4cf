"""Observability overhead: instrumentation must be free when unused.

The ``repro.obs`` layer promises zero cost when disabled: call sites
guard event construction behind ``tracer.active`` and metric
registration is collect-time-only.  This bench holds the promise to
numbers: a full-system Mig/Rep run with a *disabled* tracer (plus an
attached counting sink and an external metrics registry) must stay
within 5% of the plain uninstrumented run's wall time, and the sink
must have seen exactly zero events.  (The layer profiler needs no such
gate: without ``--profile-out`` it installs nothing.)

A second artifact (``obs_analyze``) gates the *enabled* analysis path:
post-hoc attribution of a miss-traced decision log must stay cheap
relative to the traced replay that produced it — the analyzer is one
streaming pass over the events, so if its wall time creeps toward the
simulation's, something in ``repro.obs.attrib`` went quadratic.  The
replay it is measured against is the scalar reference core
(:class:`~repro.trace.policysim.ReferenceTracePolicySimulator`), whose
per-event cost is the fixed yardstick the committed ratio was set on.

Timing uses best-of-N with alternating order so scheduler noise and
cache warmup hit both variants evenly.  ``REPRO_OBS_BENCH_SCALE``
overrides the workload scale (default 0.25, the issue's reference
point; CI smoke runs use a smaller value).
"""

import os
import time

from conftest import params_for

from repro.analysis.tables import format_table
from repro.obs.attrib import Attribution, expected_from_policysim
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import CountingSink, ListSink, Tracer
from repro.sim.simulator import SimulatorOptions, SystemSimulator
from repro.trace.policysim import (
    PolicySimConfig,
    ReferenceTracePolicySimulator,
)
from repro.workloads import build_spec, generate_trace

#: The issue's reference point: the engineering workload at scale 0.25.
OBS_BENCH_SCALE = float(os.environ.get("REPRO_OBS_BENCH_SCALE", "0.25"))
ROUNDS = 3
TRACER_TOLERANCE = 1.05
#: Analyzing a log must cost at most as much as the traced replay that
#: wrote it (in practice it is a small fraction of it).
ANALYZE_TOLERANCE = 1.0


def _run(spec, trace, tracer=None, metrics=None) -> float:
    """One full Mig/Rep run; returns wall seconds of the hot loop."""
    sim = SystemSimulator(
        spec,
        params=params_for("engineering"),
        options=SimulatorOptions(dynamic=True),
        tracer=tracer,
        metrics=metrics,
    )
    start = time.perf_counter()
    sim.run(trace)
    return time.perf_counter() - start


def test_disabled_instrumentation_overhead(report, once):
    spec = build_spec("engineering", scale=OBS_BENCH_SCALE, seed=0)
    trace = generate_trace(spec)
    sink = CountingSink()

    def compute():
        times = {"baseline": [], "tracer": []}
        _run(spec, trace)  # warmup: caches, allocator, JIT-free but fair
        for round_idx in range(ROUNDS):
            variants = [
                ("baseline", {}),
                ("tracer", dict(
                    tracer=Tracer(sinks=[sink], enabled=False),
                    metrics=MetricsRegistry(),
                )),
            ]
            # Alternate the order so warmth and scheduler noise hit both
            # variants evenly across rounds.
            rotated = variants[round_idx % 2:] + variants[:round_idx % 2]
            for label, kwargs in rotated:
                times[label].append(_run(spec, trace, **kwargs))
        return {label: min(values) for label, values in times.items()}

    best = once(compute)
    tracer_ratio = best["tracer"] / best["baseline"]

    run = report("obs_overhead", scale=OBS_BENCH_SCALE, rounds=ROUNDS)
    # The ratio is the contract; gate it with room for container noise
    # above its in-bench assertion budget.
    run.metric(
        "ratio.disabled_tracer", tracer_ratio,
        direction="lower", tolerance=0.10,
    )
    run.metric(
        "wall_s.baseline", best["baseline"], unit="s", direction="lower"
    )
    run.emit(
        format_table(
            "Observability overhead when disabled (engineering, scale "
            f"{OBS_BENCH_SCALE})",
            ["Variant", "Best wall time (s)", "Ratio", "Budget"],
            [
                ["uninstrumented", best["baseline"], 1.0, "-"],
                ["disabled tracer + registry", best["tracer"], tracer_ratio,
                 f"{(TRACER_TOLERANCE - 1) * 100:.0f}%"],
            ],
        ),
    )
    assert sink.count == 0, "a disabled tracer must never reach its sinks"
    assert tracer_ratio <= TRACER_TOLERANCE, (
        f"disabled instrumentation cost {100 * (tracer_ratio - 1):.1f}% "
        f"(budget {100 * (TRACER_TOLERANCE - 1):.0f}%)"
    )


def test_analyzer_overhead(report, once):
    """Post-hoc attribution vs. the traced replay that fed it."""
    spec = build_spec("engineering", scale=OBS_BENCH_SCALE, seed=0)
    trace = generate_trace(spec)
    stream = trace.user_only()
    params = params_for("engineering")
    config = PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)

    def compute():
        replay_s, analyze_s = [], []
        events, result, attrib = [], None, None
        for _ in range(ROUNDS):
            sink = ListSink()
            tracer = Tracer(capacity=1, sinks=[sink])
            sim = ReferenceTracePolicySimulator(config, tracer=tracer)
            start = time.perf_counter()
            result = sim.simulate_dynamic(stream, params)
            replay_s.append(time.perf_counter() - start)
            tracer.close()
            events = sink.events
            start = time.perf_counter()
            attrib = Attribution.from_events(events)
            analyze_s.append(time.perf_counter() - start)
        errors = attrib.reconcile(expected_from_policysim(result))
        return {
            "replay": min(replay_s),
            "analyze": min(analyze_s),
            "events": len(events),
            "errors": errors,
        }

    best = once(compute)
    ratio = best["analyze"] / best["replay"]
    events_per_s = best["events"] / best["analyze"]

    run = report("obs_analyze", scale=OBS_BENCH_SCALE, rounds=ROUNDS)
    run.metric(
        "ratio.analyze_vs_traced_replay", ratio,
        direction="lower", tolerance=0.25,
    )
    run.metric("wall_s.analyze", best["analyze"], unit="s",
               direction="lower")
    run.metric("events_per_s", events_per_s, unit="ev/s")
    run.emit(
        format_table(
            f"Analyzer throughput (engineering, scale {OBS_BENCH_SCALE})",
            ["Stage", "Best wall time (s)", "Events", "Ratio"],
            [
                ["traced scalar replay", best["replay"], best["events"],
                 1.0],
                ["attribution pass", best["analyze"], best["events"],
                 ratio],
            ],
        ),
    )
    assert best["errors"] == [], (
        f"attribution failed to reconcile: {best['errors']}"
    )
    assert ratio <= ANALYZE_TOLERANCE, (
        f"analyzing cost {ratio:.2f}x the traced replay "
        f"(budget {ANALYZE_TOLERANCE:.2f}x)"
    )
