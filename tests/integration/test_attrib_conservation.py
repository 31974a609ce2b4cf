"""Attribution conservation over the full figure grids.

The analyzer's design invariant is that every stall nanosecond and every
pager action in a decision log lands in exactly one page, node and
interval — so the attributed totals must reconcile with the simulator's
own recorded metrics.  This holds the invariant against the real paper
workloads, not synthetic streams:

* every fig6 + fig9 grid cell (scale 0.25), streamed through an
  :class:`AttributionSink`, reconciles byte-exactly with its
  :class:`PolicySimResult`;
* a system-sim run reconciles against ``pager.tally`` and the stall
  breakdown (float tolerance: contention latencies sum in a different
  order);
* the auto engine runs vectorized, traced or not, and its traced log
  diffs to zero against scalar — and sweep workers produce the exact
  results a traced rerun attributes.
"""

import pytest

from repro.exp.runner import (
    POLICY_LABELS,
    SweepRunner,
    _METRICS_BY_LABEL,
    _STATIC_POLICIES,
)
from repro.exp.spec import NAMED_GRIDS, ExperimentSpec
from repro.obs.attrib import (
    Attribution,
    AttributionSink,
    diff_attributions,
    expected_from_policysim,
    expected_from_system,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.simulator import SystemSimulator
from repro.trace.policysim import PolicySimConfig, TracePolicySimulator
from repro.workloads import build_spec, generate_trace

SCALE = 0.25
SEED = 0

GRID = NAMED_GRIDS["fig6"](scale=SCALE, seed=SEED) + NAMED_GRIDS["fig9"](
    scale=SCALE, seed=SEED
)


@pytest.fixture(scope="module")
def traces():
    """{workload: (spec, trace)} shared across the grid."""
    out = {}
    for name in sorted({spec.workload for spec in GRID}):
        spec = build_spec(name, scale=SCALE, seed=SEED)
        out[name] = (spec, generate_trace(spec))
    return out


def run_attributed(cell, workload_spec, trace, engine="scalar",
                   metrics=None):
    """One grid cell with an AttributionSink attached (O(pages) memory)."""
    stream = trace.kernel_only() if cell.kernel_trace else trace.user_only()
    sink = AttributionSink()
    tracer = Tracer(capacity=1, sinks=[sink])
    sim = TracePolicySimulator(
        PolicySimConfig(
            n_cpus=workload_spec.n_cpus,
            n_nodes=workload_spec.n_nodes,
            engine=engine,
        ),
        tracer=tracer,
        metrics=metrics,
    )
    if cell.policy in _STATIC_POLICIES:
        result = sim.simulate_static(stream, _STATIC_POLICIES[cell.policy])
    else:
        result = sim.simulate_dynamic(
            stream,
            cell.params(),
            metric=_METRICS_BY_LABEL[cell.metric],
            label=POLICY_LABELS[cell.policy],
        )
    tracer.close()
    return result, sink.attribution


@pytest.mark.parametrize("cell", GRID, ids=lambda c: c.label())
def test_grid_cell_attribution_conserves_exactly(cell, traces):
    spec, trace = traces[cell.workload]
    result, attrib = run_attributed(cell, spec, trace)
    # Trace-sim latencies are integral, so conservation is byte-exact.
    assert attrib.integral
    assert attrib.reconcile(expected_from_policysim(result)) == []
    assert attrib.stall_ns == result.stall_ns
    assert attrib.local_stall_ns == result.local_stall_ns
    assert attrib.misses == result.total_misses


def test_system_sim_reconciles_against_pager_tally():
    spec = build_spec("engineering", scale=0.05, seed=SEED)
    trace = generate_trace(spec)
    sink = AttributionSink()
    sim = SystemSimulator(spec, tracer=Tracer(capacity=1, sinks=[sink]))
    result = sim.run(trace)
    sim.tracer.close()
    attrib = sink.attribution
    # Contention makes latencies non-integral; reconcile() switches to
    # float tolerance on its own.
    assert not attrib.integral
    assert attrib.reconcile(expected_from_system(result)) == []
    assert attrib.decisions == result.tally.hot_pages
    assert attrib.shootdowns > 0
    assert attrib.shootdown_cost_ns > 0


class TestAutoEngineReconciliation:
    """A traced auto-engine run stays vectorized and reconciles."""

    def dynamic_cell(self):
        return next(c for c in GRID if c.policy not in _STATIC_POLICIES)

    def test_auto_engine_traced_run_stays_vectorized(self, traces):
        cell = self.dynamic_cell()
        spec, trace = traces[cell.workload]
        registry = MetricsRegistry()
        result, attrib = run_attributed(
            cell, spec, trace, engine="auto", metrics=registry,
        )
        assert registry.counter("replay.engine.vector").value == 1
        assert registry.counter("replay.engine.scalar").value == 0
        assert attrib.reconcile(expected_from_policysim(result)) == []

    def test_scalar_and_auto_logs_diff_to_zero(self, traces):
        cell = self.dynamic_cell()
        spec, trace = traces[cell.workload]
        _, scalar = run_attributed(cell, spec, trace, engine="scalar")
        _, auto = run_attributed(cell, spec, trace, engine="auto")
        diff = diff_attributions(scalar, auto)
        assert diff.is_identical
        assert diff.stall_delta_ns == 0.0


class TestSweepWorkers:
    SPECS = [
        ExperimentSpec(workload="engineering", scale=0.05, seed=SEED,
                       kind="trace", policy=policy)
        for policy in ("ft", "migrep")
    ]

    def run_sweep(self, monkeypatch, engine):
        monkeypatch.setenv("REPRO_REPLAY_ENGINE", engine)
        report = SweepRunner(cache=None, jobs=2).run(self.SPECS)
        assert report.failures == []
        return report

    def test_workers_never_fall_back_and_engines_agree(self, monkeypatch):
        """Pool workers trace nothing, so auto never downgrades — and the
        vector results they produce match scalar byte-for-byte."""
        auto = self.run_sweep(monkeypatch, "auto")
        scalar = self.run_sweep(monkeypatch, "scalar")
        for a, s in zip(auto.results, scalar.results):
            assert a.to_dict() == s.to_dict()

    def test_traced_rerun_reconciles_with_worker_results(self, monkeypatch):
        report = self.run_sweep(monkeypatch, "auto")
        for outcome in report.outcomes:
            spec = outcome.spec
            wspec = build_spec(spec.workload, scale=spec.scale,
                               seed=spec.seed)
            trace = generate_trace(wspec)
            sink = AttributionSink()
            sim = TracePolicySimulator(
                PolicySimConfig(
                    n_cpus=wspec.n_cpus, n_nodes=wspec.n_nodes,
                    engine="auto",
                ),
                tracer=Tracer(capacity=1, sinks=[sink]),
            )
            if spec.policy in _STATIC_POLICIES:
                sim.simulate_static(
                    trace.user_only(), _STATIC_POLICIES[spec.policy]
                )
            else:
                sim.simulate_dynamic(
                    trace.user_only(),
                    spec.params(),
                    metric=_METRICS_BY_LABEL[spec.metric],
                    label=POLICY_LABELS[spec.policy],
                )
            sim.tracer.close()
            attrib = sink.attribution
            # The traced rerun stays vectorized (batched emission) and
            # attributes exactly what the worker recorded.
            assert attrib.reconcile(
                expected_from_policysim(outcome.result)
            ) == []
