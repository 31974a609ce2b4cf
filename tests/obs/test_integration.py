"""End-to-end observability guarantees on real simulator runs.

The three acceptance properties of the layer:

* **Reconciliation** — with tracing on, every Table 4 outcome in
  ``pager.tally`` has exactly one matching decision event;
* **Determinism** — identical runs write byte-identical JSONL logs;
* **Transparency** — tracing disabled (or absent) leaves results
  bit-identical to an uninstrumented run.
"""

import pytest

from repro.obs.events import (
    CollapseEvent,
    HotPageTriggered,
    IntervalReset,
    MigrationDecision,
    NoActionDecision,
    ReplicationDecision,
    ShootdownEvent,
)
from repro.obs.export import JsonlSink, read_events
from repro.obs.layers import LayerTrace
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import CountingSink, ListSink, Tracer
from repro.policy.parameters import PolicyParameters
from repro.sim.simulator import SimulatorOptions, SystemSimulator
from repro.trace.policysim import (
    PolicySimConfig,
    ReferenceTracePolicySimulator,
    TracePolicySimulator,
)


def _run(spec, trace, tracer=None, metrics=None, **options):
    sim = SystemSimulator(
        spec,
        params=PolicyParameters.engineering_base(),
        options=SimulatorOptions(dynamic=True, **options),
        tracer=tracer,
        metrics=metrics,
    )
    return sim.run(trace)


def _count(events, cls, **fields):
    return sum(
        1
        for e in events
        if isinstance(e, cls)
        and all(getattr(e, k) == v for k, v in fields.items())
    )


class TestReconciliation:
    @pytest.fixture(scope="class")
    def traced_run(self, engineering):
        spec, trace = engineering
        sink = ListSink()
        tracer = Tracer(capacity=1 << 20, sinks=[sink])
        result = _run(spec, trace, tracer=tracer)
        return result, sink.events

    def test_every_tally_outcome_has_a_matching_event(self, traced_run):
        result, events = traced_run
        tally = result.tally
        assert tally.hot_pages > 0
        assert (
            _count(events, MigrationDecision, outcome="migrated")
            == tally.migrated
        )
        assert (
            _count(events, ReplicationDecision, outcome="replicated")
            == tally.replicated
        )
        assert _count(events, NoActionDecision) == tally.no_action
        no_page = _count(events, MigrationDecision, outcome="no-page") + _count(
            events, ReplicationDecision, outcome="no-page"
        )
        assert no_page == tally.no_page
        decisions = (
            _count(events, MigrationDecision)
            + _count(events, ReplicationDecision)
            + _count(events, NoActionDecision)
        )
        assert decisions == tally.hot_pages

    def test_collapses_and_triggers_reconcile(self, traced_run):
        result, events = traced_run
        assert _count(events, CollapseEvent) == result.collapses
        triggers = _count(events, HotPageTriggered)
        assert triggers == result.metrics["machine.directory.triggers"]

    def test_shootdowns_match_flush_operations(self, traced_run):
        result, events = traced_run
        flushes = (
            result.metrics["kernel.pager.flush_operations"]
            + result.metrics["kernel.collapse.flush_operations"]
        )
        assert _count(events, ShootdownEvent) == flushes

    def test_interval_resets_emitted(self, traced_run):
        result, events = traced_run
        resets = [e for e in events if isinstance(e, IntervalReset)]
        assert len(resets) >= 1
        assert [e.index for e in resets] == list(range(len(resets)))
        assert len(resets) == result.metrics[
            "machine.directory.interval_resets"
        ]


class TestMetricsRegistry:
    def test_registry_is_the_only_counter_store(self, engineering):
        spec, trace = engineering
        result = _run(spec, trace)
        assert result.extra == {}
        assert result.metrics["vm.migrations"] == result.tally.migrated
        for key in ("kernel.pager.tlbs_flushed",
                    "kernel.pager.flush_operations",
                    "kernel.locks.memlock.wait_ns.total",
                    "vm.replications", "vm.faults", "vm.replicas_reclaimed"):
            assert key in result.metrics

    def test_namespace_spans_every_layer(self, engineering):
        spec, trace = engineering
        result = _run(spec, trace)
        for key in (
            "machine.memory.local_fraction",
            "machine.directory.triggers",
            "kernel.pager.migrated",
            "kernel.collapse.count",
            "kernel.costs.total_overhead_ns",
            "kernel.locks.memlock.acquisitions",
            "vm.faults",
        ):
            assert key in result.metrics
        assert (
            result.metrics["kernel.pager.migrated"] == result.tally.migrated
        )
        assert result.metrics["kernel.collapse.count"] == result.collapses

    def test_external_registry_is_used(self, engineering):
        spec, trace = engineering
        registry = MetricsRegistry()
        result = _run(spec, trace, metrics=registry)
        assert registry.collect() == result.metrics

    def test_adaptive_metrics_present_when_enabled(self, engineering):
        spec, trace = engineering
        result = _run(spec, trace, adaptive_trigger=True)
        assert result.metrics["policy.adaptive.trigger"] > 0
        assert "policy.adaptive.history_len" in result.metrics
        assert "policy.adaptive.trigger" not in _run(spec, trace).metrics


class TestDeterminism:
    def test_byte_identical_logs(self, engineering, tmp_path):
        spec, trace = engineering
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = str(tmp_path / name)
            tracer = Tracer(sinks=[JsonlSink(path)])
            _run(spec, trace, tracer=tracer)
            tracer.close()
            with open(path, "rb") as fh:
                logs.append(fh.read())
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0

    def test_log_round_trips_through_reader(self, engineering, tmp_path):
        spec, trace = engineering
        path = str(tmp_path / "run.jsonl")
        sink = ListSink()
        tracer = Tracer(sinks=[JsonlSink(path), sink])
        _run(spec, trace, tracer=tracer)
        tracer.close()
        assert read_events(path) == sink.events


class TestTransparency:
    def _summary(self, result):
        return (
            result.execution_time_ns,
            result.stall.total_ns,
            result.stall.local_misses,
            result.stall.remote_misses,
            result.kernel_overhead_ns,
            result.tally.hot_pages,
            result.tally.migrated,
            result.tally.replicated,
            result.tally.no_action,
            result.tally.no_page,
            result.collapses,
            tuple(sorted(result.extra.items())),
            tuple(sorted(result.metrics.items())),
        )

    def test_disabled_tracer_changes_nothing(self, engineering):
        spec, trace = engineering
        baseline = _run(spec, trace, tracer=None)
        sink = CountingSink()
        disabled = _run(
            spec, trace, tracer=Tracer(sinks=[sink], enabled=False)
        )
        assert sink.count == 0
        assert self._summary(disabled) == self._summary(baseline)

    def test_enabled_tracer_changes_no_results(self, engineering):
        spec, trace = engineering
        baseline = _run(spec, trace, tracer=None)
        traced = _run(spec, trace, tracer=Tracer(capacity=1 << 20))
        assert self._summary(traced) == self._summary(baseline)


class TestPolicySimTracing:
    def test_dynamic_run_reconciles(self, engineering):
        spec, trace = engineering
        sink = ListSink()
        tracer = Tracer(capacity=1 << 20, sinks=[sink])
        sim = TracePolicySimulator(
            PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes),
            tracer=tracer,
        )
        result = sim.simulate_dynamic(
            trace.user_only(), PolicyParameters.engineering_base()
        )
        events = sink.events
        assert result.migrations + result.replications > 0
        assert (
            _count(events, MigrationDecision, outcome="migrated")
            == result.migrations
        )
        assert (
            _count(events, ReplicationDecision, outcome="replicated")
            == result.replications
        )
        assert _count(events, NoActionDecision) == result.no_actions
        assert _count(events, CollapseEvent) == result.collapses
        assert _count(events, HotPageTriggered) == result.hot_events

    def test_untraced_results_identical(self, engineering):
        spec, trace = engineering
        config = PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)
        params = PolicyParameters.engineering_base()
        plain = TracePolicySimulator(config).simulate_dynamic(
            trace.user_only(), params
        )
        traced = TracePolicySimulator(
            config, tracer=Tracer(capacity=1 << 20)
        ).simulate_dynamic(trace.user_only(), params)
        assert (plain.stall_ns, plain.overhead_ns, plain.migrations,
                plain.replications, plain.collapses, plain.no_actions) == (
            traced.stall_ns, traced.overhead_ns, traced.migrations,
            traced.replications, traced.collapses, traced.no_actions)


class TestLayerProfilerTransparency:
    """The layer wrappers observe wall-clock only; results never shift."""

    def test_system_sim_results_identical_with_profiling(self, engineering):
        spec, trace = engineering
        baseline = _run(spec, trace)
        with LayerTrace() as layers:
            profiled = _run(spec, trace)
        helper = TestTransparency()
        assert helper._summary(profiled) == helper._summary(baseline)
        calls = layers.entry_calls()
        assert calls["repro.sim.simulator:SystemSimulator.run"] == 1
        assert calls["repro.machine.memory:NumaMemorySystem.service_miss"] > 0

    @pytest.mark.parametrize(
        "cls", [ReferenceTracePolicySimulator, TracePolicySimulator],
        ids=["scalar", "vector"],
    )
    def test_policysim_byte_identical_with_profiling(self, engineering, cls):
        spec, trace = engineering
        config = PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)
        params = PolicyParameters.engineering_base()
        plain = cls(config).simulate_dynamic(trace.user_only(), params)
        with LayerTrace() as layers:
            profiled = cls(config).simulate_dynamic(trace.user_only(), params)
        assert profiled.to_dict() == plain.to_dict()
        calls = layers.entry_calls()
        assert calls[
            "repro.trace.policysim:TracePolicySimulator.simulate_dynamic"
        ] == 1
