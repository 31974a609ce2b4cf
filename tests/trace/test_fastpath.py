"""Differential tests: the vectorized replay engine vs the scalar core.

The fastpath's whole contract is byte-identity — ``PolicySimResult``
(including ``extra`` floats) must match the scalar engine exactly, not
approximately.  These tests hammer that contract with seeded-random
traces across trigger thresholds, reset intervals, sampling rates,
metric sources, initial placements (post-facto included), chunked
streaming, the competitive baseline and traced runs — where byte
identity extends to the event *log*, emitted through the batched
buffer of :mod:`repro.obs.batch` — plus the engine-selection plumbing
(config validation, env default, per-path metrics counters).
"""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.policy.metrics import (
    FULL_CACHE,
    FULL_TLB,
    SAMPLED_CACHE,
    SAMPLED_TLB,
)
from repro.policy.parameters import PolicyParameters
from repro.trace.policysim import (
    REPLAY_ENGINES,
    PolicySimConfig,
    StaticPolicy,
    TracePolicySimulator,
)
from repro.trace.record import Trace, TraceBuilder


def random_trace(
    rng,
    n_events=4000,
    n_cpus=8,
    n_pages=64,
    max_weight=8,
    write_fraction=0.3,
    span_ns=400_000_000,
):
    """A seeded random trace: bursty, page-skewed, write-mixed."""
    b = TraceBuilder()
    times = np.sort(rng.integers(0, span_ns, size=n_events))
    # Zipf-ish page skew so some pages actually get hot.
    pages = rng.zipf(1.3, size=n_events) % n_pages
    cpus = rng.integers(0, n_cpus, size=n_events)
    weights = rng.integers(1, max_weight + 1, size=n_events)
    writes = rng.random(n_events) < write_fraction
    for i in range(n_events):
        b.append(
            int(times[i]),
            int(cpus[i]),
            int(cpus[i]) // 2,
            int(pages[i]),
            weight=int(weights[i]),
            is_write=bool(writes[i]),
        )
    return b.build()


def split_chunks(trace, n_chunks):
    """Cut a trace into time-ordered pieces (uneven on purpose)."""
    n = len(trace.time_ns)
    idx = np.arange(n)
    bounds = sorted({0, n, *(int(x) for x in np.linspace(0, n, n_chunks + 1))})
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        out.append(trace.select((idx >= lo) & (idx < hi)))
    return out


def run_pair(trace, params, metric=FULL_CACHE, initial=StaticPolicy.FIRST_TOUCH,
             n_cpus=8, n_nodes=4, driver_trace=None):
    results = {}
    for engine in ("scalar", "vector"):
        sim = TracePolicySimulator(
            PolicySimConfig(n_cpus=n_cpus, n_nodes=n_nodes, engine=engine)
        )
        results[engine] = sim.simulate_dynamic(
            trace, params, metric=metric, initial=initial,
            driver_trace=driver_trace,
        ).to_dict()
    return results["scalar"], results["vector"]


def events_normalized(tracer):
    """The tracer's log as dicts, with the run-meta engine masked.

    A scalar and a vector run differ *only* in the ``engine`` field of
    the run-meta header; everything else must match byte for byte.
    """
    out = []
    for event in tracer.events():
        d = event.to_dict()
        if d.get("kind") == "run-meta":
            d = dict(d, engine="<engine>")
        out.append(d)
    return out


PARAM_GRID = [
    dict(trigger_threshold=16, sharing_threshold=4),
    dict(trigger_threshold=64, sharing_threshold=16,
         reset_interval_ns=50_000_000),
    dict(trigger_threshold=8, sharing_threshold=2,
         reset_interval_ns=10_000_000, migrate_threshold=2),
    dict(trigger_threshold=32, sharing_threshold=8,
         enable_replication=False),
    dict(trigger_threshold=32, sharing_threshold=8,
         enable_migration=False),
]


class TestDifferentialRandom:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pidx", range(len(PARAM_GRID)))
    def test_random_traces_byte_identical(self, seed, pidx):
        rng = np.random.default_rng(1000 * seed + pidx)
        trace = random_trace(rng)
        params = PolicyParameters(**PARAM_GRID[pidx])
        scalar, vector = run_pair(trace, params)
        assert scalar == vector

    @pytest.mark.parametrize("metric", [
        FULL_CACHE, SAMPLED_CACHE, FULL_TLB, SAMPLED_TLB,
    ], ids=lambda m: f"{m.source.value}-{m.sampling_rate}")
    @pytest.mark.parametrize("seed", range(3))
    def test_metrics_and_sampling(self, metric, seed):
        rng = np.random.default_rng(7000 + seed)
        trace = random_trace(rng, n_events=3000)
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        scalar, vector = run_pair(trace, params, metric=metric)
        assert scalar == vector

    @pytest.mark.parametrize("initial", [
        StaticPolicy.FIRST_TOUCH, StaticPolicy.ROUND_ROBIN,
    ])
    def test_initial_placements(self, initial):
        rng = np.random.default_rng(42)
        trace = random_trace(rng)
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        scalar, vector = run_pair(trace, params, initial=initial)
        assert scalar == vector

    @pytest.mark.parametrize("seed", range(3))
    def test_tiny_and_degenerate_shapes(self, seed):
        rng = np.random.default_rng(90 + seed)
        # Few events, few pages: exercise empty segments and boundary
        # resets rather than throughput.
        trace = random_trace(
            rng, n_events=50, n_pages=3, n_cpus=4, span_ns=500_000_000
        )
        params = PolicyParameters(
            trigger_threshold=4, sharing_threshold=1,
            reset_interval_ns=20_000_000,
        )
        scalar, vector = run_pair(trace, params, n_cpus=4, n_nodes=2)
        assert scalar == vector

    def test_empty_trace(self):
        trace = TraceBuilder().build()
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        scalar, vector = run_pair(trace, params)
        assert scalar == vector

    def test_explicit_driver_trace(self):
        rng = np.random.default_rng(11)
        cost = random_trace(rng, n_events=2000)
        driver = random_trace(rng, n_events=500)
        params = PolicyParameters(trigger_threshold=8, sharing_threshold=2)
        scalar, vector = run_pair(
            cost, params, metric=FULL_TLB, driver_trace=driver
        )
        assert scalar == vector


class TestDifferentialChunked:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_chunks", [2, 7])
    @pytest.mark.parametrize("initial", [
        StaticPolicy.FIRST_TOUCH, StaticPolicy.ROUND_ROBIN,
        StaticPolicy.POST_FACTO,
    ])
    def test_chunked_byte_identical(self, seed, n_chunks, initial):
        rng = np.random.default_rng(500 + seed)
        trace = random_trace(rng)
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        chunks = split_chunks(trace, n_chunks)
        results = {}
        for engine in ("scalar", "vector"):
            sim = TracePolicySimulator(
                PolicySimConfig(n_cpus=8, n_nodes=4, engine=engine)
            )
            # Post-facto placement replays the stream twice, so it needs
            # a re-iterable chunk source; the others take a one-shot
            # iterator.
            source = (
                chunks if initial is StaticPolicy.POST_FACTO
                else iter(chunks)
            )
            results[engine] = sim.simulate_dynamic_chunks(
                source, params, initial=initial
            ).to_dict()
        assert results["scalar"] == results["vector"]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_chunks", [3, 9])
    def test_chunked_tlb_metric_byte_identical(self, seed, n_chunks):
        # TLB-derived metrics stream the deriver's output through the
        # segmented engine (merged_tlb_stream); the scalar engine on
        # the whole trace is the reference.
        rng = np.random.default_rng(600 + seed)
        trace = random_trace(rng)
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        chunked = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4, engine="vector")
        ).simulate_dynamic_chunks(
            iter(split_chunks(trace, n_chunks)), params, metric=FULL_TLB
        )
        scalar = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4, engine="scalar")
        ).simulate_dynamic(trace, params, metric=FULL_TLB)
        assert chunked.to_dict() == scalar.to_dict()

    def test_chunked_sampled_matches_full(self):
        rng = np.random.default_rng(77)
        trace = random_trace(rng)
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        sim = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4, engine="vector")
        )
        chunked = sim.simulate_dynamic_chunks(
            iter(split_chunks(trace, 5)), params, metric=SAMPLED_CACHE
        )
        scalar = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4, engine="scalar")
        ).simulate_dynamic(trace, params, metric=SAMPLED_CACHE)
        assert chunked.to_dict() == scalar.to_dict()


class TestDifferentialTraced:
    """Byte identity extends to the event log, not just the result."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("pidx", [0, 2])
    def test_traced_event_logs_byte_identical(self, seed, pidx):
        rng = np.random.default_rng(3000 * seed + pidx)
        trace = random_trace(rng, n_events=2500)
        params = PolicyParameters(**PARAM_GRID[pidx])
        logs = {}
        for engine in ("scalar", "vector"):
            sim = TracePolicySimulator(
                PolicySimConfig(n_cpus=8, n_nodes=4, engine=engine),
                tracer=Tracer(capacity=1 << 20),
            )
            result = sim.simulate_dynamic(trace, params)
            logs[engine] = (result.to_dict(), events_normalized(sim.tracer))
        assert logs["scalar"][0] == logs["vector"][0]
        assert logs["scalar"][1] == logs["vector"][1]

    @pytest.mark.parametrize("n_chunks", [3, 7])
    def test_traced_chunked_event_logs(self, n_chunks):
        # Chunk boundaries mid-interval: the traced cold-page set-aside
        # must dedupe against counters the boundary writeback already
        # put in the bank, or IntervalReset.tracked_pages drifts.
        rng = np.random.default_rng(77)
        trace = random_trace(rng, n_events=2500)
        params = PolicyParameters(trigger_threshold=8, sharing_threshold=2)
        logs = {}
        for engine in ("scalar", "vector"):
            sim = TracePolicySimulator(
                PolicySimConfig(n_cpus=8, n_nodes=4, engine=engine),
                tracer=Tracer(capacity=1 << 20),
            )
            result = sim.simulate_dynamic_chunks(
                iter(split_chunks(trace, n_chunks)), params
            )
            logs[engine] = (result.to_dict(), events_normalized(sim.tracer))
        assert logs["scalar"] == logs["vector"]

    def test_traced_tlb_metric_event_logs(self):
        rng = np.random.default_rng(31)
        trace = random_trace(rng, n_events=2000)
        params = PolicyParameters(trigger_threshold=8, sharing_threshold=2)
        logs = {}
        for engine in ("scalar", "vector"):
            sim = TracePolicySimulator(
                PolicySimConfig(n_cpus=8, n_nodes=4, engine=engine),
                tracer=Tracer(capacity=1 << 20),
            )
            result = sim.simulate_dynamic(trace, params, metric=FULL_TLB)
            logs[engine] = (result.to_dict(), events_normalized(sim.tracer))
        assert logs["scalar"] == logs["vector"]


class TestDifferentialCompetitive:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("initial", [
        StaticPolicy.FIRST_TOUCH, StaticPolicy.ROUND_ROBIN,
        StaticPolicy.POST_FACTO,
    ])
    def test_competitive_byte_identical(self, seed, initial):
        rng = np.random.default_rng(4000 + seed)
        trace = random_trace(rng, n_events=3000)
        results = {}
        for engine in ("scalar", "vector"):
            sim = TracePolicySimulator(
                PolicySimConfig(n_cpus=8, n_nodes=4, engine=engine)
            )
            results[engine] = sim.simulate_competitive(
                trace, initial=initial
            ).to_dict()
        assert results["scalar"] == results["vector"]


class TestEngineSelection:
    def params(self):
        return PolicyParameters(trigger_threshold=16, sharing_threshold=4)

    def test_engine_validation(self):
        with pytest.raises(ConfigurationError):
            PolicySimConfig(engine="turbo")
        for engine in REPLAY_ENGINES:
            assert PolicySimConfig(engine=engine).engine == engine

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_ENGINE", "scalar")
        assert PolicySimConfig().engine == "scalar"
        monkeypatch.delenv("REPRO_REPLAY_ENGINE")
        assert PolicySimConfig().engine == "auto"

    def test_vector_with_tracer_runs_and_matches_scalar(self):
        trace = random_trace(np.random.default_rng(0), n_events=800)
        logs = {}
        for engine in ("scalar", "vector"):
            sim = TracePolicySimulator(
                PolicySimConfig(n_cpus=8, n_nodes=4, engine=engine),
                tracer=Tracer(capacity=1 << 18),
            )
            result = sim.simulate_dynamic(trace, self.params())
            logs[engine] = (result.to_dict(), events_normalized(sim.tracer))
        assert logs["scalar"] == logs["vector"]

    def test_auto_with_tracer_stays_vector(self):
        registry = MetricsRegistry()
        sim = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4, engine="auto"),
            tracer=Tracer(capacity=1 << 16),
            metrics=registry,
        )
        trace = random_trace(np.random.default_rng(3), n_events=500)
        traced = sim.simulate_dynamic(trace, self.params())
        plain = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4, engine="scalar")
        ).simulate_dynamic(trace, self.params())
        assert traced.to_dict() == plain.to_dict()
        # No tracer-driven demotion: auto + tracer runs the vector engine.
        assert registry.counter("replay.engine.vector").value == 1
        assert registry.counter("replay.engine.scalar").value == 0

    def test_engine_choice_counted(self):
        registry = MetricsRegistry()
        sim = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4), metrics=registry
        )
        trace = random_trace(np.random.default_rng(4), n_events=200)
        sim.simulate_dynamic(trace, self.params())
        assert registry.counter("replay.engine.vector").value == 1
        assert registry.counter("replay.engine.scalar").value == 0

    def test_competitive_runs_on_both_engines(self):
        trace = random_trace(np.random.default_rng(5), n_events=100)
        results = {}
        for engine in ("scalar", "vector"):
            sim = TracePolicySimulator(
                PolicySimConfig(n_cpus=8, n_nodes=4, engine=engine)
            )
            results[engine] = sim.simulate_competitive(trace).to_dict()
        assert results["scalar"] == results["vector"]
        # auto picks the vector competitive path.
        registry = MetricsRegistry()
        auto = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4), metrics=registry
        )
        assert auto.simulate_competitive(trace).label == "Competitive"
        assert registry.counter("replay.engine.competitive.vector").value == 1
