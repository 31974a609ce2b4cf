"""Differential tests: the production replay vs the scalar reference.

The fastpath's whole contract is byte-identity — ``PolicySimResult``
(including ``extra`` floats) from :class:`TracePolicySimulator` must
match :class:`ReferenceTracePolicySimulator` exactly, not
approximately.  These tests hammer that contract with seeded-random
traces across trigger thresholds, reset intervals, sampling rates,
metric sources, initial placements (post-facto included), chunked
streaming, the competitive baseline and traced runs — where byte
identity extends to the event *log*, emitted through the batched
buffer of :mod:`repro.obs.batch` and compared unmasked.
"""

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.policy.metrics import (
    FULL_CACHE,
    FULL_TLB,
    SAMPLED_CACHE,
    SAMPLED_TLB,
)
from repro.policy.parameters import PolicyParameters
from repro.trace import fastpath
from repro.trace.policysim import (
    PolicySimConfig,
    PolicySimResult,
    ReferenceTracePolicySimulator,
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


#: The reference core first, then the production path.
SIMULATORS = (ReferenceTracePolicySimulator, TracePolicySimulator)


def run_pair(trace, params, metric=FULL_CACHE, initial=StaticPolicy.FIRST_TOUCH,
             n_cpus=8, n_nodes=4, driver_trace=None):
    results = []
    for cls in SIMULATORS:
        sim = cls(PolicySimConfig(n_cpus=n_cpus, n_nodes=n_nodes))
        results.append(sim.simulate_dynamic(
            trace, params, metric=metric, initial=initial,
            driver_trace=driver_trace,
        ).to_dict())
    return results


def traced_pair(run):
    """``run(sim)`` on a traced reference and production simulator.

    Returns ``[(result dict, event dicts)]`` per simulator, reference
    first; the logs are compared as they are, run-meta header included.
    """
    out = []
    for cls in SIMULATORS:
        sim = cls(
            PolicySimConfig(n_cpus=8, n_nodes=4),
            tracer=Tracer(capacity=1 << 20),
        )
        result = run(sim)
        out.append(
            (result.to_dict(), [e.to_dict() for e in sim.tracer.events()])
        )
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
        results = []
        for cls in SIMULATORS:
            sim = cls(PolicySimConfig(n_cpus=8, n_nodes=4))
            # Post-facto placement replays the stream twice, so it needs
            # a re-iterable chunk source; the others take a one-shot
            # iterator.
            source = (
                chunks if initial is StaticPolicy.POST_FACTO
                else iter(chunks)
            )
            results.append(sim.simulate_dynamic_chunks(
                source, params, initial=initial
            ).to_dict())
        reference, production = results
        assert reference == production

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_chunks", [3, 9])
    def test_chunked_tlb_metric_byte_identical(self, seed, n_chunks):
        # TLB-derived metrics stream the deriver's output through the
        # segmented engine (merged_tlb_stream); the reference core on
        # the whole trace is the oracle.
        rng = np.random.default_rng(600 + seed)
        trace = random_trace(rng)
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        chunked = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4)
        ).simulate_dynamic_chunks(
            iter(split_chunks(trace, n_chunks)), params, metric=FULL_TLB
        )
        reference = ReferenceTracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4)
        ).simulate_dynamic(trace, params, metric=FULL_TLB)
        assert chunked.to_dict() == reference.to_dict()

    def test_chunked_sampled_matches_full(self):
        rng = np.random.default_rng(77)
        trace = random_trace(rng)
        params = PolicyParameters(trigger_threshold=16, sharing_threshold=4)
        sim = TracePolicySimulator(PolicySimConfig(n_cpus=8, n_nodes=4))
        chunked = sim.simulate_dynamic_chunks(
            iter(split_chunks(trace, 5)), params, metric=SAMPLED_CACHE
        )
        reference = ReferenceTracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4)
        ).simulate_dynamic(trace, params, metric=SAMPLED_CACHE)
        assert chunked.to_dict() == reference.to_dict()


class TestStreamEntryPoint:
    """``replay_stream_vector`` replays both streamed batch shapes."""

    def replay(self, batches, label):
        result = PolicySimResult(label=label)
        fastpath.replay_stream_vector(
            PolicySimConfig(n_cpus=8, n_nodes=4), batches,
            PolicyParameters(trigger_threshold=16, sharing_threshold=4),
            result, initial_kind="ft",
        )
        return result.to_dict()

    def reference(self, trace, metric=FULL_CACHE):
        return ReferenceTracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4)
        ).simulate_dynamic(
            trace, PolicyParameters(trigger_threshold=16, sharing_threshold=4),
            metric=metric,
        ).to_dict()

    def test_chunks_with_all_true_masks_replay_the_whole_trace(self):
        trace = random_trace(np.random.default_rng(4), n_events=800)
        batches = []
        for chunk in split_chunks(trace, 4) + [trace.select(
            np.zeros(len(trace), dtype=bool)
        )]:
            ones = np.ones(len(chunk), dtype=bool)
            batches.append((chunk.time_ns, chunk.cpu, chunk.page,
                            chunk.weight, chunk.is_write, ones, ones))
        expected = self.reference(trace)
        assert self.replay(iter(batches), expected["label"]) == expected

    def test_merged_tlb_batches_split_cost_from_count(self):
        from repro.trace.tlbsim import merged_tlb_stream

        trace = random_trace(np.random.default_rng(5), n_events=800)
        batches = (
            (*columns, costmask, ~costmask)
            for *columns, costmask in merged_tlb_stream(
                split_chunks(trace, 3), n_cpus=8
            )
        )
        expected = self.reference(trace, metric=FULL_TLB)
        assert self.replay(batches, expected["label"]) == expected


class TestDifferentialTraced:
    """Byte identity extends to the event log, not just the result."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("pidx", [0, 2])
    def test_traced_event_logs_byte_identical(self, seed, pidx):
        rng = np.random.default_rng(3000 * seed + pidx)
        trace = random_trace(rng, n_events=2500)
        params = PolicyParameters(**PARAM_GRID[pidx])
        reference, production = traced_pair(
            lambda sim: sim.simulate_dynamic(trace, params)
        )
        assert reference[0] == production[0]
        assert reference[1] == production[1]

    @pytest.mark.parametrize("n_chunks", [3, 7])
    def test_traced_chunked_event_logs(self, n_chunks):
        # Chunk boundaries mid-interval: the traced cold-page set-aside
        # must dedupe against counters the boundary writeback already
        # put in the bank, or IntervalReset.tracked_pages drifts.
        rng = np.random.default_rng(77)
        trace = random_trace(rng, n_events=2500)
        params = PolicyParameters(trigger_threshold=8, sharing_threshold=2)
        reference, production = traced_pair(
            lambda sim: sim.simulate_dynamic_chunks(
                iter(split_chunks(trace, n_chunks)), params
            )
        )
        assert reference == production

    def test_traced_tlb_metric_event_logs(self):
        rng = np.random.default_rng(31)
        trace = random_trace(rng, n_events=2000)
        params = PolicyParameters(trigger_threshold=8, sharing_threshold=2)
        reference, production = traced_pair(
            lambda sim: sim.simulate_dynamic(trace, params, metric=FULL_TLB)
        )
        assert reference == production


class TestDifferentialCompetitive:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("initial", [
        StaticPolicy.FIRST_TOUCH, StaticPolicy.ROUND_ROBIN,
        StaticPolicy.POST_FACTO,
    ])
    def test_competitive_byte_identical(self, seed, initial):
        rng = np.random.default_rng(4000 + seed)
        trace = random_trace(rng, n_events=3000)
        reference, production = (
            cls(PolicySimConfig(n_cpus=8, n_nodes=4)).simulate_competitive(
                trace, initial=initial
            ).to_dict()
            for cls in SIMULATORS
        )
        assert reference == production


class TestReferenceSimulator:
    """The reference shares every step but the replay with production."""

    def params(self):
        return PolicyParameters(trigger_threshold=16, sharing_threshold=4)

    def test_traced_production_matches_untraced_reference(self):
        # Tracing changes nothing on the production path: its result
        # equals the reference core's untraced one.
        trace = random_trace(np.random.default_rng(3), n_events=500)
        traced = TracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4),
            tracer=Tracer(capacity=1 << 16),
        ).simulate_dynamic(trace, self.params())
        plain = ReferenceTracePolicySimulator(
            PolicySimConfig(n_cpus=8, n_nodes=4)
        ).simulate_dynamic(trace, self.params())
        assert traced.to_dict() == plain.to_dict()

    def test_run_meta_header_is_shared(self):
        trace = random_trace(np.random.default_rng(0), n_events=200)
        reference, production = traced_pair(
            lambda sim: sim.simulate_dynamic(trace, self.params())
        )
        headers = [log[1][0] for log in (reference, production)]
        assert headers[0] == headers[1]
        assert headers[0]["kind"] == "run-meta"
        assert "engine" not in headers[0]

    def test_competitive_labels_match(self):
        trace = random_trace(np.random.default_rng(5), n_events=100)
        reference, production = (
            cls(PolicySimConfig(n_cpus=8, n_nodes=4)).simulate_competitive(
                trace
            )
            for cls in SIMULATORS
        )
        assert reference.to_dict() == production.to_dict()
        assert production.label == "Competitive"
