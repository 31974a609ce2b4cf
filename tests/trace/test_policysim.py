"""Trace-driven policy simulator (Section 8)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.policy.metrics import FULL_TLB, SAMPLED_CACHE
from repro.policy.parameters import PolicyParameters
from repro.trace.policysim import (
    PolicySimConfig,
    PolicySimResult,
    StaticPolicy,
    TracePolicySimulator,
)
from repro.trace.record import TraceBuilder


def build(rows):
    b = TraceBuilder()
    for r in rows:
        b.append(*r)
    return b.build()


def fast_params(**kw):
    kw.setdefault("trigger_threshold", 20)
    kw.setdefault("sharing_threshold", 5)
    return PolicyParameters(**kw)


@pytest.fixture
def sim():
    return TracePolicySimulator(
        PolicySimConfig(n_cpus=4, n_nodes=4, decision_delay_ns=10)
    )


class TestConfig:
    def test_defaults_match_section_8(self):
        cfg = PolicySimConfig()
        assert cfg.local_ns == 300
        assert cfg.remote_ns == 1200
        assert cfg.op_cost_ns == 350_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PolicySimConfig(n_cpus=0)
        with pytest.raises(ConfigurationError):
            PolicySimConfig(local_ns=0)
        with pytest.raises(ConfigurationError):
            PolicySimConfig(local_ns=500, remote_ns=400)
        with pytest.raises(ConfigurationError):
            PolicySimConfig(op_cost_ns=-1)


class TestStatic:
    def test_ft_makes_single_toucher_local(self, sim):
        trace = build([(t, 1, 0, 0, 10) for t in range(5)])
        result = sim.simulate_static(trace, StaticPolicy.FIRST_TOUCH)
        assert result.local_fraction == 1.0
        assert result.stall_ns == 50 * 300

    def test_rr_spread(self, sim):
        # Page 1 lives on node 1 under RR; CPU 1 is local, CPU 0 remote.
        trace = build([(0, 0, 0, 1, 10), (1, 1, 0, 1, 10)])
        result = sim.simulate_static(trace, StaticPolicy.ROUND_ROBIN)
        assert result.local_fraction == pytest.approx(0.5)

    def test_static_has_no_overhead(self, sim, tiny_trace):
        result = sim.simulate_static(
            tiny_trace.select(tiny_trace.cpu < 4), StaticPolicy.FIRST_TOUCH
        )
        assert result.overhead_ns == 0.0
        assert result.migrations == 0


class TestDynamicMigration:
    def test_moved_process_data_migrates(self, sim):
        # One light first touch on cpu 0 (below the sharing threshold),
        # then the process moves to cpu 2 and hammers the page.
        rows = [(0, 0, 0, 0, 1)]
        rows += [(1000 + t, 2, 0, 0, 10) for t in range(0, 300, 10)]  # moved
        trace = build(rows)
        result = sim.simulate_dynamic(trace, fast_params())
        assert result.migrations == 1
        assert result.overhead_ns == 350_000
        # Later misses from cpu 2 became local.
        assert result.local_fraction > 0.5

    def test_migrate_threshold_limits_ping_pong(self, sim):
        rows = []
        for burst in range(4):
            cpu = burst % 2 + 1
            base = burst * 1000
            rows += [(base + t, cpu, cpu, 0, 30) for t in range(0, 50, 10)]
        trace = build(rows)
        params = fast_params(reset_interval_ns=10_000_000)  # single interval
        result = sim.simulate_dynamic(trace, params)
        assert result.migrations <= 1

    def test_migration_disabled_policy(self, sim):
        rows = [(t, 2, 0, 0, 30) for t in range(0, 100, 10)]
        trace = build(rows)
        result = sim.simulate_dynamic(
            trace, fast_params(enable_migration=False)
        )
        assert result.migrations == 0


class TestDynamicReplication:
    def shared_reads(self):
        rows = []
        for t in range(0, 400, 10):
            rows.append((t, 0, 0, 0, 10))
            rows.append((t + 1, 2, 2, 0, 10))
            rows.append((t + 2, 3, 3, 0, 10))
        return build(rows)

    def test_read_shared_page_replicates(self, sim):
        result = sim.simulate_dynamic(self.shared_reads(), fast_params())
        assert result.replications >= 1
        assert result.migrations == 0
        assert result.local_fraction > 0.6

    def test_write_collapses_replicas(self, sim):
        rows = []
        for t in range(0, 200, 10):
            rows.append((t, 0, 0, 0, 10))
            rows.append((t + 1, 2, 2, 0, 10))
        rows.append((500, 0, 0, 0, 1, True))          # a store
        rows += [(600 + t, 2, 2, 0, 10) for t in range(0, 100, 10)]
        result = sim.simulate_dynamic(build(rows), fast_params())
        assert result.collapses == 1

    def test_write_shared_page_untouched(self, sim):
        rows = []
        for t in range(0, 400, 10):
            rows.append((t, 0, 0, 0, 10, True))
            rows.append((t + 1, 2, 2, 0, 10, True))
        result = sim.simulate_dynamic(build(rows), fast_params())
        assert result.replications == 0
        assert result.migrations == 0
        assert result.no_actions >= 1


class TestMetrics:
    def test_sampled_cache_close_to_full(self, engineering):
        spec, trace = engineering
        sim = TracePolicySimulator(PolicySimConfig())
        user = trace.user_only()
        params = PolicyParameters.engineering_base()
        fc = sim.simulate_dynamic(user, params)
        sc = sim.simulate_dynamic(user, params, metric=SAMPLED_CACHE)
        assert sc.local_fraction == pytest.approx(fc.local_fraction, abs=0.08)

    def test_tlb_metric_worse_on_engineering(self, engineering):
        spec, trace = engineering
        sim = TracePolicySimulator(PolicySimConfig())
        user = trace.user_only()
        params = PolicyParameters.engineering_base()
        fc = sim.simulate_dynamic(user, params)
        tlb = sim.simulate_dynamic(user, params, metric=FULL_TLB)
        assert tlb.local_fraction < fc.local_fraction - 0.1

    def test_labels(self, sim, tiny_trace):
        trace = tiny_trace.select(tiny_trace.cpu < 4)
        assert sim.simulate_dynamic(trace, fast_params()).label == "Mig/Rep"
        assert (
            sim.simulate_dynamic(
                trace, fast_params(enable_replication=False)
            ).label
            == "Migr"
        )


class TestResultArithmetic:
    def test_run_time_composition(self):
        r = PolicySimResult(label="x", total_misses=10, local_misses=4,
                            stall_ns=1000.0, overhead_ns=200.0)
        assert r.remote_misses == 6
        assert r.local_fraction == pytest.approx(0.4)
        assert r.run_time_ns(other_ns=300.0) == pytest.approx(1500.0)

    def test_normalised_to(self):
        a = PolicySimResult(label="a", stall_ns=500.0)
        b = PolicySimResult(label="b", stall_ns=1000.0)
        assert a.normalised_to(b) == pytest.approx(0.5)


class TestCompetitiveBaseline:
    """The [BGW89] comparator (Section 2)."""

    def test_break_even_threshold(self, sim, tiny_trace):
        r = sim.simulate_competitive(tiny_trace.select(tiny_trace.cpu < 4))
        # 350us / (1200-300)ns ~ 389 misses to pay for one move.
        assert r.extra["break_even_misses"] == pytest.approx(389, abs=1)

    def test_hot_remote_page_eventually_moves(self, sim):
        rows = [(0, 0, 0, 0, 1)]
        rows += [(100 + t, 2, 2, 0, 100) for t in range(0, 1000, 100)]
        r = sim.simulate_competitive(build(rows))
        assert r.migrations + r.replications >= 1
        assert r.local_fraction > 0.4

    def test_unwritten_page_replicates(self, sim):
        rows = [(0, 0, 0, 0, 1)]
        rows += [(100 + t, 2, 2, 0, 200) for t in range(0, 500, 100)]
        r = sim.simulate_competitive(build(rows))
        assert r.replications >= 1
        assert r.migrations == 0

    def test_written_page_migrates_not_replicates(self, sim):
        rows = [(0, 0, 0, 0, 1, True)]
        rows += [(100 + t, 2, 2, 0, 200) for t in range(0, 500, 100)]
        r = sim.simulate_competitive(build(rows))
        assert r.migrations >= 1

    def test_thrashes_on_write_shared_pages(self, sim):
        """The selectivity argument of Section 2: competitive keeps paying
        for moves on a page that ping-pongs between writers."""
        rows = []
        t = 0
        for burst in range(16):
            cpu = [0, 2][burst % 2]
            rows.append((t, cpu, cpu, 0, 500, True))
            t += 100
        trace = build(rows)
        competitive = sim.simulate_competitive(trace)
        ours = sim.simulate_dynamic(
            trace, fast_params(trigger_threshold=400, sharing_threshold=100)
        )
        assert competitive.migrations + competitive.collapses > 3
        assert (
            ours.migrations + ours.replications + ours.collapses
            <= competitive.migrations + competitive.collapses
        )


class TestSerialization:
    def test_round_trip_from_real_run(self, sim):
        trace = build(
            [(t, t % 4, t % 4, t % 3, 10 + t) for t in range(40)]
        )
        original = sim.simulate_dynamic(trace, fast_params(), FULL_TLB)
        data = original.to_dict()
        assert data["kind"] == "trace"
        restored = PolicySimResult.from_dict(data)
        assert restored.to_dict() == data
        assert restored.local_fraction == original.local_fraction
        assert restored.run_time_ns() == original.run_time_ns()

    def test_json_safe(self):
        import json

        original = PolicySimResult(
            label="FT", total_misses=10, local_misses=4,
            stall_ns=9000.0, extra={"local_stall_ns": 1200.0},
        )
        data = json.loads(json.dumps(original.to_dict()))
        assert PolicySimResult.from_dict(data).to_dict() == original.to_dict()

    def test_schema_mismatch_raises(self):
        from repro.common.errors import ResultSchemaError

        data = PolicySimResult(label="FT").to_dict()
        data["schema_version"] = 0
        with pytest.raises(ResultSchemaError):
            PolicySimResult.from_dict(data)
        data = PolicySimResult(label="FT").to_dict()
        data["kind"] = "system"
        with pytest.raises(ResultSchemaError):
            PolicySimResult.from_dict(data)


class TestStreamingReplay:
    def chunked(self, trace, size):
        """Split a trace into time-ordered chunks of ``size`` records."""
        return [
            trace.select(slice(k, k + size))
            for k in range(0, len(trace), size)
        ]

    def test_chunked_equals_materialized(self, sim):
        trace = build(
            [(t * 10, t % 4, t % 2, t % 7, 5 + t % 11, t % 3 == 0)
             for t in range(200)]
        )
        full = sim.simulate_dynamic(trace, fast_params())
        for size in (1, 7, 50, 200, 500):
            streamed = sim.simulate_dynamic(
                self.chunked(trace, size), fast_params()
            )
            assert streamed.to_dict() == full.to_dict(), size

    def test_round_robin_initial_matches(self, sim):
        trace = build(
            [(t * 10, t % 4, 0, t % 9, 3) for t in range(120)]
        )
        full = sim.simulate_dynamic(
            trace, fast_params(), initial=StaticPolicy.ROUND_ROBIN
        )
        streamed = sim.simulate_dynamic(
            self.chunked(trace, 30), fast_params(),
            initial=StaticPolicy.ROUND_ROBIN,
        )
        assert streamed.to_dict() == full.to_dict()

    def test_sampled_cache_matches(self, sim):
        trace = build(
            [(t * 10, t % 4, 0, t % 9, 7) for t in range(150)]
        )
        full = sim.simulate_dynamic(trace, fast_params(), SAMPLED_CACHE)
        streamed = sim.simulate_dynamic(
            self.chunked(trace, 40), fast_params(), SAMPLED_CACHE
        )
        assert streamed.to_dict() == full.to_dict()

    def test_tlb_metric_matches(self, sim):
        trace = build(
            [(t * 10, t % 4, t % 2, t % 9, 6 + t % 5, t % 4 == 0)
             for t in range(150)]
        )
        full = sim.simulate_dynamic(trace, fast_params(), FULL_TLB)
        streamed = sim.simulate_dynamic(
            self.chunked(trace, 40), fast_params(), FULL_TLB
        )
        assert streamed.to_dict() == full.to_dict()

    def test_post_facto_initial_matches(self, sim):
        trace = build(
            [(t * 10, t % 4, 0, t % 9, 3) for t in range(120)]
        )
        full = sim.simulate_dynamic(
            trace, fast_params(), initial=StaticPolicy.POST_FACTO
        )
        streamed = sim.simulate_dynamic(
            self.chunked(trace, 30), fast_params(),
            initial=StaticPolicy.POST_FACTO,
        )
        assert streamed.to_dict() == full.to_dict()

    def test_empty_stream(self, sim):
        result = sim.simulate_dynamic(iter(()), fast_params())
        assert result.total_misses == 0

    def test_driver_trace_needs_a_whole_trace(self, sim):
        # A stream derives its TLB driver chunk by chunk; a separate
        # whole driver trace could not be merged with it.
        trace = build([(t * 10, t % 4, 0, t % 9, 3) for t in range(40)])
        with pytest.raises(ConfigurationError, match="whole trace"):
            sim.simulate_dynamic(
                self.chunked(trace, 10), fast_params(), FULL_TLB,
                driver_trace=trace,
            )
