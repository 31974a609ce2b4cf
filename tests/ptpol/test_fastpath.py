"""Differential tests: the production PT replay vs the scalar reference.

Same contract as :mod:`tests.trace.test_fastpath`, one level down the
translation path: results, tallies, replica tables and — when tracing —
the event *log* of :class:`PtPolicySimulator` must match
:class:`ReferencePtPolicySimulator` byte for byte, across all four
PT-family policies.  The workloads are seeded-random but shaped so
the policies actually act: skewed page popularity pushes walk counters
over the trigger (PT replications, co-placement arbitrations), and a
first-touch-on-node-0 / hammer-from-node-3 variant forces data
migrations through the PT-write propagation path.
"""

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.ptpol.sim import (
    PT_POLICIES,
    PtPolicySimulator,
    ReferencePtPolicySimulator,
    params_for_pt_policy,
)
from repro.ptpol.state import reconcile_events
from repro.trace.policysim import PolicySimConfig
from repro.trace.record import TraceBuilder


def skewed_trace(rng, n_events=3000, n_cpus=8, n_pages=2048,
                 span_ns=400_000_000):
    """Skewed page popularity, CPU biased per page: triggers fire."""
    b = TraceBuilder()
    times = np.sort(rng.integers(0, span_ns, size=n_events))
    hot = rng.integers(0, n_pages, size=12)
    for i in range(n_events):
        if rng.random() < 0.55:
            page = int(hot[rng.integers(0, len(hot))])
        else:
            page = int(rng.integers(0, n_pages))
        cpu = int((page + rng.integers(0, 3)) % n_cpus)
        b.append(int(times[i]), cpu, int(rng.integers(0, 4)), page,
                 weight=int(rng.integers(1, 9)),
                 is_write=bool(rng.random() < 0.3))
    return b.build(sort=False)


def remote_heavy_trace(rng, n_events=3000, n_cpus=8, n_pages=512,
                       span_ns=400_000_000):
    """First touch on node 0, then hammered from the last node."""
    b = TraceBuilder()
    times = np.sort(rng.integers(0, span_ns, size=n_events))
    hot = rng.integers(0, n_pages, size=10)
    seen = set()
    for i in range(n_events):
        if rng.random() < 0.7:
            page = int(hot[rng.integers(0, len(hot))])
        else:
            page = int(rng.integers(0, n_pages))
        if page not in seen:
            cpu = 0
            seen.add(page)
        else:
            cpu = int(rng.integers(n_cpus - 2, n_cpus))
        b.append(int(times[i]), cpu, int(rng.integers(0, 4)), page,
                 weight=int(rng.integers(1, 9)),
                 is_write=bool(rng.random() < 0.3))
    return b.build(sort=False)


#: The reference core first, then the production path.
SIMULATORS = (ReferencePtPolicySimulator, PtPolicySimulator)


def replay(policy, trace, cls, traced=False, trigger=24):
    config = PolicySimConfig(n_cpus=8, n_nodes=4, pt_span_pages=64)
    tracer = Tracer(capacity=1 << 20) if traced else None
    sim = cls(config=config, tracer=tracer)
    result = sim.simulate(trace, params_for_pt_policy(policy, trigger=trigger))
    events = [e.to_dict() for e in tracer.events()] if traced else None
    return result, sim.tally, sim.replicas, events


class TestDifferentialRandom:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("policy", PT_POLICIES)
    def test_skewed_byte_identical(self, seed, policy):
        trace = skewed_trace(np.random.default_rng(seed))
        rs, ts, reps_s, _ = replay(policy, trace, ReferencePtPolicySimulator)
        rv, tv, reps_v, _ = replay(policy, trace, PtPolicySimulator)
        assert vars(rs) == vars(rv)
        assert ts == tv
        assert vars(reps_s) == vars(reps_v)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("policy", ("ptmigr", "coplace"))
    def test_remote_heavy_migrations_byte_identical(self, seed, policy):
        trace = remote_heavy_trace(np.random.default_rng(100 + seed))
        rs, ts, reps_s, _ = replay(policy, trace, ReferencePtPolicySimulator)
        rv, tv, reps_v, _ = replay(policy, trace, PtPolicySimulator)
        assert vars(rs) == vars(rv)
        assert ts == tv
        assert vars(reps_s) == vars(reps_v)

    def test_actions_actually_fire(self):
        # Guard the suite's strength: the workloads must exercise the
        # trigger/arbitration paths, or identity proves nothing.
        trace = skewed_trace(np.random.default_rng(0), n_events=6000)
        _, tally, _, _ = replay("coplace", trace, PtPolicySimulator)
        assert tally.pt_replications > 0
        assert tally.arbitrations > 0
        migr = remote_heavy_trace(np.random.default_rng(4), n_events=6000)
        result, _, _, _ = replay("ptmigr", migr, PtPolicySimulator)
        assert result.hot_events > 0

    def test_boundary_straddling_migration(self):
        # A trigger late in one interval whose decision delay pushes
        # the migration across the reset boundary: the page moves at
        # the next interval's first record (the reset flush), then is
        # touched too lightly to re-trigger — so its post-migration
        # locality rides entirely on the cold bulk path.  The
        # regression the full-grid ptmigr cells first caught: the
        # engine's placement mirror must follow boundary-drained
        # migrations.
        ms = 1_000_000
        b = TraceBuilder()
        b.append(0, 0, 0, 0, weight=1)              # first touch: node 0
        b.append(80 * ms, 1, 1, 0, weight=30)       # node 1 hammers: arms
        b.append(130 * ms, 1, 1, 0, weight=1)       # next interval: light
        b.append(180 * ms, 1, 1, 0, weight=1)       # ...still local now
        trace = b.build(sort=False)
        out = []
        for cls in SIMULATORS:
            config = PolicySimConfig(
                n_cpus=2, n_nodes=2, pt_span_pages=4,
                decision_delay_ns=45 * ms,
            )
            sim = cls(config=config)
            params = params_for_pt_policy("ptmigr", trigger=24)
            result = sim.simulate(trace, params)
            out.append((vars(result), sim.tally))
        reference, production = out
        assert reference[0]["migrations"] == 1
        assert reference == production

    def test_empty_trace(self):
        empty = TraceBuilder().build()
        rs, ts, _, _ = replay("coplace", empty, ReferencePtPolicySimulator)
        rv, tv, _, _ = replay("coplace", empty, PtPolicySimulator)
        assert vars(rs) == vars(rv)
        assert ts == tv


class TestDifferentialTraced:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("policy", PT_POLICIES)
    def test_traced_event_logs_byte_identical(self, seed, policy):
        trace = skewed_trace(np.random.default_rng(200 + seed))
        rs, ts, _, es = replay(
            policy, trace, ReferencePtPolicySimulator, traced=True
        )
        rv, tv, _, ev = replay(
            policy, trace, PtPolicySimulator, traced=True
        )
        assert vars(rs) == vars(rv)
        assert ts == tv
        assert es == ev

    def test_production_stream_reconciles(self):
        trace = skewed_trace(np.random.default_rng(7), n_events=5000)
        config = PolicySimConfig(n_cpus=8, n_nodes=4, pt_span_pages=64)
        tracer = Tracer(capacity=1 << 20)
        sim = PtPolicySimulator(config=config, tracer=tracer)
        sim.simulate(trace, params_for_pt_policy("coplace", trigger=24))
        errors = reconcile_events(sim.tally, iter(tracer.events()))
        assert errors == []
