"""Static placements: RR, FT, PF and the vectorised stall evaluation.

First touch is checked against :func:`reference_first_touch`, the
per-record loop the ``np.unique`` form replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.parameters import PolicyParameters
from repro.policy.placement import (
    first_touch_placement,
    post_facto_placement,
    round_robin_placement,
    static_stall_ns,
)
from repro.trace.policysim import (
    PolicySimConfig,
    StaticPolicy,
    TracePolicySimulator,
)
from repro.trace.record import Trace, TraceBuilder
from repro.workloads import WORKLOAD_NAMES, build_spec, generate_trace


def build(rows):
    b = TraceBuilder()
    for r in rows:
        b.append(*r)
    return b.build()


def node_of_cpu(cpu):
    return cpu  # one CPU per node in these tests


def reference_first_touch(trace, n_nodes, node_of_cpu):
    """FT by a reverse pass over the records: the oracle."""
    n_pages = trace.max_page_id() + 1
    placement = np.zeros(max(n_pages, 1), dtype=np.int64)
    if not len(trace):
        return placement
    n_cpus = int(trace.cpu.max()) + 1
    cpu_nodes = np.asarray([node_of_cpu(c) for c in range(n_cpus)],
                           dtype=np.int64)
    first_idx = np.full(n_pages, -1, dtype=np.int64)
    pages = trace.page
    for i in range(len(pages) - 1, -1, -1):
        first_idx[pages[i]] = i
    touched = first_idx >= 0
    placement[touched] = cpu_nodes[trace.cpu[first_idx[touched]]]
    placement[~touched] = np.nonzero(~touched)[0] % max(n_nodes, 1)
    return placement


def assert_same_placement(got, want):
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestRoundRobin:
    def test_pages_cycle_over_nodes(self):
        trace = build([(0, 0, 0, p, 1) for p in range(8)])
        placement = round_robin_placement(trace, n_nodes=4)
        assert list(placement) == [0, 1, 2, 3, 0, 1, 2, 3]


class TestFirstTouch:
    def test_first_toucher_wins(self):
        trace = build([
            (0, 2, 0, 5, 1),     # cpu 2 touches page 5 first
            (10, 0, 0, 5, 99),   # cpu 0 hammers it later
        ])
        placement = first_touch_placement(trace, 4, node_of_cpu)
        assert placement[5] == 2

    def test_untouched_pages_fall_back_to_rr(self):
        trace = build([(0, 1, 0, 3, 1)])
        placement = first_touch_placement(trace, 4, node_of_cpu)
        assert placement[3] == 1
        assert placement[0] == 0     # page 0 untouched -> RR
        assert placement[2] == 2

    @pytest.mark.parametrize("rows, n_nodes, want", [
        ([], 4, [0]),                                   # empty trace
        ([(0, 3, 0, 0, 1)], 4, [3]),                    # one page
        ([(0, 1, 0, 0, 1), (1, 2, 0, 0, 1)], 4, [1]),   # one page, twice
        # gaps in the page ids: 1, 2, 4, 5 untouched -> RR
        ([(0, 3, 0, 6, 1), (1, 1, 0, 3, 1), (2, 2, 0, 0, 1)], 4,
         [2, 1, 2, 1, 0, 1, 3]),
        # the later toucher of a page never wins, whatever its weight
        ([(0, 2, 0, 1, 1), (1, 0, 0, 1, 500), (2, 0, 0, 0, 1),
          (3, 3, 0, 0, 1)], 4, [0, 2]),
        ([(0, 1, 0, 5, 1)], 2, [0, 1, 0, 1, 0, 1]),    # RR over 2 nodes
    ])
    def test_hand_cases_match_the_loop(self, rows, n_nodes, want):
        trace = build(rows)
        got = first_touch_placement(trace, n_nodes, node_of_cpu)
        assert_same_placement(
            got, reference_first_touch(trace, n_nodes, node_of_cpu))
        assert got.tolist() == want

    def test_equal_times_keep_record_order(self):
        # Records at one timestamp: the first in the trace is the toucher.
        trace = Trace(np.array([5, 5, 5]), np.array([2, 1, 3]),
                      np.zeros(3, dtype=np.int64), np.array([4, 4, 4]),
                      np.ones(3, dtype=np.int64), np.zeros(3, dtype=np.int64))
        assert first_touch_placement(trace, 4, node_of_cpu)[4] == 2

    def test_cpus_map_through_node_of_cpu(self):
        trace = build([(0, 5, 0, 0, 1), (1, 2, 0, 1, 1)])
        got = first_touch_placement(trace, 4, lambda cpu: cpu // 2)
        assert got.tolist() == [2, 1]

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workloads_match_the_loop(self, name):
        trace = generate_trace(build_spec(name, scale=0.02, seed=0))
        stream = trace.user_only()
        assert_same_placement(
            first_touch_placement(stream, 8, node_of_cpu),
            reference_first_touch(stream, 8, node_of_cpu),
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_traces_match_the_loop(self, data):
        n = data.draw(st.integers(0, 80))
        ints = lambda lo, hi: np.array(
            data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
            dtype=np.int64)
        trace = Trace(np.cumsum(ints(0, 2)), ints(0, 7),
                      np.zeros(n, dtype=np.int64), ints(0, 40), ints(1, 9),
                      np.zeros(n, dtype=np.int64))
        cpus_per_node = data.draw(st.sampled_from([1, 2, 4]))
        n_nodes = data.draw(st.integers(1, 8))
        to_node = lambda cpu: cpu // cpus_per_node
        assert_same_placement(
            first_touch_placement(trace, n_nodes, to_node),
            reference_first_touch(trace, n_nodes, to_node),
        )


class TestPostFacto:
    def test_heaviest_node_wins(self):
        trace = build([
            (0, 0, 0, 7, 10),
            (1, 3, 0, 7, 90),
        ])
        placement = post_facto_placement(trace, 4, node_of_cpu)
        assert placement[7] == 3

    def test_pf_never_worse_than_ft_or_rr(self):
        rng = np.random.default_rng(5)
        rows = [
            (int(t), int(rng.integers(0, 4)), 0, int(rng.integers(0, 30)),
             int(rng.integers(1, 50)))
            for t in range(300)
        ]
        trace = build(rows)
        results = {}
        for name, placement in [
            ("rr", round_robin_placement(trace, 4)),
            ("ft", first_touch_placement(trace, 4, node_of_cpu)),
            ("pf", post_facto_placement(trace, 4, node_of_cpu)),
        ]:
            stall, _ = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
            results[name] = stall
        assert results["pf"] <= results["ft"]
        assert results["pf"] <= results["rr"]


class _PlacementSpy(TracePolicySimulator):
    """Keeps the initial placement each dynamic replay starts from."""

    def _replay_batches(self, batches, params, result, placement, *rest):
        self.placement = placement
        super()._replay_batches(batches, params, result, placement, *rest)


class TestStreamedPostFacto:
    """A chunk stream's post-facto placement is the whole trace's."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_any_chunking_matches_the_whole_trace(self, data):
        n = data.draw(st.integers(0, 60))
        ints = lambda lo, hi: np.array(
            data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
            dtype=np.int64)
        # Small weights make ties between nodes common (the first node
        # wins); page ids with gaps take the RR fallback.
        trace = Trace(np.cumsum(ints(0, 3)), ints(0, 7),
                      np.zeros(n, dtype=np.int64), ints(0, 30), ints(1, 3),
                      np.zeros(n, dtype=np.int64))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        bounds = [0, *cuts, n]
        chunks = [trace.select(slice(lo, hi))
                  for lo, hi in zip(bounds, bounds[1:])]
        n_nodes = data.draw(st.sampled_from([1, 2, 4, 8]))
        config = PolicySimConfig(n_cpus=8, n_nodes=n_nodes)
        want = post_facto_placement(trace, n_nodes, config.node_of_cpu)
        for source in (chunks, lambda: iter(chunks)):
            sim = _PlacementSpy(config)
            sim.simulate_dynamic(source, PolicyParameters(),
                                 initial=StaticPolicy.POST_FACTO)
            assert_same_placement(sim.placement, want)


class TestStaticStall:
    def test_all_local(self):
        trace = build([(0, 1, 0, 0, 10)])
        placement = np.array([1])
        stall, local = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
        assert stall == 3000
        assert local == 1.0

    def test_all_remote(self):
        trace = build([(0, 1, 0, 0, 10)])
        placement = np.array([2])
        stall, local = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
        assert stall == 12000
        assert local == 0.0

    def test_mixed(self):
        trace = build([
            (0, 0, 0, 0, 5),
            (1, 1, 0, 0, 5),
        ])
        placement = np.array([0])
        stall, local = static_stall_ns(trace, placement, node_of_cpu, 300, 1200)
        assert stall == 5 * 300 + 5 * 1200
        assert local == pytest.approx(0.5)

    def test_empty_trace(self):
        trace = build([])
        stall, local = static_stall_ns(trace, np.array([0]), node_of_cpu, 300, 1200)
        assert stall == 0.0
        assert local == 0.0
