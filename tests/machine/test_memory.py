"""NUMA memory system: latencies, locality accounting, contention stats.

The per-miss cases run through :meth:`NumaMemorySystem.service_record`,
the reference; the window cases check :meth:`latency_table` and
:meth:`service_miss` against it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import MachineConfig
from repro.machine.memory import NumaMemorySystem

WINDOW_NS = 1_000_000


@pytest.fixture
def memory():
    return NumaMemorySystem(MachineConfig.flash_ccnuma())


def test_local_miss_minimum_latency(memory):
    latency, remote = memory.service_record(0, cpu=0, home_node=0)
    assert not remote
    assert latency >= 300
    assert latency == pytest.approx(300, abs=50)


def test_remote_miss_minimum_latency(memory):
    latency, remote = memory.service_record(0, cpu=0, home_node=5)
    assert remote
    assert latency >= 1200


def test_miss_counting(memory):
    memory.service_record(0, 0, 0, weight=10)
    memory.service_record(0, 0, 3, weight=5)
    assert memory.local_misses == 10
    assert memory.remote_misses == 5
    assert memory.total_misses == 15
    assert memory.local_fraction == pytest.approx(10 / 15)


def test_remote_handler_invocations(memory):
    memory.service_record(0, 0, 1, weight=7)
    memory.service_record(0, 0, 0, weight=3)
    assert memory.remote_handler_invocations == 7


def test_contention_raises_latency():
    machine = MachineConfig.flash_ccnuma()
    loaded = NumaMemorySystem(machine)
    # Load node 0's controller hard for a while.
    for t in range(0, 10_000_000, 1000):
        loaded.service_record(t, cpu=1, home_node=0, weight=4)
    late, _ = loaded.service_record(10_000_000, cpu=1, home_node=0)
    assert late > 1200


def test_quiet_node_unaffected_by_busy_node():
    machine = MachineConfig.flash_ccnuma()
    memory = NumaMemorySystem(machine)
    for t in range(0, 5_000_000, 1000):
        memory.service_record(t, cpu=1, home_node=0, weight=4)
    # Node 7 never saw traffic: local miss there is at minimum.
    latency, _ = memory.service_record(5_000_000, cpu=7, home_node=7)
    assert latency == 300


def test_average_latencies_tracked(memory):
    memory.service_record(0, 0, 0, weight=2)
    memory.service_record(0, 0, 4, weight=2)
    assert memory.average_local_latency() >= 300
    assert memory.average_remote_latency() >= 1200


def test_zero_network_config_remote_equals_local_base():
    machine = MachineConfig.zero_network()
    memory = NumaMemorySystem(machine)
    latency, _ = memory.service_record(0, cpu=0, home_node=5)
    # Remote minimum collapses to the local latency (only contention differs).
    assert latency == pytest.approx(300, abs=50)


def test_max_controller_occupancy_grows_under_load():
    machine = MachineConfig.flash_ccnuma()
    memory = NumaMemorySystem(machine)
    assert memory.max_controller_occupancy() == 0.0
    for t in range(0, 3_000_000, 500):
        memory.service_record(t, cpu=2, home_node=0, weight=4)
    assert memory.max_controller_occupancy() > 0.1


# -- the window API against the per-miss reference ---------------------------

#: (time, cpu, home node, weight) over three busy windows, an idle gap of
#: two windows, and one more busy window.
RECORDS = [
    (t, cpu, home, weight)
    for window in (0, 1, 2, 5)
    for step, (cpu, home, weight) in enumerate(
        [(0, 0, 4), (1, 0, 3), (2, 5, 2), (5, 2, 6), (7, 7, 1), (3, 0, 5)] * 40
    )
    for t in [window * WINDOW_NS + step * 4_000]
]


def _state(memory, now):
    return {
        "local": memory.local_latency.to_dict(),
        "remote": memory.remote_latency.to_dict(),
        "counts": (memory.local_misses, memory.remote_misses,
                   memory.remote_handler_invocations,
                   memory.interconnect.remote_requests),
        "controllers": [
            (c.requests, c.total_busy_ns, c.max_utilisation_seen,
             c.average_queue_length(now))
            for c in memory._controllers
        ],
        "network": (memory.average_network_queue_length(now),
                    memory.interconnect.max_link_utilisation()),
    }


def _reference(records):
    memory = NumaMemorySystem(MachineConfig.flash_ccnuma())
    latencies = [memory.service_record(t, cpu, home, weight)[0]
                 for t, cpu, home, weight in records]
    return memory, latencies


def _columns(memory, records):
    n = memory.n_nodes
    times = np.array([t for t, _, _, _ in records], dtype=np.int64)
    pairs = np.array([memory.config.node_of_cpu(cpu) * n + home
                      for _, cpu, home, _ in records], dtype=np.int64)
    weights = np.array([w for _, _, _, w in records], dtype=np.int64)
    return times, pairs, weights


def _windowed(records, cuts=()):
    """Charge ``records`` in runs that end before each index in ``cuts``."""
    memory = NumaMemorySystem(MachineConfig.flash_ccnuma())
    times, pairs, weights = _columns(memory, records)
    bounds = [0, *cuts, len(records)]
    latencies = []
    for start, stop in zip(bounds, bounds[1:]):
        latencies += memory.service_miss(
            times[start:stop], pairs[start:stop], weights[start:stop]
        ).tolist()
    return memory, latencies


#: Runs cut mid-window, on window edges and around the idle gap.
CUTS = (60, 120, 121, 300, 360, 361, 420)


def test_window_charge_equals_per_miss_reference():
    reference, expected = _reference(RECORDS)
    windowed, latencies = _windowed(RECORDS)
    assert latencies == expected
    assert _state(windowed, 7_000_000) == _state(reference, 7_000_000)


def test_second_charge_in_the_same_window_equals_one():
    once, _ = _windowed(RECORDS)
    twice, latencies = _windowed(RECORDS, cuts=CUTS)
    assert latencies == _reference(RECORDS)[1]
    assert _state(twice, 7_000_000) == _state(once, 7_000_000)


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 999_999),
                  st.integers(0, 7), st.integers(0, 7),
                  st.integers(1, 500)),
        min_size=1, max_size=80,
    ),
    cuts=st.lists(st.integers(1, 79), max_size=4, unique=True),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_runs_equal_per_miss_reference(rows, cuts):
    """Any windows, weights and run cuts give the reference's state."""
    records = sorted((window * WINDOW_NS + offset, cpu, home, weight)
                     for window, offset, cpu, home, weight in rows)
    cuts = sorted(cut for cut in cuts if cut < len(records))
    reference, expected = _reference(records)
    windowed, latencies = _windowed(records, cuts=cuts)
    assert latencies == expected
    assert _state(windowed, 8_000_000) == _state(reference, 8_000_000)


def test_empty_run_charges_nothing(memory):
    empty = np.zeros(0, dtype=np.int64)
    assert len(memory.service_miss(empty, empty, empty)) == 0
    assert memory.total_misses == 0


def test_table_holds_each_pairs_latency():
    reference, _ = _reference(RECORDS[:120])      # window 0 only
    windowed, _ = _windowed(RECORDS[:120])
    table = windowed.latency_table(WINDOW_NS)
    assert windowed.latency_table(WINDOW_NS + 5) is table
    n = windowed.n_nodes
    for cpu_node in range(n):
        for home in range(n):
            latency, _ = reference.service_record(WINDOW_NS, cpu_node, home)
            assert table[cpu_node * n + home] == latency


def test_first_table_is_the_minimum_latencies(memory):
    table = memory.latency_table(0)
    n = memory.n_nodes
    assert [table[node * (n + 1)] for node in range(n)] == [300] * n
    assert {table[pair] for pair in range(n * n) if pair % (n + 1)} == {1200}


def test_idle_gap_window_sees_no_contention():
    windowed, _ = _windowed(RECORDS[:360])        # windows 0, 1 and 2
    assert max(windowed.latency_table(2 * WINDOW_NS + 1)) > 1200
    # Window 5 follows two idle windows: minimum latencies again.
    table = windowed.latency_table(5 * WINDOW_NS)
    assert max(table) == 1200 and min(table) == 300
