"""Interconnect model: traversal accounting and queue statistics."""

import numpy as np
import pytest

from repro.machine.config import MachineConfig
from repro.machine.contention import queue_delay
from repro.machine.interconnect import Interconnect


@pytest.fixture
def net():
    return Interconnect(MachineConfig.flash_ccnuma())


def test_local_traversal_is_free(net):
    assert net.traverse(0, 2, 2) == 0.0
    assert net.remote_requests == 0


def test_remote_traversal_counts(net):
    net.traverse(0, 0, 1, weight=3)
    assert net.remote_requests == 3


def test_queue_length_grows_with_traffic(net):
    for t in range(0, 20_000_000, 2_000):
        net.traverse(t, 0, 1, weight=2)
    assert net.average_queue_length(20_000_000) > 0.0
    assert net.max_link_utilisation() > 0.0


def test_idle_network_stats(net):
    assert net.average_queue_length(1_000_000) == 0.0
    assert net.max_link_utilisation() == 0.0


def test_delay_appears_after_loaded_window(net):
    for t in range(0, 1_000_000, 200):
        net.traverse(t, 0, 1, weight=1)
    delay = net.traverse(1_000_001, 0, 1)
    assert delay > 0.0


def test_window_charge_equals_traversals():
    machine = MachineConfig.flash_ccnuma()
    one_by_one, at_once = Interconnect(machine), Interconnect(machine)
    for t in range(0, 1_000_000, 500):
        one_by_one.traverse(t, 0, 1, weight=2)
        at_once.traverse(t, 0, 1, weight=2)
    now = 1_000_100
    delays = [queue_delay(at_once.occupancy_ns, link.rho_at(now))
              for link in at_once.links]
    # Pairs (0 -> 1, weight 3), (2 -> 0, weight 1).
    assert one_by_one.traverse(now, 0, 1, 3) == delays[0] + delays[1]
    assert one_by_one.traverse(now, 2, 0, 1) == delays[2] + delays[0]
    at_once.charge_windows(np.array([1]), np.array([[4, 3, 1, 0, 0, 0, 0, 0]]))
    assert at_once.remote_requests == one_by_one.remote_requests
    end = 3_000_000
    assert at_once.average_queue_length(end) == one_by_one.average_queue_length(end)
    assert at_once.max_link_utilisation() == one_by_one.max_link_utilisation()
