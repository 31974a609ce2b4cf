"""Utilisation-window contention model."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.machine.contention import (
    UtilisationWindow,
    queue_delay,
)


def test_idle_resource_has_no_delay():
    w = UtilisationWindow(window_ns=1000)
    assert w.offer(0, 100) == 0.0  # first window: previous utilisation 0


def test_busy_window_produces_delay_in_next_window():
    w = UtilisationWindow(window_ns=1000, max_utilisation=0.95)
    # Fill window 0 to 50% utilisation.
    w.offer(0, 100, weight=5)
    # Window 1 sees rho=0.5 -> delay = occupancy * 1.0
    delay = w.offer(1000, 100)
    assert delay == pytest.approx(100.0)


def test_utilisation_capped(self=None):
    w = UtilisationWindow(window_ns=1000, max_utilisation=0.9)
    w.offer(0, 1000, weight=100)      # overload
    delay = w.offer(1000, 100)
    assert delay == pytest.approx(100 * 0.9 / 0.1)


def test_idle_gap_resets_history():
    w = UtilisationWindow(window_ns=1000)
    w.offer(0, 500)                    # busy window 0
    # Skip windows 1-4 entirely, arrive in window 5.
    assert w.offer(5000, 100) == 0.0


def test_statistics_accumulate():
    w = UtilisationWindow(window_ns=1000)
    w.offer(0, 100, weight=3)
    w.offer(1500, 50)
    assert w.requests == 4
    assert w.total_busy_ns == pytest.approx(350.0)
    assert w.max_utilisation_seen >= 0.3


def test_average_queue_length_positive_under_load():
    w = UtilisationWindow(window_ns=1000)
    for i in range(10):
        w.offer(i * 1000, 600)         # 60% utilisation every window
    assert w.average_queue_length(10_000) > 0.5


def test_average_queue_length_zero_when_idle():
    w = UtilisationWindow(window_ns=1000)
    assert w.average_queue_length(0) == 0.0


def test_validation():
    with pytest.raises(ConfigurationError):
        UtilisationWindow(window_ns=0)
    with pytest.raises(ConfigurationError):
        UtilisationWindow(max_utilisation=1.5)
    w = UtilisationWindow()
    with pytest.raises(ConfigurationError):
        w.offer(0, -1)
    with pytest.raises(ConfigurationError):
        w.offer(0, 1, weight=0)


# -- the window-granular API ------------------------------------------------


def _state(w, now):
    return (w.requests, w.total_busy_ns, w.max_utilisation_seen,
            w.utilisation(), w.average_queue_length(now))


@pytest.mark.parametrize("now", [1000, 1500, 1999, 2000, 2500, 7000])
def test_rho_at_predicts_the_delay_offer_charges(now):
    w = UtilisationWindow(window_ns=1000)
    w.offer(0, 100, weight=3)
    w.offer(1200, 40, weight=5)
    rho = w.rho_at(now)
    before = _state(w, now)
    assert _state(w, now) == before            # rho_at is read-only
    assert w.offer(now, 70, weight=2) == queue_delay(70, rho)


def test_charge_equals_offers_in_the_same_window():
    offered, charged = UtilisationWindow(1000), UtilisationWindow(1000)
    for t, occupancy, weight in [(0, 100, 3), (10, 60, 2), (999, 100, 1)]:
        offered.offer(t, occupancy, weight)
    charged.charge(500, 100 * 3 + 60 * 2 + 100 * 1, 6)
    offered.offer(1500, 10)
    charged.offer(1500, 10)
    assert _state(charged, 2500) == _state(offered, 2500)


def test_queue_delay_of_an_array_matches_each_scalar():
    rhos = [0.0, 0.25, 0.5, 0.95]
    assert queue_delay(90, np.array(rhos)).tolist() == [
        queue_delay(90, rho) for rho in rhos
    ]


@pytest.mark.parametrize("windows", [
    [2, 3, 4], [3, 4, 9, 10], [2], [3], [5, 6], [2, 7],
])
def test_charge_windows_equals_one_charge_per_window(windows):
    """Runs that go on with the open window, follow it or leave a gap."""
    one_by_one, at_once = UtilisationWindow(1000), UtilisationWindow(1000)
    for w in (one_by_one, at_once):
        w.charge(2500, 700, 3)                    # window 2 is open
    work, requests = [300 * (k + 1) for k in range(len(windows))], [
        k + 2 for k in range(len(windows))]
    for window, busy, count in zip(windows, work, requests):
        one_by_one.charge(window * 1000 + 10, busy, count)
    at_once.charge_windows(np.array(windows), np.array(work),
                           np.array(requests))
    for now in (11_000, 11_500, 30_000):
        assert _state(at_once, now) == _state(one_by_one, now)
        assert at_once.rho_at(now) == one_by_one.rho_at(now)
    assert at_once.open_work(windows[-1]) == one_by_one.open_work(windows[-1])
