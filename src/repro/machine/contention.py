"""Utilisation-window contention model shared by controllers and links.

The full-system simulator works at cache-miss granularity with weighted
records, so strict busy-until queuing would over-serialise (a weight-w
record stands for w misses *spread over* w miss latencies from a single
CPU, not w back-to-back arrivals).  Instead each shared resource tracks the
occupancy work offered to it in fixed windows of simulated time and charges
an M/M/1-style queuing delay based on the utilisation of the previous
window:

    delay_per_request = occupancy * rho / (1 - rho)

with ``rho`` capped below 1.  Using the *previous* window keeps the model
deterministic and independent of intra-window event order: every request
in a window is charged the same per-request delay (:meth:`rho_at`), and
integral work offered within one window sums to the same total in any
order, so a window's requests may be offered one by one or all at once.
The same object reports the statistics Section 7.1.2 quotes: request
counts, time-averaged queue length and maximum observed occupancy
(utilisation).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError


def queue_delay(occupancy_ns: float, rho):
    """Per-request queuing delay at utilisation ``rho`` (below 1).

    ``rho`` may be a numpy array: each element gets the same float
    operations, so a table of delays holds exactly the scalar values.
    """
    return occupancy_ns * rho / (1.0 - rho)


class UtilisationWindow:
    """Occupancy-driven queuing model for one shared resource."""

    def __init__(
        self,
        window_ns: int = 1_000_000,
        max_utilisation: float = 0.95,
    ) -> None:
        if window_ns <= 0:
            raise ConfigurationError("window must be positive")
        if not 0.0 < max_utilisation < 1.0:
            raise ConfigurationError("max_utilisation must lie in (0, 1)")
        self._window_ns = window_ns
        self._max_rho = max_utilisation
        self._window_index = 0
        self._work_in_window = 0.0
        self._prev_rho = 0.0
        # statistics
        self.requests = 0
        self.total_busy_ns = 0.0
        self._rho_max = 0.0
        self._queue_area = 0.0     # integral of queue length over time

    # -- internal -------------------------------------------------------------

    def _advance(self, now: int) -> None:
        index = now // self._window_ns
        if index == self._window_index:
            return
        # Close out current window.
        rho = min(self._work_in_window / self._window_ns, self._max_rho)
        self._rho_max = max(self._rho_max, rho)
        queue_len = rho / (1.0 - rho)
        self._queue_area += queue_len * self._window_ns
        # Any fully idle windows between contribute zero queue area.
        self._prev_rho = rho
        gap = index - self._window_index - 1
        if gap > 0:
            # Idle gap: previous utilisation decays to zero.
            self._prev_rho = 0.0
        self._window_index = index
        self._work_in_window = 0.0

    # -- public ----------------------------------------------------------------

    def offer(self, now: int, occupancy_ns: float, weight: int = 1) -> float:
        """Record ``weight`` requests each busying the resource for
        ``occupancy_ns``; return the queuing delay charged *per request*.
        """
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        if occupancy_ns < 0:
            raise ConfigurationError("occupancy must be non-negative")
        self.charge(now, occupancy_ns * weight, weight)
        return queue_delay(occupancy_ns, self._prev_rho)

    def charge(self, now: int, work_ns: float, requests: int) -> None:
        """Record ``requests`` requests in ``now``'s window that together
        busy the resource for ``work_ns``.

        Charging a window's requests at once matches offering them one
        by one exactly when the work is integral (sums below 2**53 are
        then exact in any order).  Windows must be charged in time order.
        """
        self._advance(now)
        self._work_in_window += work_ns
        self.requests += requests
        self.total_busy_ns += work_ns

    def charge_windows(
        self, windows: np.ndarray, work_ns: np.ndarray, requests: np.ndarray
    ) -> None:
        """:meth:`charge` ``work_ns[k]`` and ``requests[k]`` in window
        ``windows[k]`` (window indices, ascending), for every ``k``.

        Bit for bit the same state as one :meth:`charge` per window: the
        windows that close are folded into the statistics left to right.
        """
        if not len(windows):
            return
        size, cap = self._window_ns, self._max_rho
        work = np.asarray(work_ns, dtype=np.float64)
        busy = work.copy()
        busy[0] += self.total_busy_ns
        self.total_busy_ns = float(np.cumsum(busy)[-1])
        self.requests += int(np.sum(requests))
        if windows[0] == self._window_index:
            work[0] += self._work_in_window      # the open window goes on
            closed, index = work[:-1], windows[:-1]
        else:
            closed = np.concatenate(([self._work_in_window], work[:-1]))
            index = np.concatenate(([self._window_index], windows[:-1]))
        if len(closed):
            rho = np.minimum(closed / size, cap)
            self._rho_max = max(self._rho_max, float(rho.max()))
            area = rho / (1.0 - rho) * size
            area[0] += self._queue_area
            self._queue_area = float(np.cumsum(area)[-1])
            # An idle gap before the last window decays it to zero.
            follows = windows[-1] - index[-1] == 1
            self._prev_rho = float(rho[-1]) if follows else 0.0
        self._window_index = int(windows[-1])
        self._work_in_window = float(work[-1])

    def open_work(self, window: int) -> float:
        """Work charged so far in ``window`` (0 unless it is the open one)."""
        return self._work_in_window if window == self._window_index else 0.0

    def rho_at(self, now: int) -> float:
        """Utilisation that sets every delay charged in ``now``'s window.

        Read-only: the window holding ``now`` is not opened.  Exact for
        any ``now`` no earlier than the last charged window.
        """
        index = now // self._window_ns
        if index == self._window_index:
            return self._prev_rho
        if index == self._window_index + 1:
            return min(self._work_in_window / self._window_ns, self._max_rho)
        return 0.0

    def utilisation(self) -> float:
        """Utilisation of the most recently completed window."""
        return self._prev_rho

    @property
    def max_utilisation_seen(self) -> float:
        """Highest window utilisation observed so far."""
        return self._rho_max

    def register_metrics(self, registry, name: str) -> None:
        """Expose this resource's statistics under ``name`` in a registry.

        Registration is callback-based, so the hot :meth:`offer` path is
        untouched; values are read when the registry collects.
        """
        registry.register_callback(f"{name}.requests", lambda: self.requests)
        registry.register_callback(
            f"{name}.total_busy_ns", lambda: self.total_busy_ns
        )
        registry.register_callback(
            f"{name}.max_utilisation", lambda: self.max_utilisation_seen
        )

    def average_queue_length(self, now: int) -> float:
        """Time-averaged queue length over [0, now]."""
        if now <= 0:
            return 0.0
        # Include the (possibly partial) current window at its running rate.
        elapsed_in_window = now - self._window_index * self._window_ns
        area = self._queue_area
        if elapsed_in_window > 0:
            rho = min(
                self._work_in_window / max(elapsed_in_window, 1), self._max_rho
            )
            area += rho / (1.0 - rho) * elapsed_in_window
        return area / now
