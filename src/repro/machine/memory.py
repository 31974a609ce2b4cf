"""The NUMA memory system: per-node directory controllers and latencies.

A secondary-cache miss is serviced by the directory controller of the node
holding the frame ("home").  The latency charged is

    minimum latency (local or remote)
  + home controller queuing delay (utilisation model)
  + network queuing delay (for remote misses)

which reproduces the paper's observation that measured remote latency
(2279 ns) substantially exceeds the 1200 ns minimum because of controller
occupancy, and that improving locality lowers even *local* miss latency by
reducing contention (Section 7.1.2).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.common.stats import OnlineStats
from repro.machine.config import MachineConfig
from repro.machine.contention import UtilisationWindow, queue_delay
from repro.machine.interconnect import Interconnect


class NumaMemorySystem:
    """Latency and contention model for the machine's memory.

    A miss's latency depends only on the previous window's utilisation
    of the resources it touches, so within one window it is a constant
    per (requesting node, home node) pair, and a window's work depends
    only on its misses' pairs and weights.  :meth:`service_miss`
    therefore charges a run of misses window by window as numpy
    columns; :meth:`service_record` charges one miss at a time and is
    the reference it is checked against.
    """

    def __init__(self, config: MachineConfig, window_ns: int = 1_000_000) -> None:
        self.config = config
        self.window_ns = window_ns
        self.n_nodes = config.n_nodes
        self.interconnect = Interconnect(config, window_ns)
        mem = config.memory
        self._controllers: List[UtilisationWindow] = [
            UtilisationWindow(window_ns, config.network.max_utilisation)
            for _ in range(config.n_nodes)
        ]
        self._occupancy = mem.controller_occupancy_ns
        self._remote_extra = mem.remote_extra_occupancy_ns
        # Per node pair (rows, ``cpu_node * n_nodes + home``), what one
        # miss costs each node (columns): controller work, controller
        # requests and network-interface crossings.
        n = self.n_nodes
        self._work = np.zeros((n * n, n), dtype=np.int64)
        self._requests = np.zeros((n * n, n), dtype=np.int64)
        self._crossings = np.zeros((n * n, n), dtype=np.int64)
        for cpu_node in range(n):
            for home in range(n):
                pair = cpu_node * n + home
                self._requests[pair, home] += 1
                if cpu_node == home:
                    self._work[pair, home] += self._occupancy
                    continue
                self._work[pair, home] += self._occupancy + self._remote_extra
                # The requester-side controller forwards the request.
                self._work[pair, cpu_node] += self._remote_extra
                self._requests[pair, cpu_node] += 1
                self._crossings[pair, cpu_node] += 1
                self._crossings[pair, home] += 1
        self._table_window = -1
        self._table = np.zeros(n * n)
        # statistics
        self.local_latency = OnlineStats()
        self.remote_latency = OnlineStats()
        self.remote_handler_invocations = 0
        self.local_misses = 0
        self.remote_misses = 0

    # -- window-granular charging --------------------------------------------

    def latency_table(self, now: int) -> np.ndarray:
        """Per-miss latency of every node pair in ``now``'s window.

        Flat and indexed ``cpu_node * n_nodes + home_node``.  The table
        is built from the previous window's utilisation when a window is
        first asked for, and reused until the next one; windows must be
        charged in time order.
        """
        window = now // self.window_ns
        if window != self._table_window:
            rhos = [[c.rho_at(now) for c in self._controllers]]
            links = [[link.rho_at(now) for link in self.interconnect.links]]
            self._table = self._tables(np.array(rhos), np.array(links))[0]
            self._table_window = window
        return self._table

    def _tables(self, rhos: np.ndarray, link_rhos: np.ndarray) -> np.ndarray:
        """Latency tables, one row per window, from each window's
        controller and link utilisations (``(windows, n_nodes)`` each)."""
        n = self.n_nodes
        mem = self.config.memory
        occupancy, extra = self._occupancy, self._remote_extra
        home_local = queue_delay(occupancy, rhos)
        home_remote = queue_delay(occupancy + extra, rhos)
        forward = queue_delay(extra, rhos)
        links = queue_delay(self.interconnect.occupancy_ns, link_rhos)
        # [window, cpu_node, home], grouped as service_record sums them:
        # home, forward, then the two interface crossings.
        tables = mem.remote_ns + (
            (home_remote[:, None, :] + forward[:, :, None])
            + (links[:, :, None] + links[:, None, :])
        )
        nodes = np.arange(n)
        tables[:, nodes, nodes] = mem.local_ns + home_local
        return tables.reshape(len(rhos), n * n)

    def service_miss(
        self, times: np.ndarray, pairs: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Service a run of misses in time order; return their latencies.

        Miss ``i`` at ``times[i]`` stands for ``weights[i]`` identical
        misses of node pair ``pairs[i]`` (indexed as
        :meth:`latency_table` is).  Each window's latencies come from
        the previous window's work, the controllers and links are
        charged each window's work, and the latency statistics take
        every miss in order: bit for bit one :meth:`service_record` per
        miss, provided the occupancies are integral.  A run may go on
        with the window the previous run ended in.
        """
        if not len(times):
            return np.zeros(0)
        n, size = self.n_nodes, self.window_ns
        window = times // size
        starts = np.flatnonzero(np.diff(window)) + 1
        windows = window[np.r_[0, starts]]
        ordinal = np.zeros(len(times), dtype=np.int64)
        ordinal[starts] = 1
        np.cumsum(ordinal, out=ordinal)
        n_windows = len(windows)
        load = np.bincount(
            ordinal * (n * n) + pairs, weights=weights,
            minlength=n_windows * n * n,
        ).reshape(n_windows, n * n).astype(np.int64)
        work = load @ self._work
        requests = load @ self._requests
        crossings = load @ self._crossings

        # Each window's table: the first from the live state, the rest
        # from the previous window's work, or none after an idle gap.
        tables = np.empty((n_windows, n * n))
        tables[0] = self.latency_table(int(times[0]))
        if n_windows > 1:
            cap = self.config.network.max_utilisation
            last = work[:-1].astype(np.float64)
            last_crossings = (self.interconnect.occupancy_ns
                              * crossings[:-1]).astype(np.float64)
            # The first window may go on with work charged earlier.
            last[0] += [c.open_work(windows[0]) for c in self._controllers]
            last_crossings[0] += [link.open_work(windows[0])
                                  for link in self.interconnect.links]
            follows = (np.diff(windows) == 1)[:, None]
            rhos = np.where(follows, np.minimum(last / size, cap), 0.0)
            link_rhos = np.where(
                follows, np.minimum(last_crossings / size, cap), 0.0
            )
            tables[1:] = self._tables(rhos, link_rhos)
        self._table, self._table_window = tables[-1], int(windows[-1])
        latency = tables[ordinal, pairs]

        for node, controller in enumerate(self._controllers):
            busy = requests[:, node] > 0
            if busy.any():
                controller.charge_windows(
                    windows[busy], work[busy, node], requests[busy, node]
                )
        self.interconnect.charge_windows(windows, crossings)
        remote = pairs // n != pairs % n
        local = ~remote
        remote_weight = int(weights[remote].sum())
        self.local_misses += int(weights[local].sum())
        self.remote_misses += remote_weight
        self.remote_handler_invocations += remote_weight
        self.local_latency.add_many(latency[local], weights[local])
        self.remote_latency.add_many(latency[remote], weights[remote])
        return latency

    # -- the per-miss reference ------------------------------------------------

    def service_record(
        self, now: int, cpu: int, home_node: int, weight: int = 1
    ) -> Tuple[float, bool]:
        """Service ``weight`` identical misses from ``cpu`` to ``home_node``.

        Returns ``(latency_ns, is_remote)``.  One call per miss: the
        reference that :meth:`service_miss` is checked against.
        """
        cpu_node = self.config.node_of_cpu(cpu)
        remote = cpu_node != home_node
        mem = self.config.memory
        occupancy = self._occupancy + (self._remote_extra if remote else 0)
        queue = self._controllers[home_node].offer(now, occupancy, weight)
        if remote:
            # The requester-side controller also does work to forward the
            # request (MAGIC runs a handler on both ends).
            queue += self._controllers[cpu_node].offer(
                now, self._remote_extra, weight
            )
            queue += self.interconnect.traverse(now, cpu_node, home_node, weight)
            base = mem.remote_ns
            self.remote_misses += weight
            self.remote_handler_invocations += weight
        else:
            base = mem.local_ns
            self.local_misses += weight
        latency = base + queue
        (self.remote_latency if remote else self.local_latency).add(
            latency, weight
        )
        return latency, remote

    # -- observability -----------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Register the memory system's statistics under ``machine.memory``.

        Counters are exposed as collect-time callbacks over the existing
        attributes and the live latency accumulators join a labeled
        histogram family, so servicing misses costs nothing extra.
        """
        registry.register_callback(
            "machine.memory.local_misses", lambda: self.local_misses
        )
        registry.register_callback(
            "machine.memory.remote_misses", lambda: self.remote_misses
        )
        registry.register_callback(
            "machine.memory.total_misses", lambda: self.total_misses
        )
        registry.register_callback(
            "machine.memory.local_fraction", lambda: self.local_fraction
        )
        registry.register_callback(
            "machine.memory.remote_handler_invocations",
            lambda: self.remote_handler_invocations,
        )
        registry.register_callback(
            "machine.memory.max_controller_occupancy",
            self.max_controller_occupancy,
        )
        family = registry.family("machine.memory.latency_ns")
        family.attach(self.local_latency, kind="local")
        family.attach(self.remote_latency, kind="remote")
        for node, controller in enumerate(self._controllers):
            controller.register_metrics(registry, f"machine.controller.node{node}")

    # -- section 7.1.2 statistics ------------------------------------------

    def max_controller_occupancy(self) -> float:
        """Highest directory-controller window utilisation observed."""
        return max((c.max_utilisation_seen for c in self._controllers), default=0.0)

    def average_network_queue_length(self, now: int) -> float:
        """Time-averaged interconnect queue length."""
        return self.interconnect.average_queue_length(now)

    def average_local_latency(self) -> float:
        """Mean serviced local-miss latency (ns)."""
        return self.local_latency.mean

    def average_remote_latency(self) -> float:
        """Mean serviced remote-miss latency (ns)."""
        return self.remote_latency.mean

    @property
    def total_misses(self) -> int:
        """All misses serviced so far."""
        return self.local_misses + self.remote_misses

    @property
    def local_fraction(self) -> float:
        """Fraction of misses satisfied from local memory."""
        total = self.total_misses
        return self.local_misses / total if total else 0.0
