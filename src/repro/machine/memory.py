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

from repro.common.stats import OnlineStats
from repro.machine.config import MachineConfig
from repro.machine.contention import UtilisationWindow, queue_delays
from repro.machine.interconnect import Interconnect


class WindowMisses:
    """The misses of one window, gathered for one :meth:`service_miss`.

    ``pair_weights[k]`` sums the weights of node pair ``k`` (indexed as
    :meth:`NumaMemorySystem.latency_table` is); the four lists hold each
    local and each remote miss's latency and weight in record order.
    The replay loop appends to the lists directly; :meth:`add` is the
    same thing spelled out.
    """

    __slots__ = (
        "pair_weights", "local_ns", "local_weights",
        "remote_ns", "remote_weights",
    )

    def __init__(self, n_nodes: int) -> None:
        self.pair_weights: List[int] = [0] * (n_nodes * n_nodes)
        self.local_ns: List[float] = []
        self.local_weights: List[int] = []
        self.remote_ns: List[float] = []
        self.remote_weights: List[int] = []

    def add(self, pair: int, latency_ns: float, weight: int, remote: bool) -> None:
        """Append one (weighted) miss of node pair ``pair``."""
        self.pair_weights[pair] += weight
        if remote:
            self.remote_ns.append(latency_ns)
            self.remote_weights.append(weight)
        else:
            self.local_ns.append(latency_ns)
            self.local_weights.append(weight)

    def __len__(self) -> int:
        return len(self.local_ns) + len(self.remote_ns)

    def clear(self) -> None:
        """Empty every list in place (bound methods stay valid)."""
        self.pair_weights[:] = [0] * len(self.pair_weights)
        for column in (self.local_ns, self.local_weights,
                       self.remote_ns, self.remote_weights):
            column.clear()


class NumaMemorySystem:
    """Latency and contention model for the machine's memory.

    A miss's latency depends only on the previous window's utilisation
    of the resources it touches, so within one window it is a constant
    per (requesting node, home node) pair.  The full-system simulator
    therefore reads each miss's latency from :meth:`latency_table` and
    charges a window's misses at once through :meth:`service_miss`;
    :meth:`service_record` charges one miss at a time and is the
    reference both are checked against.
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
        self._table_window = -1
        self._table: List[float] = []
        # statistics
        self.local_latency = OnlineStats()
        self.remote_latency = OnlineStats()
        self.remote_handler_invocations = 0
        self.local_misses = 0
        self.remote_misses = 0

    # -- window-granular charging --------------------------------------------

    def latency_table(self, now: int) -> List[float]:
        """Per-miss latency of every node pair in ``now``'s window.

        Flat and indexed ``cpu_node * n_nodes + home_node``.  The table
        is built from the previous window's utilisation when a window is
        first asked for, and reused until the next one; windows must be
        charged in time order.
        """
        window = now // self.window_ns
        if window != self._table_window:
            self._table = self._build_table(now)
            self._table_window = window
        return self._table

    def _build_table(self, now: int) -> List[float]:
        mem = self.config.memory
        occupancy, extra = self._occupancy, self._remote_extra
        rhos = [c.rho_at(now) for c in self._controllers]
        home_local = queue_delays(occupancy, rhos)
        home_remote = queue_delays(occupancy + extra, rhos)
        forward = queue_delays(extra, rhos)
        links = self.interconnect.delays_at(now)
        local_ns, remote_ns = mem.local_ns, mem.remote_ns
        # Grouped as service_record sums them: home, forward, then the
        # two interface crossings.
        table = [
            remote_ns + (home + fwd + (out + into))
            for fwd, out in zip(forward, links)
            for home, into in zip(home_remote, links)
        ]
        for node, delay in enumerate(home_local):
            table[node * (self.n_nodes + 1)] = local_ns + delay
        return table

    def service_miss(self, now: int, misses: WindowMisses) -> None:
        """Charge ``misses``, all of ``now``'s window, at once.

        Controller and link work and the miss counters take the
        per-pair weight sums; the latency statistics take every miss in
        record order.  The outcome is bit for bit that of one
        :meth:`service_record` per miss, provided the misses' latencies
        came from this window's :meth:`latency_table` and the
        occupancies are integral.  A window may be charged in several
        calls.
        """
        n = self.n_nodes
        occupancy, extra = self._occupancy, self._remote_extra
        work = [0] * n
        requests = [0] * n
        crossings = [0] * n
        local = remote = 0
        for pair, weight in enumerate(misses.pair_weights):
            if not weight:
                continue
            cpu_node, home = divmod(pair, n)
            requests[home] += weight
            if cpu_node == home:
                work[home] += occupancy * weight
                local += weight
            else:
                work[home] += (occupancy + extra) * weight
                # The requester-side controller forwards the request.
                work[cpu_node] += extra * weight
                requests[cpu_node] += weight
                crossings[cpu_node] += weight
                crossings[home] += weight
                remote += weight
        for controller, node_work, node_requests in zip(
            self._controllers, work, requests
        ):
            if node_requests:
                controller.charge(now, node_work, node_requests)
        if remote:
            self.interconnect.charge(now, crossings)
        self.local_misses += local
        self.remote_misses += remote
        self.remote_handler_invocations += remote
        self.local_latency.add_many(misses.local_ns, misses.local_weights)
        self.remote_latency.add_many(misses.remote_ns, misses.remote_weights)

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
