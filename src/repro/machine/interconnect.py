"""Interconnection network model.

Each node owns a network interface; a remote miss crosses the requester's
interface outbound and the home node's interface inbound (and the reply
crosses them the other way, folded into the same occupancy charge).  Link
occupancy drives utilisation-window queuing, which supplies the "average
network queue length for remote requests" statistic of Section 7.1.2.

``hop_ns`` is a pure propagation delay already included in the configured
minimum remote latency; this module only *adds* queuing delay beyond the
minimum and collects statistics.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.machine.config import MachineConfig
from repro.machine.contention import UtilisationWindow, queue_delays


class Interconnect:
    """Per-node network interfaces with utilisation-based queuing."""

    def __init__(self, config: MachineConfig, window_ns: int = 1_000_000) -> None:
        self.config = config
        net = config.network
        self._links: List[UtilisationWindow] = [
            UtilisationWindow(window_ns, net.max_utilisation)
            for _ in range(config.n_nodes)
        ]
        self._occupancy = net.link_occupancy_ns
        self.remote_requests = 0

    def traverse(self, now: int, src_node: int, dst_node: int, weight: int = 1) -> float:
        """Charge one remote request/reply pair; return added queuing delay (ns).

        ``src_node == dst_node`` is a local access and traverses nothing.
        """
        if src_node == dst_node:
            return 0.0
        self.remote_requests += weight
        delay = self._links[src_node].offer(now, self._occupancy, weight)
        delay += self._links[dst_node].offer(now, self._occupancy, weight)
        return delay

    def delays_at(self, now: int) -> List[float]:
        """Each node interface's per-crossing delay in ``now``'s window.

        A remote miss from node ``a`` to node ``b`` is charged
        ``delays[a] + delays[b]``, as :meth:`traverse` charges it.
        """
        return queue_delays(
            self._occupancy, [link.rho_at(now) for link in self._links]
        )

    def charge(self, now: int, crossings: Sequence[int]) -> None:
        """Charge a window's remote traffic at once.

        ``crossings[n]`` counts the remote requests through node ``n``'s
        interface; each request crosses two, so they sum to twice the
        requests.  Equal to one :meth:`traverse` per request.
        """
        occupancy = self._occupancy
        total = 0
        for link, requests in zip(self._links, crossings):
            if requests:
                link.charge(now, occupancy * requests, requests)
                total += requests
        self.remote_requests += total // 2

    def average_queue_length(self, now: int) -> float:
        """Mean of per-link time-averaged queue lengths."""
        if not self._links:
            return 0.0
        return sum(l.average_queue_length(now) for l in self._links) / len(self._links)

    def max_link_utilisation(self) -> float:
        """Highest window utilisation seen on any link."""
        return max((l.max_utilisation_seen for l in self._links), default=0.0)
