"""Grouped-column folds shared by the vector replay engines.

The policy's two folds -- per-(page, CPU) miss counters that fire at a
trigger (Figure 1) and post-facto placement, the argmax of a
per-(page, node) miss table -- on numpy columns.  Weights are integers,
so every sum is exact in float64 below 2**53 and matches the scalar
engines' record-by-record accumulation in any order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def node_column(n_cpus: int, node_of_cpu: Callable[[int], int]) -> np.ndarray:
    """The ``int64`` CPU -> node column for CPUs ``0 .. n_cpus - 1``."""
    return np.fromiter(map(node_of_cpu, range(n_cpus)), np.int64, n_cpus)


def group_sums(keys: np.ndarray, weights=None):
    """``(ukeys, sums)``: the sorted distinct keys and their weight sums.

    Sums are ``float64``, as ``np.bincount`` gives them; without
    ``weights`` they are ``int64`` record counts.
    """
    ukeys, inverse = np.unique(keys, return_inverse=True)
    return ukeys, np.bincount(inverse, weights=weights, minlength=len(ukeys))


def pair_sums(a: np.ndarray, b: np.ndarray, n_b: int, weights=None):
    """``(ua, ub, sums)``: :func:`group_sums` over ``(a, b)`` pairs.

    ``b`` lies in ``[0, n_b)``; the pairs come out sorted ``a``-major.
    """
    ukeys, sums = group_sums(a * n_b + b, weights)
    return ukeys // n_b, ukeys % n_b, sums


def last_index(keys: np.ndarray):
    """``(ukeys, last)``: the sorted distinct keys and their last positions.

    ``np.unique`` sorts stably for ``return_index``, so over the
    reversed column it gives each key's last occurrence in column
    (record) order.
    """
    ukeys, first = np.unique(keys[::-1], return_index=True)
    return ukeys, len(keys) - 1 - first


def round_robin(n_pages: int, n_nodes: int) -> np.ndarray:
    """Page ``p`` -> node ``p mod n_nodes``, over at least one page."""
    return np.arange(max(n_pages, 1), dtype=np.int64) % n_nodes


def running_counts(keys: np.ndarray, weights: np.ndarray, start=0):
    """Each record's running weight within its key, seeded with ``start``.

    Record ``i`` gets ``start[i]`` plus the weights of its key's records
    up to and including it.  ``start`` is a scalar or a column constant
    within each key; weights are non-negative.
    """
    # A cumsum over the records sorted by key, less the total before
    # the key's first record (the running maximum of those totals).
    order = np.argsort(keys, kind="stable")
    sorted_weight = weights[order]
    total = np.cumsum(sorted_weight)
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    prior = np.maximum.accumulate(np.where(first, total - sorted_weight, 0))
    reach = np.empty_like(total)
    reach[order] = total - prior
    reach += start
    return reach


class WeightTable:
    """A per-(page, node) weight table, fed one chunk of columns at a time."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.sums = np.zeros(0)     # flat, ``page * n_nodes + node``

    def add(self, pages: np.ndarray, nodes: np.ndarray, weights) -> None:
        """Add each record's weight to its (page, node) cell."""
        if len(pages):
            size = max(len(self.sums), (int(pages.max()) + 1) * self.n_nodes)
            sums = np.bincount(pages * self.n_nodes + nodes, weights=weights,
                               minlength=size)
            sums[:len(self.sums)] += self.sums
            self.sums = sums

    def argmax_placement(self) -> np.ndarray:
        """Page -> its heaviest node (the first on a tie).

        Pages with no weight go round-robin; the array covers at least
        one page.
        """
        n_nodes = max(self.n_nodes, 1)
        n_pages = len(self.sums) // n_nodes
        placement = round_robin(n_pages, n_nodes)
        per_page = self.sums.reshape(n_pages, n_nodes)
        touched = per_page.sum(axis=1) > 0
        placement[:n_pages][touched] = per_page[touched].argmax(axis=1)
        return placement
