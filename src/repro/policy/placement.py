"""Static page-placement policies (Section 8.1).

Three static strategies bracket the dynamic policies in Figure 6:

* **round-robin (RR)** — pages spread over nodes in id order, equivalent
  to random allocation; the normalisation baseline;
* **first touch (FT)** — the page lives where the first toucher ran; the
  default policy on CC-NUMA machines and the Section 7 baseline;
* **post-facto (PF)** — the *best possible* static placement, computed
  with perfect future knowledge: each page is placed on the node that
  minimises its total miss stall over the whole trace.

Each builder returns a dense ``numpy`` array mapping page id -> node, so
static stall evaluation is fully vectorised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Union

import numpy as np

from repro.common.errors import TraceError
from repro.common.folds import WeightTable, node_column, round_robin

if TYPE_CHECKING:  # pragma: no cover - avoids a policy <-> trace import cycle
    from repro.trace.record import Trace


def round_robin_placement(trace: "Trace", n_nodes: int) -> np.ndarray:
    """RR: page ``p`` lives on node ``p mod n_nodes``."""
    if n_nodes <= 0:
        raise TraceError("need at least one node")
    return round_robin(trace.max_page_id() + 1, n_nodes)


def first_touch_placement(
    trace: "Trace", n_nodes: int, node_of_cpu: Callable[[int], int]
) -> np.ndarray:
    """FT: the page lives on the node of the CPU that first touched it."""
    n_pages = trace.max_page_id() + 1
    # Untouched page ids fall back to RR so the array is total.
    placement = round_robin(n_pages, max(n_nodes, 1))
    if not len(trace):
        return placement
    n_cpus = int(trace.cpu.max()) + 1
    cpu_nodes = node_column(n_cpus, node_of_cpu)
    # Each page's first record: ``return_index`` sorts stably, so the
    # index is the page's first occurrence in record (time) order.  The
    # static and dynamic cells of a workload all start from FT, so the
    # index is memoized on the trace; the placement is built afresh.
    pages, first_idx = trace.memo(
        "first_touch", lambda: np.unique(trace.page, return_index=True)
    )
    placement[pages] = cpu_nodes[trace.cpu[first_idx]]
    return placement


def post_facto_placement(
    trace: Union["Trace", Iterable["Trace"]],
    n_nodes: int,
    node_of_cpu: Callable[[int], int],
) -> np.ndarray:
    """PF: per page, the node with the most offered misses wins.

    With a fixed local/remote latency pair, total stall for a page placed
    on node ``n`` is ``misses_local(n) * L_loc + misses_remote(n) * L_rem``;
    minimising it is exactly maximising the misses made local, so the
    argmax over per-node miss weight is the optimal static placement.

    ``trace`` is a whole trace or an iterable of its time-ordered
    chunks; the per-(page, node) weight table is filled chunk by chunk,
    so a stream gives the whole trace's placement without being
    concatenated (a whole trace is one chunk).
    """
    from repro.trace.record import Trace  # deferred: trace imports policy

    chunks = [trace] if isinstance(trace, Trace) else trace
    table = WeightTable(n_nodes)
    for chunk in chunks:
        if len(chunk):
            cpu_nodes = node_column(int(chunk.cpu.max()) + 1, node_of_cpu)
            table.add(chunk.page, cpu_nodes[chunk.cpu], chunk.weight)
    return table.argmax_placement()


def static_stall_ns(
    trace: "Trace",
    placement: np.ndarray,
    node_of_cpu: Callable[[int], int],
    local_ns: int,
    remote_ns: int,
) -> tuple:
    """(stall_ns, local_fraction) for a static placement — vectorised."""
    if not len(trace):
        return 0.0, 0.0
    n_cpus = int(trace.cpu.max()) + 1
    cpu_nodes = node_column(n_cpus, node_of_cpu)
    local = placement[trace.page] == cpu_nodes[trace.cpu]
    weights = trace.weight
    local_misses = int(weights[local].sum())
    total = int(weights.sum())
    stall = local_misses * local_ns + (total - local_misses) * remote_ns
    return float(stall), local_misses / total
