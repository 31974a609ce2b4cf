"""The layer profiler: which layer of the stack took a run's time.

The paper splits its kernel's cost layer by layer (Tables 5 and 6);
this module does the same for the reproduction itself.  While a
:class:`LayerTrace` is entered it replaces each public entry point
named in :data:`BOUNDARIES` with a timing wrapper (class attributes for
methods; the *use-site* module attribute for functions imported by
value, such as the placements ``policysim`` calls), and restores the
originals on exit, also when the traced code raises.  Nothing in the
simulator knows it is being timed, so a run without ``--profile-out``
installs no wrapper and pays nothing.

Each wrapper keeps no per-call record.  It adds to one tally per
(boundary, caller layer): calls, total time, time spent in wrapped
children, and the number of wrapped child calls.  A layer's self time
is its total minus its children's, minus the wrapper's own cost, which
:func:`calibrate` measures on an empty function:

* ``inner_ns`` is what an empty wrapped call records as its own total,
  charged once per call of the layer;
* ``outer_ns`` is what the caller pays per wrapped call, so the caller
  is charged ``outer_ns - inner_ns`` per child call.

Time inside a traced pass that no boundary covers (argument plumbing
between layers, the command's own printing) is the ``other`` layer.

``benchmarks/reproduce/layers.py`` holds the benchmark's copy of this
table, with the benchmark's own metrics over it;
``tests/obs/test_layers.py`` keeps the two equal.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from typing import Dict, List, Tuple

#: (``module:qualname``, layer, workload that must reach it).  The third
#: column is the benchmark workload (``benchmarks/reproduce``) whose
#: passes reach the boundary.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.simulator:SystemSimulator.run", "sim", "fullsys"),
    ("repro.machine.memory:NumaMemorySystem.service_miss",
     "machine.memory", "fullsys"),
    ("repro.machine.directory:DirectoryArray.observe",
     "machine.directory", "fullsys"),
    ("repro.machine.directory:DirectoryArray.drain",
     "machine.directory", "fullsys"),
    ("repro.machine.directory:DirectoryArray.interval_reset",
     "machine.directory", "fullsys"),
    ("repro.kernel.vm.system:VmSystem.fault", "kernel.vm", "fullsys"),
    ("repro.kernel.pager.handler:PagerHandler.handle_batch",
     "kernel.pager", "fullsys"),
    ("repro.kernel.pager.collapse:CollapseHandler.handle_write_fault",
     "kernel.pager", "fullsys"),
    ("repro.trace.tlbsim:TlbTraceDeriver.feed", "trace.tlbsim", "replay"),
    ("repro.trace.policysim:TracePolicySimulator.simulate_static",
     "trace.replay", "replay"),
    ("repro.trace.policysim:TracePolicySimulator.simulate_dynamic",
     "trace.replay", "replay"),
    ("repro.trace.policysim:round_robin_placement", "policy", "replay"),
    ("repro.trace.policysim:first_touch_placement", "policy", "replay"),
    ("repro.trace.policysim:post_facto_placement", "policy", "replay"),
    ("repro.trace.policysim:static_stall_ns", "policy", "replay"),
    ("repro.ptpol.sim:PtPolicySimulator.simulate", "ptpol", "replay"),
    ("repro.workloads.base:TraceGenerator.generate", "workloads", "tracegen"),
    ("repro.store.tracestore:TraceStore.put", "store.write", "tracegen"),
    ("repro.store.tracestore:TraceStore.get", "store.read", "tracegen"),
    ("repro.obs.tracer:Tracer.emit", "obs.emit", "traced"),
    ("repro.obs.export:JsonlSink.emit", "obs.export", "traced"),
    ("repro.obs.attrib:Attribution.from_events", "obs.analyze", "traced"),
    ("repro.obs.attrib:Attribution.reconcile", "obs.analyze", "traced"),
)

#: Everything inside a traced pass that no boundary covers.
OTHER = "other"

#: The layer each boundary belongs to.
LAYER_OF: Dict[str, str] = {entry: layer for entry, layer, _ in BOUNDARIES}

#: Layers in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer, _ in BOUNDARIES)
) + (OTHER,)


def _timed(fn, layer: str, by_caller: Dict[str, List[int]], stack: List[list]):
    """``fn`` wrapped to add its call to ``by_caller[<caller layer>]``.

    A tally is ``[calls, total_ns, child_ns, child_calls]``; ``stack``
    holds one ``[layer, child_ns, child_calls]`` frame per active call.
    """
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        caller = stack[-1]
        frame = [layer, 0, 0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            caller[1] += elapsed
            caller[2] += 1
            tally = by_caller.get(caller[0])
            if tally is None:
                tally = by_caller[caller[0]] = [0, 0, 0, 0]
            tally[0] += 1
            tally[1] += elapsed
            tally[2] += frame[1]
            tally[3] += frame[2]

    return functools.update_wrapper(timed, fn)


class LayerTrace:
    """Times every boundary while entered; accumulates across entries.

    Enter it once per traced pass.  ``root`` is the ``other`` frame:
    its child time and child calls cover every top-level wrapped call.
    """

    def __init__(self) -> None:
        self.tallies: Dict[str, Dict[str, List[int]]] = {
            entry: {} for entry, _, _ in BOUNDARIES
        }
        self.root = [OTHER, 0, 0]
        self._stack = [self.root]
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        try:
            for entry, layer, _ in BOUNDARIES:
                module_name, qualname = entry.split(":")
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(
                        _timed(raw.__func__, layer, self.tallies[entry],
                               self._stack)
                    )
                else:
                    wrapped = _timed(raw, layer, self.tallies[entry],
                                     self._stack)
                setattr(owner, attr, wrapped)
                self._saved.append((owner, attr, raw))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def entry_calls(self) -> Dict[str, int]:
        """Total calls per boundary, over every caller."""
        return {
            entry: sum(tally[0] for tally in by_caller.values())
            for entry, by_caller in self.tallies.items()
        }

    def rows(
        self, traced_walls: List[float], inner_ns: float, outer_ns: float,
    ) -> Dict[str, Dict[str, float]]:
        """Per layer, per traced pass: ``calls``, ``self_s`` and ``share``.

        ``self_s`` is calibrated self time; ``share`` divides it by the
        sum over every layer.  ``other`` is whatever of the traced
        passes' wall (``traced_walls``, seconds) no boundary covered.
        """
        passes = len(traced_walls)
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0.0)
        for entry, by_caller in self.tallies.items():
            layer = LAYER_OF[entry]
            for n, total, child, child_calls in by_caller.values():
                calls[layer] += n
                self_ns[layer] += (
                    total - child - inner_ns * n
                    - (outer_ns - inner_ns) * child_calls
                )
        self_ns[OTHER] = (
            sum(traced_walls) * 1e9 - self.root[1]
            - (outer_ns - inner_ns) * self.root[2]
        )
        covered = sum(self_ns.values())
        return {
            layer: {
                "calls": calls[layer] / passes,
                "self_s": self_ns[layer] / passes / 1e9,
                "share": self_ns[layer] / covered,
            }
            for layer in LAYERS
        }


def calibrate(rounds: int = 7, calls: int = 50_000) -> Tuple[float, float]:
    """(inner_ns, outer_ns): the wrapper's cost per call, median of rounds.

    The probe takes four positional arguments, like the hottest
    boundary, ``observe``.
    """
    def probe(a, b, c, d):
        return None

    clock = time.perf_counter_ns
    inner, outer = [], []
    for _ in range(rounds):
        by_caller: Dict[str, List[int]] = {}
        wrapped = _timed(probe, "probe", by_caller, [[OTHER, 0, 0]])
        start = clock()
        for i in range(calls):
            wrapped(i, 1, 2, 3)
        wrapped_ns = clock() - start
        start = clock()
        for i in range(calls):
            probe(i, 1, 2, 3)
        bare_ns = clock() - start
        inner.append(by_caller[OTHER][1] / calls)
        outer.append((wrapped_ns - bare_ns) / calls)
    return statistics.median(inner), statistics.median(outer)
