"""The benchmark's four workloads, the passes that time them, and the checks.

``bench.py`` imports this module only after it has pinned the
environment and put the checkout's ``src`` first on ``sys.path``.  All
work runs in this one process and thread, through the library's public
functions.

A workload is a list of *cells* per pass.  A cell is one timed call
into the library (one grid cell, one trace generated, one log
analysed).  It returns its output digest, the miss records it
processed and the model counts it produced.  A cell fails when it
raises, when a conservation check fails, or when its digest differs
from the first pass's.  A failed cell is counted and reported on
stderr, and the run carries on.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exp.runner import execute_spec
from repro.exp.spec import (
    USER_WORKLOADS,
    figure3_grid,
    figure6_grid,
    figure9_grid,
    machine_for,
    params_for,
    ptpol6_grid,
    sweep,
)
from repro.obs.attrib import (
    Attribution,
    expected_from_policysim,
    expected_from_system,
)
from repro.obs.events import ALL_KINDS, MissServiced
from repro.obs.export import JsonlSink, iter_events
from repro.obs.tracer import Tracer
from repro.sim.simulator import SimulatorOptions, SystemSimulator
from repro.store.tracestore import TraceStore, generator_code_token
from repro.trace.policysim import PolicySimConfig, TracePolicySimulator
from repro.trace.record import Trace
from repro.workloads import (
    WORKLOAD_NAMES,
    build_spec,
    clear_cache,
    generate_trace,
    load_workload,
)

import layers

#: Untraced passes a run makes at least, whatever ``--seconds`` says,
#: unless its workload asks for more.
MIN_PASSES = 3

#: Before every pass, set-up is repeated until this long is spent;
#: ``setup_s`` is the median of all repeats.  Spreading the repeats
#: over the run keeps one slow stretch of the host from deciding it.
SETUP_BURST_S = 0.25

#: Figure 3 as published: (stall reduction %, execution improvement %).
PAPER_FIG3 = {
    "engineering": (52.0, 29.0),
    "raytrace": (36.0, 15.0),
    "splash": (24.0, 4.0),
    "database": (10.0, 5.0),
}

#: Workloads the traced cells run: migration-heavy and write-shared.
TRACED_WORKLOADS = ("engineering", "database")


class CheckFailed(Exception):
    """A cell's output broke a conservation or round-trip check."""


@dataclass
class Outcome:
    """What one cell produced."""

    digest: str
    records: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    result: object = None


@dataclass
class Cell:
    """One timed call into the library."""

    label: str
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    """A set of inputs and the cells one pass runs over them."""

    scale: float
    setup: Callable[[float, int], dict]
    cells: Callable[[dict, Path], List[Cell]]
    min_passes: int = MIN_PASSES


def _digest(payload) -> str:
    """sha256 of canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _columns_digest(trace: Trace) -> str:
    """sha256 over every column of a trace."""
    digest = hashlib.sha256()
    for column in _columns(trace):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _columns(trace: Trace) -> Tuple[np.ndarray, ...]:
    return (trace.time_ns, trace.cpu, trace.process, trace.page,
            trace.weight, trace.flags)


# -- set-up -------------------------------------------------------------------


def _load_user_workloads(names):
    def setup(scale: float, seed: int) -> dict:
        # store=None: generate in-process into the memo, so no cell ever
        # reads or writes a trace store or the result cache.
        clear_cache()
        for name in names:
            load_workload(name, scale=scale, seed=seed, store=None)
        return {"scale": scale, "seed": seed}
    return setup


def _build_specs(scale: float, seed: int) -> dict:
    return {
        "specs": {n: build_spec(n, scale=scale, seed=seed)
                  for n in WORKLOAD_NAMES},
        "token": generator_code_token(refresh=True),
    }


# -- cells --------------------------------------------------------------------


def _check_system(result, trace: Trace) -> None:
    if result.stall.total_misses != trace.total_misses:
        raise CheckFailed(
            f"{result.stall.total_misses} misses serviced, "
            f"{trace.total_misses} in the stream"
        )


def _system_counts(result) -> Dict[str, float]:
    m = {name: int(value) for name, value in result.metrics.items()}
    return {
        "misses": result.stall.total_misses,
        "remote_misses": result.stall.remote_misses,
        "dir_triggers": m["machine.directory.triggers"],
        "hot_pages": result.tally.hot_pages,
        "migrations": m["vm.migrations"],
        "replications": m["vm.replications"],
        "collapses": result.collapses,
        "tlbs_flushed": m["kernel.pager.tlbs_flushed"]
        + m["kernel.collapse.tlbs_flushed"],
        "vm_faults": m["vm.faults"],
    }


def _system_cell(spec) -> Outcome:
    _, trace = load_workload(spec.workload, scale=spec.scale, seed=spec.seed)
    result = execute_spec(spec)
    _check_system(result, trace)
    return Outcome(digest=_digest(result.to_dict()), records=len(trace),
                   counts=_system_counts(result), result=result)


def _trace_counts(result) -> Dict[str, float]:
    return {
        "misses": result.total_misses,
        "remote_misses": result.remote_misses,
        "hot_pages": result.hot_events,
        "migrations": result.migrations,
        "replications": result.replications,
        "collapses": result.collapses,
    }


def _check_replay(result, stream_weight: int) -> None:
    if (result.total_misses != stream_weight
            or not 0 <= result.local_misses <= result.total_misses):
        raise CheckFailed(
            f"{result.local_misses} local + {result.remote_misses} remote "
            f"misses, {stream_weight} in the stream"
        )


def _replay_cell(spec) -> Outcome:
    _, trace = load_workload(spec.workload, scale=spec.scale, seed=spec.seed)
    result = execute_spec(spec)
    user = ~trace.is_kernel
    _check_replay(result, int(trace.weight[user].sum()))
    return Outcome(
        digest=_digest(result.to_dict()),
        records=int(np.count_nonzero(user)),
        counts=_trace_counts(result),
    )


def fullsys_cells(state: dict, tmp: Path) -> List[Cell]:
    return [
        Cell(spec.label(), lambda spec=spec: _system_cell(spec))
        for spec in figure3_grid(state["scale"], state["seed"])
    ]


def replay_grid(scale: float, seed: int):
    """fig6 + fig8 (SC/FT/ST) + fig9 + ptpol6: 68 trace-driven cells."""
    fig8 = sweep(
        USER_WORKLOADS, kinds=("trace",), policies=("migrep",),
        metrics=("SC", "FT", "ST"), scales=(scale,), seeds=(seed,),
    )
    return (figure6_grid(scale, seed) + fig8 + figure9_grid(scale, seed)
            + ptpol6_grid(scale, seed))


def replay_cells(state: dict, tmp: Path) -> List[Cell]:
    return [
        Cell(spec.label(), lambda spec=spec: _replay_cell(spec))
        for spec in replay_grid(state["scale"], state["seed"])
    ]


def tracegen_cells(state: dict, tmp: Path) -> List[Cell]:
    store = TraceStore(directory=tmp / "store", token=state["token"])
    made: Dict[str, Trace] = {}

    def generate(name: str) -> Outcome:
        trace = made[name] = generate_trace(state["specs"][name])
        return Outcome(digest=_columns_digest(trace), records=len(trace),
                       counts={"misses": trace.total_misses})

    def put(name: str) -> Outcome:
        trace = made[name]
        path = store.put(state["specs"][name].identity(), trace)
        stored = path.read_bytes()
        return Outcome(
            digest=hashlib.sha256(stored).hexdigest(),
            records=len(trace),
            counts={"store_bytes": len(stored),
                    "store_raw_bytes": sum(c.nbytes for c in _columns(trace))},
        )

    def get(name: str) -> Outcome:
        spec = state["specs"][name]
        back = store.get(spec.identity(), meta=spec)
        if back is None:
            raise CheckFailed("recorded trace not found")
        if not all(np.array_equal(a, b) for a, b in
                   zip(_columns(made[name]), _columns(back))):
            raise CheckFailed("store round trip changed the columns")
        return Outcome(digest=_columns_digest(back), records=len(back))

    cells = []
    for name in WORKLOAD_NAMES:
        for stage, fn in (("gen", generate), ("put", put), ("get", get)):
            cells.append(Cell(f"{stage}:{name}",
                              lambda fn=fn, name=name: fn(name)))
    return cells


def traced_cells(state: dict, tmp: Path) -> List[Cell]:
    logs: Dict[str, Tuple[Path, dict]] = {}

    def system(name: str) -> Outcome:
        spec, trace = load_workload(name, scale=state["scale"],
                                    seed=state["seed"])
        log = tmp / f"system-{name}.jsonl"
        # The decision stream, as `repro run --trace-out` records it.
        tracer = Tracer(sinks=[JsonlSink(str(log))],
                        kinds=ALL_KINDS - {MissServiced.KIND})
        try:
            result = SystemSimulator(
                spec, machine=machine_for("ccnuma", spec),
                params=params_for(name, None),
                options=SimulatorOptions(dynamic=True), tracer=tracer,
            ).run(trace)
        finally:
            tracer.close()
        _check_system(result, trace)
        logs[f"system:{name}"] = (log, expected_from_system(result))
        return _traced_outcome(result, log, tracer, len(trace),
                               _system_counts(result))

    def replay(name: str) -> Outcome:
        spec, trace = load_workload(name, scale=state["scale"],
                                    seed=state["seed"])
        stream = trace.user_only()
        log = tmp / f"trace-{name}.jsonl"
        tracer = Tracer(sinks=[JsonlSink(str(log))])
        try:
            result = TracePolicySimulator(
                PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes),
                tracer=tracer,
            ).simulate_dynamic(stream, params_for(name, None),
                               label="Mig/Rep")
        finally:
            tracer.close()
        _check_replay(result, stream.total_misses)
        logs[f"trace:{name}"] = (log, expected_from_policysim(result))
        return _traced_outcome(result, log, tracer, len(stream),
                               _trace_counts(result))

    def analyze(key: str) -> Outcome:
        log, expected = logs.pop(key)
        attrib = Attribution.from_events(iter_events(str(log)))
        errors = attrib.reconcile(expected)
        if errors:
            raise CheckFailed("; ".join(errors))
        return Outcome(digest=_digest(attrib.to_dict(top=1)["totals"]))

    cells = []
    for name in TRACED_WORKLOADS:
        for kind, fn in (("system", system), ("trace", replay)):
            key = f"{kind}:{name}"
            cells.append(Cell(f"run:{key}", lambda fn=fn, name=name: fn(name)))
            cells.append(Cell(f"analyze:{key}",
                              lambda key=key: analyze(key)))
    return cells


def _traced_outcome(result, log: Path, tracer: Tracer, records: int,
                    counts: Dict[str, float]) -> Outcome:
    log_digest = hashlib.sha256(log.read_bytes()).hexdigest()
    return Outcome(
        digest=_digest([result.to_dict(), log_digest]),
        records=records,
        counts={**counts, "events": tracer.emitted,
                "log_bytes": log.stat().st_size},
    )


WORKLOADS: Dict[str, Workload] = {
    "fullsys": Workload(0.25, _load_user_workloads(USER_WORKLOADS),
                        fullsys_cells),
    "replay": Workload(0.25, _load_user_workloads(USER_WORKLOADS),
                       replay_cells),
    "tracegen": Workload(0.5, _build_specs, tracegen_cells),
    # The eight cells form three clusters: two short analyses, three
    # near 0.4 s and three near 0.75 s.  At 3 passes the tail would be
    # p58, the top of the middle cluster, which one slow sample decides.
    # At 5 passes (~18 s, what 20 s runs fit anyway) it is p75, inside
    # the slowest cluster.
    "traced": Workload(0.25, _load_user_workloads(TRACED_WORKLOADS),
                       traced_cells, min_passes=5),
}


# -- the run ------------------------------------------------------------------


def fidelity_err_pp(results: Dict[str, object]) -> Optional[float]:
    """Mean |measured - paper| over Figure 3's eight numbers, in points."""
    errors = []
    for name, (paper_stall, paper_exec) in PAPER_FIG3.items():
        ft = results.get(f"system:{name}:ft")
        mr = results.get(f"system:{name}:migrep")
        if ft is None or mr is None:
            return None
        errors.append(abs(mr.stall_reduction_over(ft) - paper_stall))
        errors.append(abs(mr.improvement_over(ft) - paper_exec))
    return statistics.fmean(errors)


@dataclass
class PassRecord:
    wall_s: float
    records: int
    traced: bool
    start_s: float                            # since the run started
    cells: List[Tuple[str, float, float]]     # (label, start_s, end_s)


class Run:
    """One benchmark invocation: set-up, passes, checks and their tallies."""

    def __init__(self, workload: Workload, seed: int, scale: float,
                 tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.state: dict = {}
        self.setup_s: List[float] = []
        self.passes: List[PassRecord] = []
        self.reference: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self.results: Dict[str, object] = {}
        self.cells_per_pass = 0
        self.attempted = 0
        self.failed = 0
        self.t0 = time.perf_counter()

    def set_up(self, burst_s: float) -> None:
        """Build the inputs until ``burst_s`` is spent (at least once)."""
        gc.collect()
        spent = 0.0
        while True:
            start = time.perf_counter()
            self.state = self.workload.setup(self.scale, self.seed)
            took = time.perf_counter() - start
            self.setup_s.append(took)
            spent += took
            if spent >= burst_s:
                return

    def one_pass(
        self, trace: Optional[layers.LayerTrace] = None
    ) -> PassRecord:
        """Run every cell once; ``trace`` wraps the layers while it runs."""
        pass_dir = self.tmp / f"pass{len(self.passes) + 1}"
        pass_dir.mkdir(parents=True)
        first = not self.passes
        cells = self.workload.cells(self.state, pass_dir)
        self.cells_per_pass = len(cells)
        timed: List[Tuple[str, float, float]] = []
        records = 0
        # Every pass starts from a collected heap, whatever ran before it.
        gc.collect()
        try:
            with trace if trace is not None else contextlib.nullcontext():
                start = time.perf_counter()
                for cell in cells:
                    cell_start = time.perf_counter()
                    outcome = self._attempt(cell, first)
                    timed.append((cell.label, cell_start - self.t0,
                                  time.perf_counter() - self.t0))
                    if outcome is not None:
                        records += outcome.records
                wall = time.perf_counter() - start
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        record = PassRecord(wall, records, trace is not None,
                            start - self.t0, timed)
        self.passes.append(record)
        return record

    def _attempt(self, cell: Cell, first: bool) -> Optional[Outcome]:
        self.attempted += 1
        try:
            outcome = cell.run()
            want = self.reference.setdefault(cell.label, outcome.digest)
            if outcome.digest != want:
                raise CheckFailed("output digest differs from pass 1")
        except Exception as exc:  # a failed cell never aborts the run
            self.failed += 1
            print(f"FAILED {cell.label}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        if first:
            for key, value in outcome.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
            if outcome.result is not None:
                self.results[cell.label] = outcome.result
        return outcome

    # -- metrics --------------------------------------------------------------

    def tail_pct(self) -> int:
        """Whole percentile leaving >=10 samples beyond it at min_passes.

        Fixed per workload, so a run that fits more passes estimates the
        same percentile instead of a higher one.
        """
        samples = self.cells_per_pass * self.workload.min_passes
        return math.floor(100 * (1 - 10 / samples))

    def cell_durations(self) -> List[float]:
        """Every untraced cell duration, sorted."""
        return sorted(end - start for p in self.passes if not p.traced
                      for _, start, end in p.cells)

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics, {name: (value, unit)}."""
        untraced = [p for p in self.passes if not p.traced]
        durations = self.cell_durations()
        rank = max(1, math.ceil(self.tail_pct() / 100 * len(durations)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "wall_s": (statistics.median(p.wall_s for p in untraced), "s"),
            "records_per_s": (statistics.median(
                p.records / p.wall_s for p in untraced), "1/s"),
            "cell_p50_s": (statistics.median(durations), "s"),
            "cell_tail_s": (durations[rank - 1], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(self.setup_s), "s"),
        }

    def model_counts(self) -> Dict[str, Tuple[float, str]]:
        """Deterministic counts from pass 1; any change is semantic.

        A count that does not apply to the workload reads 0.
        """
        c = self.counts
        misses = c.get("misses", 0)
        stored = c.get("store_bytes", 0)
        counts = {
            f"model.{key}": (c.get(key, 0), "count")
            for key in ("misses", "dir_triggers", "hot_pages", "migrations",
                        "replications", "collapses", "tlbs_flushed",
                        "vm_faults", "events")
        }
        counts.update({
            "model.remote_frac": (
                c.get("remote_misses", 0) / misses if misses else 0.0,
                "fraction"),
            "model.store_bytes": (stored, "bytes"),
            "model.store_ratio": (
                c.get("store_raw_bytes", 0) / stored if stored else 0.0,
                "ratio"),
            "model.log_bytes": (c.get("log_bytes", 0), "bytes"),
        })
        return counts

    def spans(self) -> List[dict]:
        """Coarse spans: one per pass, one per cell under its pass."""
        out = []
        for i, p in enumerate(self.passes, 1):
            name = f"pass{i}"
            out.append({"name": name, "parent": None, "traced": p.traced,
                        "start_s": p.start_s, "end_s": p.start_s + p.wall_s})
            out.extend({"name": label, "parent": name,
                        "start_s": start, "end_s": end}
                       for label, start, end in p.cells)
        return out
