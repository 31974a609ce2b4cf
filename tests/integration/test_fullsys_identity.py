"""Full-system loop identity with the per-miss reference.

:class:`SystemSimulator` charges memory contention once per 1 ms window
and reads each miss's latency from the window's table;
:class:`ReferenceSystemSimulator` charges every miss on its own.  Their
results (``to_dict()``) and event logs (JSONL, unmasked) must be
identical byte for byte: on the Figure 3 grid at the default
experiment scale, on every machine and option the paper varies, on a
traced run, and on random traces with records on and just after window
boundaries, sampled counters, batches of one and four pages, pager
delays that land due times on record timestamps, and sparse page ids.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.spec import figure3_grid, machine_for
from repro.kernel.vm.shootdown import ShootdownMode
from repro.machine.config import MachineConfig
from repro.obs.events import IntervalReset, TriggerAdjusted
from repro.obs.export import JsonlSink
from repro.obs.tracer import ListSink, Tracer
from repro.policy.parameters import PolicyParameters
from repro.sim.simulator import (
    Placement,
    ReferenceSystemSimulator,
    SimulatorOptions,
    SystemSimulator,
)
from repro.trace.record import TraceBuilder
from repro.workloads import build_spec, load_workload

SCALE = 0.25
SEED = 0
WINDOW_NS = 1_000_000

SIMULATORS = (ReferenceSystemSimulator, SystemSimulator)


def _dump(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _both(spec, trace, **kwargs):
    """(reference, production) results serialised, same inputs."""
    return [_dump(sim(spec, **kwargs).run(trace)) for sim in SIMULATORS]


@pytest.mark.parametrize(
    "cell", figure3_grid(SCALE, SEED), ids=lambda c: c.label()
)
def test_fig3_cell_identical(cell):
    spec, trace = load_workload(cell.workload, scale=SCALE, seed=SEED)
    options = SimulatorOptions(
        dynamic=cell.dynamic,
        shootdown_mode=cell.shootdown_mode(),
        adaptive_trigger=cell.adaptive and cell.dynamic,
    )
    reference, production = _both(
        spec, trace, machine=machine_for(cell.machine, spec),
        params=cell.params(), options=options,
    )
    assert reference == production


VARIANTS = {
    "ccnow": dict(machine="ccnow"),
    "zero-network": dict(machine="zeronet"),
    "round-robin": dict(options=dict(dynamic=False,
                                     placement=Placement.ROUND_ROBIN)),
    "round-robin-migrep": dict(options=dict(placement=Placement.ROUND_ROBIN)),
    "pipelined-copy": dict(options=dict(pipelined_copy=True)),
    "adaptive": dict(options=dict(adaptive_trigger=True)),
    **{
        f"shootdown-{mode.value}": dict(options=dict(shootdown_mode=mode))
        for mode in ShootdownMode
    },
}


@pytest.mark.parametrize("workload", ["engineering", "database"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_identical(variant, workload, small_workloads):
    spec, trace = small_workloads[workload]
    setting = VARIANTS[variant]
    reference, production = _both(
        spec, trace,
        machine=machine_for(setting.get("machine", "ccnuma"), spec),
        options=SimulatorOptions(**setting.get("options", {})),
    )
    assert reference == production


def test_adaptive_resets_mid_window_identical(engineering):
    """Resets 1.5 windows apart read the miss counts of half a window."""
    spec, trace = engineering
    params = PolicyParameters.engineering_base().replace(
        reset_interval_ns=3 * WINDOW_NS // 2
    )
    runs = []
    for sim in SIMULATORS:
        sink = ListSink()
        tracer = Tracer(sinks=[sink], kinds={
            IntervalReset.KIND, TriggerAdjusted.KIND,
        })
        result = sim(
            spec, params=params,
            options=SimulatorOptions(adaptive_trigger=True), tracer=tracer,
        ).run(trace)
        runs.append((_dump(result), [e.to_dict() for e in sink.events]))
    assert runs[0] == runs[1]
    events = runs[1][1]
    assert any(e["t"] % WINDOW_NS for e in events
               if e["kind"] == IntervalReset.KIND)
    assert any(e["kind"] == TriggerAdjusted.KIND for e in events)


def test_traced_run_logs_identical(engineering, tmp_path):
    """Every event kind, per-miss events included, in the same bytes."""
    spec, trace = engineering
    logs = []
    for sim in SIMULATORS:
        path = tmp_path / f"{sim.__name__}.jsonl"
        tracer = Tracer(sinks=[JsonlSink(str(path))])
        result = sim(spec, tracer=tracer).run(trace)
        tracer.close()
        logs.append((_dump(result), path.read_bytes()))
    assert logs[0] == logs[1]
    assert b'"miss"' in logs[1][1]


# -- random traces ------------------------------------------------------------

#: Offsets that put records on, just before and just after a window edge.
EDGE_OFFSETS = (0, 1, 2, WINDOW_NS - 1)

records = st.lists(
    st.tuples(
        st.integers(0, 5),                                  # window
        st.one_of(st.sampled_from(EDGE_OFFSETS),
                  st.integers(0, WINDOW_NS - 1)),           # offset in it
        st.integers(0, 15),                                 # cpu (mod n)
        st.integers(0, 3),                                  # process
        st.integers(0, 11),                                 # page
        st.integers(1, 60),                                 # weight
        st.booleans(),                                      # write
        st.booleans(),                                      # kernel
    ),
    min_size=1,
    max_size=150,
)


def _machine(n_nodes, cpus_per_node):
    return MachineConfig.flash_ccnuma(
        n_cpus=n_nodes * cpus_per_node, n_nodes=n_nodes
    )


@pytest.fixture(scope="module")
def base_spec():
    return build_spec("database", scale=0.02, seed=1)


#: Pager delays.  A batch falls due ``delay + (cpu * 997_001) % 4e6``
#: after the record that filled it, so 0 (CPU 0), 2_999 (CPU 1) and
#: 1_000_000 (CPU 0) land due times on the timestamps of records at the
#: same edge offset, in the same or the next window.
PAGER_DELAYS = (0, 10, 2_999, 1_000_000)


#: Page-id bases: dense ids, and ids far past the trace's length, which
#: the segment engine indexes through a sorted table of the ids.
PAGE_BASES = (0, 10**7)


def _trace(rows, n_cpus, page_base=0):
    builder = TraceBuilder()
    for window, offset, cpu, pid, page, weight, write, kernel in rows:
        builder.append(
            window * WINDOW_NS + offset, cpu % n_cpus, pid,
            page_base + page, weight, is_write=write, is_kernel=kernel,
        )
    return builder.build()


@given(
    rows=records,
    n_nodes=st.integers(1, 4),
    cpus_per_node=st.integers(1, 4),
    round_robin=st.booleans(),
    sampling_rate=st.sampled_from((1, 2, 10)),
    batch_pages=st.sampled_from((1, 4)),
    pager_delay=st.sampled_from(PAGER_DELAYS),
    adaptive=st.booleans(),
    tight=st.booleans(),
    page_base=st.sampled_from(PAGE_BASES),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_random_traces_identical(base_spec, rows, n_nodes, cpus_per_node,
                                 round_robin, sampling_rate, batch_pages,
                                 pager_delay, adaptive, tight, page_base):
    machine = _machine(n_nodes, cpus_per_node)
    # Tight memory holds the 12 pages with a frame or so to spare, so
    # replicas fill it and later first touches must reclaim them.
    spec = dataclasses.replace(
        base_spec, n_cpus=machine.n_cpus, n_nodes=n_nodes,
        frames_per_node=12 // n_nodes + 1 if tight else None,
    )
    trace = _trace(rows, machine.n_cpus, page_base)
    placement = Placement.ROUND_ROBIN if round_robin else Placement.FIRST_TOUCH
    params = PolicyParameters(
        trigger_threshold=20, sharing_threshold=5, batch_pages=batch_pages,
        sampling_rate=sampling_rate, reset_interval_ns=5 * WINDOW_NS // 2,
    )
    reference, production = _both(
        spec, trace, machine=machine, params=params,
        options=SimulatorOptions(pager_delay_ns=pager_delay,
                                 placement=placement,
                                 adaptive_trigger=adaptive),
    )
    assert reference == production


def test_first_touch_that_reclaims_a_replica_identical(base_spec):
    """Out of frames, a first touch reclaims another page's replica: the
    records before it still read the replica, those after the master."""
    machine = _machine(2, 1)
    spec = dataclasses.replace(base_spec, n_cpus=2, n_nodes=2,
                               frames_per_node=2)
    rows = [(0, 0, 0, 0, 0, 10, False, False),     # page 0 on node 0
            (0, 1, 0, 0, 1, 1, False, False)]      # node 0 is full
    # CPU 1 reads page 0 until it is hot; shared with CPU 0, it is
    # replicated on node 1 when the batch falls due in window 1.
    rows += [(0, 2 + k, 1, 1, 0, 5, False, False) for k in range(4)]
    rows += [(1, 500_000 + k, 1, 1, page, 1, False, False)
             for k, page in enumerate([0, 2, 0, 3, 0])]
    params = PolicyParameters(
        trigger_threshold=20, sharing_threshold=5, batch_pages=1,
    )
    reference, production = _both(
        spec, _trace(rows, machine.n_cpus), machine=machine, params=params,
        options=SimulatorOptions(pager_delay_ns=10),
    )
    assert reference == production
    metrics = json.loads(production)["metrics"]
    assert metrics["vm.replications"] == 1
    assert metrics["vm.replicas_reclaimed"] == 1


def test_reclaim_makes_a_counted_replica_remote_identical(base_spec):
    """CPU 1 counts past the trigger on its local replica; a first touch
    then reclaims the replica, so CPU 1's next miss on the page is remote
    and triggers it, in the same segment as the reclaiming fault."""
    machine = _machine(2, 1)
    spec = dataclasses.replace(base_spec, n_cpus=2, n_nodes=2,
                               frames_per_node=2)
    rows = [(0, 0, 0, 0, 0, 10, False, False),     # page 0 on node 0
            (0, 1, 0, 0, 1, 1, False, False)]      # node 0 is full
    # CPU 1 reads page 0 until it is hot; shared with CPU 0, it is
    # replicated on node 1 when the batch falls due in window 1.
    rows += [(0, 2 + k, 1, 1, 0, 5, False, False) for k in range(4)]
    # Past the trigger on the local replica, then page 2 fills node 1
    # and page 3's first touch reclaims the replica.
    rows += [(1, 500_000 + k, 1, 1, page, weight, False, False)
             for k, (page, weight) in enumerate(
                 [(0, 25), (2, 1), (3, 1), (0, 1)])]
    params = PolicyParameters(
        trigger_threshold=20, sharing_threshold=5, batch_pages=1,
    )
    runs = []
    for sim in SIMULATORS:
        sink = ListSink()
        result = sim(
            spec, machine=machine, params=params,
            options=SimulatorOptions(pager_delay_ns=10),
            tracer=Tracer(sinks=[sink]),
        ).run(_trace(rows, machine.n_cpus))
        runs.append((_dump(result), [e.to_dict() for e in sink.events]))
    assert runs[0] == runs[1]
    metrics = json.loads(runs[1][0])["metrics"]
    assert metrics["vm.replicas_reclaimed"] == 1
    triggers = [e["t"] for e in runs[1][1] if e["kind"] == "hot-page"]
    assert triggers[-1] == WINDOW_NS + 500_003


def test_full_batch_retriggers_its_pages_identical(base_spec):
    """A batch that fills un-arms its pages while their counts are still
    at the trigger, so the next remote miss on one triggers it again
    before the batch is serviced."""
    machine = _machine(2, 1)
    spec = dataclasses.replace(base_spec, n_cpus=2, n_nodes=2)
    rows = [(0, 0, 0, 0, 7, 1, False, False),      # pages 7 and 8 on node 0
            (0, 1, 0, 0, 8, 1, False, False)]
    # CPU 1 misses on both (remote) until each reaches the trigger, then
    # once more on page 7.
    rows += [(0, 10 + k, 1, 1, page, 5, False, False)
             for k, page in enumerate([7, 8] * 4 + [7])]
    params = PolicyParameters(
        trigger_threshold=20, sharing_threshold=5, batch_pages=2,
    )
    runs = []
    for sim in SIMULATORS:
        sink = ListSink()
        result = sim(
            spec, machine=machine, params=params,
            options=SimulatorOptions(pager_delay_ns=10),
            tracer=Tracer(sinks=[sink]),
        ).run(_trace(rows, machine.n_cpus))
        runs.append((_dump(result), [e.to_dict() for e in sink.events]))
    assert runs[0] == runs[1]
    triggers = [e["page"] for e in runs[1][1] if e["kind"] == "hot-page"]
    assert triggers == [7, 8, 7]


def test_writes_to_replicated_page_identical(engineering):
    """Reads replicate a page across windows; writes then collapse it."""
    spec, _ = engineering
    builder = TraceBuilder()
    for t in range(0, 3 * WINDOW_NS, 50_000):
        builder.append(t, cpu=0, process=1, page=7, weight=3)
        builder.append(t + 1, cpu=5, process=2, page=7, weight=3)
    for t in range(4 * WINDOW_NS - 2, 4 * WINDOW_NS + 3):
        builder.append(t, cpu=5, process=2, page=7, is_write=True)
        builder.append(t, cpu=3, process=3, page=7, weight=2)
    params = PolicyParameters(
        trigger_threshold=20, sharing_threshold=5, batch_pages=1,
    )
    runs = []
    for sim in SIMULATORS:
        sink = ListSink()
        result = sim(
            spec, params=params,
            options=SimulatorOptions(pager_delay_ns=10),
            tracer=Tracer(sinks=[sink]),
        ).run(builder.build())
        runs.append((_dump(result), [e.to_dict() for e in sink.events]))
    assert runs[0] == runs[1]
    assert json.loads(runs[1][0])["collapses"] >= 1
