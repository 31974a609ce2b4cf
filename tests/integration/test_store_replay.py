"""Record-once/replay-many end-to-end: replay must change nothing.

The whole point of the trace store is that replaying a recorded trace
is *indistinguishable* from regenerating it — every figure cell must
produce byte-identical results either way.  These tests run the full
fig6 and fig9 grids at the default experiment scale (0.25) twice, once
on freshly generated traces and once on store replays, and compare
``PolicySimResult.to_dict()`` exactly.
"""

import numpy as np
import pytest

from repro.exp.runner import POLICY_LABELS, _METRICS_BY_LABEL, _STATIC_POLICIES
from repro.exp.spec import NAMED_GRIDS
from repro.store import TraceStore
from repro.trace.policysim import PolicySimConfig, TracePolicySimulator
from repro.workloads import build_spec, generate_trace

SCALE = 0.25
SEED = 0
COLUMN_NAMES = ("time_ns", "cpu", "process", "page", "weight", "flags")

GRID = NAMED_GRIDS["fig6"](scale=SCALE, seed=SEED) + NAMED_GRIDS["fig9"](
    scale=SCALE, seed=SEED
)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """{workload: (spec, fresh_trace, replayed_trace)} via a shared store."""
    store = TraceStore(
        tmp_path_factory.mktemp("replay-store"), token="integration"
    )
    out = {}
    for name in sorted({spec.workload for spec in GRID}):
        spec = build_spec(name, scale=SCALE, seed=SEED)
        fresh = generate_trace(spec)
        store.put(spec.identity(), fresh)
        replayed = store.get(spec.identity(), meta=spec)
        out[name] = (spec, fresh, replayed)
    assert store.stats()["misses"] == 0
    return out


def run_cell(cell, workload_spec, trace):
    """One grid cell exactly as ``execute_spec`` runs it."""
    stream = trace.kernel_only() if cell.kernel_trace else trace.user_only()
    sim = TracePolicySimulator(
        PolicySimConfig(
            n_cpus=workload_spec.n_cpus, n_nodes=workload_spec.n_nodes
        )
    )
    if cell.policy in _STATIC_POLICIES:
        return sim.simulate_static(stream, _STATIC_POLICIES[cell.policy])
    return sim.simulate_dynamic(
        stream,
        cell.params(),
        metric=_METRICS_BY_LABEL[cell.metric],
        label=POLICY_LABELS[cell.policy],
    )


def test_replayed_traces_are_byte_identical(recorded):
    for name, (spec, fresh, replayed) in recorded.items():
        for column in COLUMN_NAMES:
            a, b = getattr(fresh, column), getattr(replayed, column)
            assert a.dtype == b.dtype, (name, column)
            assert np.array_equal(a, b), (name, column)
        assert replayed.meta is spec


@pytest.mark.parametrize("cell", GRID, ids=lambda c: c.label())
def test_grid_cell_identical_fresh_vs_replayed(cell, recorded):
    spec, fresh, replayed = recorded[cell.workload]
    assert (
        run_cell(cell, spec, fresh).to_dict()
        == run_cell(cell, spec, replayed).to_dict()
    )


def test_streamed_replay_matches_materialized(recorded):
    """Chunked streaming replay equals full-trace replay on a real trace."""
    cell = next(c for c in GRID if c.policy == "migrep")
    spec, fresh, _ = recorded[cell.workload]
    sim = TracePolicySimulator(
        PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)
    )
    from repro.store.format import ContainerReader, write_container

    # Re-record with small chunks so the stream is genuinely multi-chunk.
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.rptc"
        write_container(path, fresh, chunk_records=10_000)
        with ContainerReader(path) as reader:
            assert len(reader.chunks) > 1
            chunks = (c.user_only() for c in reader.iter_chunks(meta=spec))
            streamed = sim.simulate_dynamic(chunks, cell.params())
    full = sim.simulate_dynamic(fresh.user_only(), cell.params())
    assert streamed.to_dict() == full.to_dict()
