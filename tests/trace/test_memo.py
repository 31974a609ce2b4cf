"""Per-workload replay inputs, derived once and shared read-only.

The user stream (one slot in :meth:`Trace.user_only`), its TLB-miss
stream and its first-touch index (memoized on the stream) are checked
against a fresh derivation and the per-record oracles, and the grid the
``replay`` benchmark runs is checked to derive each input once per
workload and grid.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.cli import main
from repro.common.errors import TraceError
from repro.exp.runner import execute_spec
from repro.exp.spec import (
    USER_WORKLOADS,
    figure6_grid,
    figure9_grid,
    ptpol6_grid,
    sweep,
)
from repro.machine.config import TlbConfig
from repro.policy import placement
from repro.policy.placement import first_touch_placement
from repro.trace.policysim import PolicySimConfig
from repro.trace.record import COLUMNS, Trace, TraceBuilder
from repro.trace.tlbsim import TlbTraceDeriver, derive_tlb_trace
from repro.workloads import (
    WORKLOAD_NAMES,
    build_spec,
    generate_trace,
    load_workload,
)
from tests.policy.test_placement import (
    assert_same_placement,
    reference_first_touch,
)
from tests.trace.test_tlbsim import assert_same_columns, reference_tlb_trace


def build(rows):
    b = TraceBuilder()
    for r in rows:
        b.append(*r)
    return b.build()


def move_slot():
    """Point the user-stream slot at a throwaway trace."""
    build([(0, 0, 0, 0, 1)]).user_only()


def two_cpu_trace():
    return build([(t, t % 2, 0, t % 5, 3) for t in range(40)])


@pytest.fixture(scope="module")
def user_streams():
    """{name: (spec, base trace)} at (0.02, 0), generated once."""
    loaded = {}
    for name in WORKLOAD_NAMES:
        spec = build_spec(name, scale=0.02, seed=0)
        loaded[name] = (spec, generate_trace(spec))
    return loaded


class TestTlbMemo:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_hit_equals_fresh_and_oracle(self, name, user_streams):
        spec, trace = user_streams[name]
        user = trace.user_only()
        first = derive_tlb_trace(user, n_cpus=spec.n_cpus)
        hit = derive_tlb_trace(user, n_cpus=spec.n_cpus)
        assert hit is first
        assert_same_columns(hit, TlbTraceDeriver(spec.n_cpus).feed(user))
        assert_same_columns(hit, reference_tlb_trace(user, spec.n_cpus))

    def test_explicit_arguments_bypass_the_memo(self):
        user = two_cpu_trace().user_only()
        default = derive_tlb_trace(user, n_cpus=2)
        for kwargs in ({"tlb_config": TlbConfig(entries=2)},
                       {"factor_of_page": lambda page: 1.0}):
            got = derive_tlb_trace(user, n_cpus=2, **kwargs)
            assert got is not default
            assert got is not derive_tlb_trace(user, n_cpus=2, **kwargs)
            assert_same_columns(got, reference_tlb_trace(user, 2, **kwargs))
        assert derive_tlb_trace(user, n_cpus=2) is default

    def test_each_cpu_count_has_its_own_entry(self):
        user = two_cpu_trace().user_only()
        two, four = derive_tlb_trace(user, 2), derive_tlb_trace(user, 4)
        assert two is not four
        assert derive_tlb_trace(user, 2) is two
        assert derive_tlb_trace(user, 4) is four
        # The default CPU count resolves to the same key as the explicit.
        assert derive_tlb_trace(user) is two

    def test_out_of_range_cpu_raises_on_every_call(self):
        user = build([(0, 3, 0, 1, 1)]).user_only()
        for _ in range(3):
            with pytest.raises(TraceError, match="outside machine"):
                derive_tlb_trace(user, n_cpus=2)
        assert len(derive_tlb_trace(user, n_cpus=4)) == 1


class TestFirstTouchMemo:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_memoized_placement_equals_oracle(self, name, user_streams,
                                              monkeypatch):
        spec, trace = user_streams[name]
        move_slot()
        user = trace.user_only()
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(placement.np, "unique", counted)
        node_of_cpu = PolicySimConfig(spec.n_cpus, spec.n_nodes).node_of_cpu
        want = reference_first_touch(user, spec.n_nodes, node_of_cpu)
        first = first_touch_placement(user, spec.n_nodes, node_of_cpu)
        assert_same_placement(first, want)
        first[:] = -1  # each call builds its own placement
        again = first_touch_placement(user, spec.n_nodes, node_of_cpu)
        assert_same_placement(again, want)
        assert len(calls) == 1


class TestReadOnly:
    def test_shared_streams_reject_in_place_writes(self):
        user = two_cpu_trace().user_only()
        tlb = derive_tlb_trace(user, n_cpus=2)
        for stream in (user, tlb):
            for name in COLUMNS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(stream, name)[0] = 0

    def test_cached_workload_traces_are_read_only(self):
        _, trace = load_workload("database", scale=0.02, seed=0, store=None)
        for name in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[:1] = 0

    def test_selections_stay_writeable(self):
        trace = two_cpu_trace().freeze()
        assert trace.kernel_only().page.flags.writeable
        assert trace.select(trace.cpu == 0).page.flags.writeable


class TestUserSlot:
    def test_same_trace_same_stream(self):
        trace = two_cpu_trace()
        assert trace.user_only() is trace.user_only()

    def test_moving_the_slot_frees_the_old_inputs(self):
        old = two_cpu_trace()
        user = old.user_only()
        derive_tlb_trace(user, n_cpus=2)
        first_touch_placement(user, 2, lambda cpu: cpu)
        refs = [weakref.ref(user), weakref.ref(derive_tlb_trace(user, 2))]
        del user
        gc.collect()
        assert all(ref() is not None for ref in refs)  # the slot holds them
        two_cpu_trace().user_only()  # ``old`` itself stays alive
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert old.page.flags.writeable

    def test_dropping_the_trace_empties_the_slot(self):
        trace = two_cpu_trace()
        ref = weakref.ref(trace.user_only())
        del trace
        gc.collect()
        assert ref() is None


def replay_grid(scale, seed):
    """The ``replay`` benchmark's 68 cells, in its order."""
    fig8 = sweep(
        USER_WORKLOADS, kinds=("trace",), policies=("migrep",),
        metrics=("SC", "FT", "ST"), scales=(scale,), seeds=(seed,),
    )
    return (figure6_grid(scale, seed) + fig8 + figure9_grid(scale, seed)
            + ptpol6_grid(scale, seed))


def test_replay_grid_derives_each_input_once_per_workload_and_grid(
    monkeypatch,
):
    grid = replay_grid(0.02, 0)
    assert len(grid) == 68
    counts = {"feed": 0, "select": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    move_slot()
    monkeypatch.setattr(TlbTraceDeriver, "feed",
                        counting("feed", TlbTraceDeriver.feed))
    monkeypatch.setattr(Trace, "select", counting("select", Trace.select))
    for _ in range(2):
        counts.update(feed=0, select=0)
        for spec in grid:
            execute_spec(spec)
        # One TLB stream per workload for fig8 and for ptpol6; one user
        # stream per workload for each of the four grids.
        assert counts == {"feed": 8, "select": 16}


def test_ptsim_profile_derives_the_tlb_stream_once(tmp_path, capsys):
    move_slot()
    path = tmp_path / "profile.json"
    assert main([
        "ptsim", "--workload", "database", "--scale", "0.1",
        "--profile-out", str(path),
    ]) == 0
    capsys.readouterr()
    layers = json.loads(path.read_text())["layers"]
    assert layers["trace.tlbsim"]["calls"] == 1
