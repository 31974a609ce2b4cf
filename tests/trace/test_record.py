"""Trace container: construction, selection, aggregation, merging."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.trace.record import (
    FLAG_INSTR,
    FLAG_KERNEL,
    FLAG_WRITE,
    Trace,
    TraceBuilder,
    merge_traces,
)


class TestBuilder:
    def test_out_of_order_appends_are_sorted(self):
        b = TraceBuilder()
        b.append(300, 0, 0, 1, 1)
        b.append(100, 1, 0, 2, 1)
        b.append(200, 2, 0, 3, 1)
        trace = b.build()
        assert list(trace.time_ns) == [100, 200, 300]
        assert list(trace.cpu) == [1, 2, 0]

    def test_flags_encoding(self):
        b = TraceBuilder()
        b.append(0, 0, 0, 1, 1, is_write=True, is_instr=True, is_kernel=True)
        trace = b.build()
        assert trace.flags[0] == FLAG_WRITE | FLAG_INSTR | FLAG_KERNEL
        assert trace.is_write[0] and trace.is_instr[0] and trace.is_kernel[0]

    def test_len(self):
        b = TraceBuilder()
        assert len(b) == 0
        b.append(0, 0, 0, 1, 1)
        assert len(b) == 1


class TestValidation:
    def test_unsorted_times_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                np.array([2, 1]), np.array([0, 0]), np.array([0, 0]),
                np.array([0, 0]), np.array([1, 1]), np.array([0, 0]),
            )

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                np.array([1]), np.array([0]), np.array([0]),
                np.array([0]), np.array([0]), np.array([0]),
            )

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                np.array([1, 2]), np.array([0]), np.array([0, 0]),
                np.array([0, 0]), np.array([1, 1]), np.array([0, 0]),
            )

    def test_negative_page_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                np.array([1]), np.array([0]), np.array([0]),
                np.array([-1]), np.array([1]), np.array([0]),
            )

    def test_negative_cpu_rejected(self):
        with pytest.raises(TraceError, match="cpu ids must be non-negative"):
            Trace(
                np.array([1]), np.array([-1]), np.array([0]),
                np.array([0]), np.array([1]), np.array([0]),
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                np.array([1]), np.array([0]), np.array([0]),
                np.array([0]), np.array([-3]), np.array([0]),
            )

    def test_empty_trace_is_valid(self):
        empty = np.array([], dtype=np.int64)
        trace = Trace(empty, empty, empty, empty, empty, empty)
        assert len(trace) == 0

    def test_equal_timestamps_are_valid(self):
        trace = Trace(
            np.array([5, 5, 5]), np.array([0, 1, 2]), np.array([0, 0, 0]),
            np.array([1, 2, 3]), np.array([1, 1, 1]), np.array([0, 0, 0]),
        )
        assert trace.duration_ns == 0

    def test_flag_round_trip(self):
        """Every flag combination survives build + select + masks."""
        combos = [
            (w, instr, k)
            for w in (False, True)
            for instr in (False, True)
            for k in (False, True)
        ]
        b = TraceBuilder()
        for i, (w, instr, k) in enumerate(combos):
            b.append(i, 0, 0, i, 1, is_write=w, is_instr=instr, is_kernel=k)
        trace = b.build()
        assert list(trace.is_write) == [False] * 4 + [True] * 4
        assert list(trace.is_instr) == [False, False, True, True] * 2
        assert list(trace.is_kernel) == [False, True] * 4
        want = [
            (FLAG_WRITE if w else 0)
            | (FLAG_INSTR if instr else 0)
            | (FLAG_KERNEL if k else 0)
            for w, instr, k in combos
        ]
        assert list(trace.flags) == want
        assert list(trace.user_only().flags) == [
            f for f in want if not f & FLAG_KERNEL
        ]


class TestViews:
    def test_basic_shape(self, tiny_trace):
        assert len(tiny_trace) == 8
        assert tiny_trace.total_misses == 50
        assert tiny_trace.n_pages == 3
        assert tiny_trace.duration_ns == 700
        assert tiny_trace.max_page_id() == 2

    def test_selection_filters(self, tiny_trace):
        assert len(tiny_trace.kernel_only()) == 1
        assert len(tiny_trace.user_only()) == 7
        assert len(tiny_trace.instr_only()) == 2
        assert len(tiny_trace.data_only()) == 6

    def test_empty_trace_properties(self):
        trace = TraceBuilder().build()
        assert trace.total_misses == 0
        assert trace.duration_ns == 0
        assert trace.n_pages == 0
        assert trace.max_page_id() == -1


class TestMerge:
    def test_merge_sorts_globally(self):
        a = TraceBuilder()
        a.append(10, 0, 0, 1, 1)
        a.append(30, 0, 0, 1, 1)
        b = TraceBuilder()
        b.append(20, 1, 0, 2, 1)
        merged = merge_traces([a.build(), b.build()])
        assert list(merged.time_ns) == [10, 20, 30]
        assert merged.total_misses == 3

    def test_merge_empty_rejected(self):
        with pytest.raises(TraceError):
            merge_traces([TraceBuilder().build()])

    def _one_record(self, t, meta):
        b = TraceBuilder(meta=meta)
        b.append(t, 0, 0, 1, 1)
        return b.build()

    def test_merge_keeps_shared_meta(self):
        from repro.workloads import build_spec

        spec = build_spec("database", scale=0.02, seed=3)
        merged = merge_traces(
            [self._one_record(10, spec), self._one_record(20, spec)]
        )
        assert merged.meta is spec

    def test_merge_keeps_meta_of_equal_identities(self):
        from repro.workloads import build_spec

        a = build_spec("database", scale=0.02, seed=3)
        b = build_spec("database", scale=0.02, seed=3)
        merged = merge_traces(
            [self._one_record(10, a), self._one_record(20, b)]
        )
        assert merged.meta_identity() == a.identity()

    def test_merge_mixed_meta_warns_and_drops(self):
        from repro.workloads import build_spec

        a = build_spec("database", scale=0.02, seed=3)
        b = build_spec("pmake", scale=0.02, seed=3)
        with pytest.warns(UserWarning, match="differing workload metadata"):
            merged = merge_traces(
                [self._one_record(10, a), self._one_record(20, b)]
            )
        assert merged.meta is None

    def test_merge_meta_with_none_warns_and_drops(self):
        from repro.workloads import build_spec

        a = build_spec("database", scale=0.02, seed=3)
        with pytest.warns(UserWarning, match="differing workload metadata"):
            merged = merge_traces(
                [self._one_record(10, a), self._one_record(20, None)]
            )
        assert merged.meta is None

    def test_merge_all_none_meta_is_quiet(self, recwarn):
        merged = merge_traces(
            [self._one_record(10, None), self._one_record(20, None)]
        )
        assert merged.meta is None
        assert not recwarn.list


@given(
    st.lists(
        st.tuples(
            st.integers(0, 10_000),   # time
            st.integers(0, 7),        # cpu
            st.integers(0, 3),        # process
            st.integers(0, 100),      # page
            st.integers(1, 1000),     # weight
        ),
        min_size=1,
        max_size=100,
    )
)
def test_build_preserves_total_weight_and_sorts(rows):
    b = TraceBuilder()
    for t, c, p, pg, w in rows:
        b.append(t, c, p, pg, w)
    trace = b.build()
    assert trace.total_misses == sum(r[4] for r in rows)
    assert np.all(np.diff(trace.time_ns) >= 0)
