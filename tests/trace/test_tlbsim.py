"""TLB-miss derivation (Section 8.3).

The bulk deriver in :mod:`repro.trace.tlbsim` is checked column for
column against :func:`reference_tlb_trace`, the per-record loop it
replaced, and against column digests pinned from that loop.
"""

import hashlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.machine.config import TlbConfig
from repro.trace.record import (
    FLAG_INSTR,
    FLAG_KERNEL,
    FLAG_WRITE,
    Trace,
    TraceBuilder,
)
from repro.trace.tlbsim import (
    DEFAULT_TLB_FACTOR,
    TlbTraceDeriver,
    derive_tlb_trace,
    merge_cost_driver,
    merged_tlb_stream,
)
from repro.workloads import WORKLOAD_NAMES, build_spec, generate_trace

COLUMNS = ("time_ns", "cpu", "process", "page", "weight", "flags")


def build(rows, meta=None):
    b = TraceBuilder(meta=meta)
    for r in rows:
        b.append(*r)
    return b.build()


def reference_tlb_trace(trace, n_cpus, tlb_config=None, factor_of_page=None):
    """The per-record derivation the bulk deriver must reproduce.

    One ``OrderedDict`` LRU per CPU, one record at a time, and Python's
    ``round`` on each missed record's scaled weight.
    """
    entries = (tlb_config or TlbConfig()).entries
    if factor_of_page is None:
        if trace.meta is not None:
            factor_of_page = trace.meta.tlb_factor_of_page
        else:
            factor_of_page = lambda page: DEFAULT_TLB_FACTOR
    tlbs = [OrderedDict() for _ in range(n_cpus)]
    builder = TraceBuilder(meta=trace.meta)
    for i in range(len(trace)):
        cpu = int(trace.cpu[i])
        page = int(trace.page[i])
        tlb = tlbs[cpu]
        if page in tlb:
            tlb.move_to_end(page)
            continue
        if len(tlb) >= entries:
            tlb.popitem(last=False)
        tlb[page] = True
        factor = float(factor_of_page(page))
        flag = int(trace.flags[i])
        builder.append(
            int(trace.time_ns[i]),
            cpu,
            int(trace.process[i]),
            page,
            weight=max(1, int(round(int(trace.weight[i]) * factor))),
            is_write=bool(flag & FLAG_WRITE),
            is_instr=bool(flag & FLAG_INSTR),
            is_kernel=bool(flag & FLAG_KERNEL),
        )
    return builder.build(sort=False)


def columns_digest(trace):
    """sha256 over all six columns, in the benchmark's column order."""
    digest = hashlib.sha256()
    for column in COLUMNS:
        digest.update(np.ascontiguousarray(getattr(trace, column)).tobytes())
    return digest.hexdigest()


def assert_same_columns(got, want):
    for column in COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column


#: Column sha256 of ``derive_tlb_trace(trace.user_only(), n_cpus)`` for
#: each named workload, recorded from the per-record loop.
PINNED_TLB_DIGESTS = {
    ("engineering", 0.02, 0): "dc5c29b8534f7f8c0de6b7f5ada36d3344c5329659185ce6e0ce85559da13b2d",
    ("raytrace", 0.02, 0): "d6dada6cc13d75a097f210acabde6729861dc4d8c4b30e916ee5d6c015bfca55",
    ("splash", 0.02, 0): "3357c4c8a78cba40d9951b913ccfe6200f8a404e147537098bae7a3a73fa8165",
    ("database", 0.02, 0): "eaca7bca7ca7e6ecde3a1b1a59bc6c534e6201fd7ff4ebae5517373e46085a52",
    ("pmake", 0.02, 0): "f30cbbbaf983f61f86c2c2679fbd45b86946417aa01a621ffa73048457ca3b24",
    ("engineering", 0.05, 7): "ed33e0e146fbcd7bee9fb24922df0679612fbe47fe4d9354c854b31a00d5e955",
    ("raytrace", 0.05, 7): "85cbe0d8643da0c1adeaa48145945b507a08c633bb65718a960a3007f02663cc",
    ("splash", 0.05, 7): "7fa6792516b762852ab9d499347a300c0c2e8071cc6fcfda2c9326ea462347ed",
    ("database", 0.05, 7): "370af7b6546b9fc6b6003aeeafe8fd231f296281272a75753440f015bea582ed",
    ("pmake", 0.05, 7): "0e2ad7dbd9b6f6f0d1cd2396621a38e35a3b40552536003d64b0cc77c66d227f",
}


class TestPinnedDigests:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_scale_002_seed_0(self, name):
        spec = build_spec(name, scale=0.02, seed=0)
        user = generate_trace(spec).user_only()
        tlb = derive_tlb_trace(user, n_cpus=spec.n_cpus)
        assert columns_digest(tlb) == PINNED_TLB_DIGESTS[(name, 0.02, 0)]

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_scale_005_seed_7(self, name, small_workloads):
        # The session fixture is this exact (scale, seed) pair.
        spec, trace = small_workloads[name]
        tlb = derive_tlb_trace(trace.user_only(), n_cpus=spec.n_cpus)
        assert columns_digest(tlb) == PINNED_TLB_DIGESTS[(name, 0.05, 7)]

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_oracle_matches_on_every_workload(self, name, small_workloads):
        # Kernel records included: the oracle and the bulk deriver must
        # agree on the full stream, not only the user half.
        spec, trace = small_workloads[name]
        assert_same_columns(
            derive_tlb_trace(trace, n_cpus=spec.n_cpus),
            reference_tlb_trace(trace, n_cpus=spec.n_cpus),
        )


#: Both derivations, so each LRU case pins the oracle and the deriver.
DERIVERS = pytest.mark.parametrize(
    "derive", [reference_tlb_trace, derive_tlb_trace], ids=["oracle", "bulk"]
)


def _pages(rows, n_cpus=1, entries=None):
    """Derived (cpu, page) misses for ``(cpu, page)`` touches, weight 1."""
    trace = build([(t, cpu, 0, page, 1) for t, (cpu, page) in enumerate(rows)])
    config = TlbConfig(entries) if entries else None
    return trace, dict(n_cpus=n_cpus, tlb_config=config,
                       factor_of_page=lambda p: 1.0)


class TestLru:
    """The LRU cases, on the oracle and on the bulk deriver alike."""

    @DERIVERS
    def test_miss_then_hit(self, derive):
        trace, kwargs = _pages([(0, 5), (0, 5)])
        assert derive(trace, **kwargs).page.tolist() == [5]

    @DERIVERS
    def test_fill_to_default_capacity_then_evict_lru(self, derive):
        # 64 distinct pages fill the default TLB; page 64 evicts page 0,
        # so page 0 misses again while page 1 still hits.
        rows = [(0, p) for p in range(65)] + [(0, 1), (0, 0)]
        trace, kwargs = _pages(rows)
        assert derive(trace, **kwargs).page.tolist() == list(range(65)) + [0]

    @DERIVERS
    def test_hit_promotes_in_eviction_order(self, derive):
        # Touching 1 again makes 2 the LRU entry, so 3 evicts 2, not 1.
        rows = [(0, 1), (0, 2), (0, 1), (0, 3), (0, 1), (0, 2)]
        trace, kwargs = _pages(rows, entries=2)
        assert derive(trace, **kwargs).page.tolist() == [1, 2, 3, 2]

    @DERIVERS
    def test_capacity_one(self, derive):
        rows = [(0, 4), (0, 4), (0, 7), (0, 4), (0, 4)]
        trace, kwargs = _pages(rows, entries=1)
        assert derive(trace, **kwargs).page.tolist() == [4, 7, 4]


class TestCpuRange:
    def _trace(self, rows):
        # Bypass validation: a selected sub-trace is never re-validated,
        # so the deriver must check CPU ids itself.
        cols = list(zip(*rows))
        return Trace(*cols, np.zeros(len(rows)), validate=False)

    def test_negative_cpu_does_not_alias_last_cpu(self):
        trace = self._trace([(0, -1, 0, 5, 1), (1, 1, 0, 5, 1)])
        with pytest.raises(TraceError, match="record cpu -1 outside machine"):
            derive_tlb_trace(trace, n_cpus=2, factor_of_page=lambda p: 1.0)

    def test_cpu_past_machine_rejected(self):
        trace = self._trace([(0, 0, 0, 5, 1), (1, 2, 0, 6, 1)])
        with pytest.raises(TraceError, match="record cpu 2 outside machine"):
            derive_tlb_trace(trace, n_cpus=2, factor_of_page=lambda p: 1.0)

    @pytest.mark.parametrize("bad_cpu", [-1, 2])
    def test_merged_stream_rejects_cpu_outside_machine(self, bad_cpu):
        good = build([(0, 0, 0, 5, 1), (1, 1, 0, 6, 1)])
        bad = self._trace([(2, 0, 0, 5, 1), (3, bad_cpu, 0, 7, 1)])
        stream = merged_tlb_stream([good, bad], n_cpus=2)
        # Both cache misses, and the t=0 TLB miss (t=1's is held back).
        assert len(next(stream)[0]) == 3
        with pytest.raises(
            TraceError, match=f"record cpu {bad_cpu} outside machine"
        ):
            next(stream)

    @pytest.mark.parametrize("bad_cpu", [-1, 2])
    def test_rejected_chunk_leaves_no_state(self, bad_cpu):
        bad = self._trace(
            [(0, 0, 0, 5, 1), (1, 1, 0, 6, 1), (2, bad_cpu, 0, 7, 1)]
        )
        good = build([(3, 0, 0, 5, 1), (4, 1, 0, 6, 1), (5, 1, 0, 7, 1)])
        deriver = TlbTraceDeriver(2, factor_of_page=lambda p: 1.0)
        with pytest.raises(TraceError):
            deriver.feed(bad)
        fresh = TlbTraceDeriver(2, factor_of_page=lambda p: 1.0)
        got = deriver.feed(good)
        assert len(got) == 3        # pages 5 and 6 were never filled
        assert_same_columns(got, fresh.feed(good))


# -- hypothesis: the bulk deriver against the oracle ---------------------------

#: Factors that make exact ``.5`` products with small integer weights,
#: so half-to-even rounding is exercised on both sides.
FACTORS = (0.5, 1.5, 2.5, 0.25, 0.75, 0.01, 0.3, 1.0)


@st.composite
def tlb_cases(draw):
    n_cpus = draw(st.integers(1, 4))
    n = draw(st.integers(1, 120))
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    trace = Trace(
        np.cumsum(steps),
        draw(ints(0, n_cpus - 1)),
        draw(ints(0, 3)),
        draw(ints(0, 20)),
        draw(ints(1, 40)),
        draw(ints(0, 15)),
    )
    factors = draw(
        st.lists(st.sampled_from(FACTORS), min_size=21, max_size=21)
    )
    entries = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    kwargs = dict(n_cpus=n_cpus, tlb_config=TlbConfig(entries),
                  factor_of_page=lambda page: factors[page])
    return trace, kwargs, cuts


def _chunks(trace, cuts):
    bounds = [0] + cuts + [len(trace)]
    return [trace.select(slice(a, b)) for a, b in zip(bounds, bounds[1:])]


def feed_chunks(chunks, n_cpus, tlb_config=None, factor_of_page=None):
    """One stateful deriver fed chunk by chunk: one derived piece each."""
    deriver = TlbTraceDeriver(
        n_cpus, tlb_config=tlb_config, factor_of_page=factor_of_page
    )
    return [deriver.feed(chunk) for chunk in chunks]


class TestOracleIdentity:
    @settings(max_examples=150, deadline=None)
    @given(tlb_cases())
    def test_whole_trace(self, case):
        trace, kwargs, _ = case
        assert_same_columns(
            derive_tlb_trace(trace, **kwargs),
            reference_tlb_trace(trace, **kwargs),
        )

    @settings(max_examples=150, deadline=None)
    @given(tlb_cases())
    def test_chunks_at_random_cuts(self, case):
        trace, kwargs, cuts = case
        want = reference_tlb_trace(trace, **kwargs)
        pieces = feed_chunks(_chunks(trace, cuts), **kwargs)
        for column in COLUMNS:
            got = np.concatenate(
                [getattr(want, column)[:0]]
                + [getattr(piece, column) for piece in pieces]
            )
            assert got.dtype == getattr(want, column).dtype, column
            assert np.array_equal(got, getattr(want, column)), column

    @settings(max_examples=150, deadline=None)
    @given(tlb_cases())
    def test_merged_stream_equals_whole_trace_merge(self, case):
        trace, kwargs, cuts = case
        want = reference_tlb_trace(trace, **kwargs)
        # The whole-trace merge: time order, cost records first on ties.
        times = np.concatenate([trace.time_ns, want.time_ns])
        order = np.argsort(times, kind="stable")
        merged = (
            times,
            np.concatenate([trace.cpu, want.cpu]),
            np.concatenate([trace.page, want.page]),
            np.concatenate([trace.weight, want.weight]),
            np.concatenate([trace.is_write, want.is_write]),
            np.concatenate([np.ones(len(trace), bool),
                            np.zeros(len(want), bool)]),
        )
        batches = list(merged_tlb_stream(_chunks(trace, cuts), **kwargs))
        for got, column in zip(zip(*batches), merged):
            got = np.concatenate(got)
            assert got.dtype == column.dtype
            assert np.array_equal(got, column[order])


def test_resident_page_produces_no_tlb_misses():
    rows = [(t, 0, 0, 5, 10) for t in range(0, 100, 10)]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 1.0)
    assert len(tlb) == 1          # only the first touch misses


def test_capacity_thrash_produces_many_misses():
    config = TlbConfig(entries=4)
    # Sweep 8 pages repeatedly through a 4-entry TLB: every touch misses.
    rows = [(t, 0, 0, t % 8, 10) for t in range(64)]
    trace = build(rows)
    tlb = derive_tlb_trace(
        trace, n_cpus=1, tlb_config=config, factor_of_page=lambda p: 1.0
    )
    assert len(tlb) == 64


def test_factor_scales_weight():
    rows = [(0, 0, 0, 5, 100)]
    trace = build(rows)
    low = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 0.01)
    high = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 1.0)
    assert low.total_misses == 1          # max(1, 100*0.01)
    assert high.total_misses == 100


def test_code_pages_nearly_invisible_to_tlb():
    """The engineering-workload mechanism: huge cache-miss weight, tiny
    TLB-miss weight, because the hot code pages stay TLB-resident."""
    rows = [(t, 0, 0, 1, 500) for t in range(0, 1000, 10)]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 0.01)
    assert tlb.total_misses <= 5
    assert trace.total_misses == 50_000


def test_write_flag_survives():
    rows = [(0, 0, 0, 5, 10, True)]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=1, factor_of_page=lambda p: 1.0)
    assert bool(tlb.is_write[0])


def test_per_cpu_tlbs_independent():
    rows = [
        (0, 0, 0, 5, 10),
        (1, 1, 0, 5, 10),   # cpu 1's TLB has not seen page 5
    ]
    trace = build(rows)
    tlb = derive_tlb_trace(trace, n_cpus=2, factor_of_page=lambda p: 1.0)
    assert len(tlb) == 2


def test_uses_workload_meta_factors(engineering):
    spec, trace = engineering
    sample = trace.select(trace.page == trace.page[0])
    tlb = derive_tlb_trace(trace, n_cpus=spec.n_cpus)
    assert len(tlb) > 0
    # Instruction pages (tlb_factor ~0.01) are under-represented relative
    # to their cache-miss weight.
    cache_instr_frac = trace.instr_only().total_misses / trace.total_misses
    tlb_instr_frac = tlb.instr_only().total_misses / tlb.total_misses
    assert tlb_instr_frac < cache_instr_frac / 3
    del sample


def test_timestamps_preserved():
    rows = [(123, 0, 0, 5, 10)]
    tlb = derive_tlb_trace(build(rows), n_cpus=1, factor_of_page=lambda p: 1.0)
    assert tlb.time_ns[0] == 123


class TestStreamingDerivation:
    def chunked(self, trace, size):
        return [
            trace.select(slice(k, k + size))
            for k in range(0, len(trace), size)
        ]

    def test_chunked_equals_full(self):
        from repro.trace.record import merge_traces

        config = TlbConfig(entries=4)
        rows = [(t * 10, t % 2, 0, (t * 3) % 11, 5) for t in range(300)]
        trace = build(rows)
        full = derive_tlb_trace(
            trace, n_cpus=2, tlb_config=config, factor_of_page=lambda p: 1.0
        )
        for size in (1, 17, 100, 1000):
            pieces = feed_chunks(
                self.chunked(trace, size), n_cpus=2,
                tlb_config=config, factor_of_page=lambda p: 1.0,
            )
            streamed = merge_traces(pieces)
            assert len(streamed) == len(full), size
            assert list(streamed.time_ns) == list(full.time_ns), size
            assert list(streamed.weight) == list(full.weight), size

    def test_tlb_state_survives_chunk_boundaries(self):
        from repro.trace.tlbsim import TlbTraceDeriver

        deriver = TlbTraceDeriver(1, factor_of_page=lambda p: 1.0)
        first = deriver.feed(build([(0, 0, 0, 5, 10)]))
        again = deriver.feed(build([(10, 0, 0, 5, 10)]))
        assert len(first) == 1      # first touch misses
        assert len(again) == 0      # still resident across the boundary

    def test_only_first_touch_chunk_derives_records(self):
        trace = build([(t, 0, 0, 5, 10) for t in range(0, 100, 10)])
        pieces = feed_chunks(
            self.chunked(trace, 2), n_cpus=1, factor_of_page=lambda p: 1.0
        )
        # Only the chunk containing the first touch produces records.
        assert [len(piece) for piece in pieces] == [1, 0, 0, 0, 0]


class TestEdgeCases:
    def test_empty_trace_derives_empty(self):
        tlb = derive_tlb_trace(build([]), n_cpus=2)
        assert len(tlb) == 0

    def test_empty_trace_without_cpu_hint(self):
        # n_cpus is inferred from the CPU column; an empty one must not
        # make the deriver guess wildly or crash.
        tlb = derive_tlb_trace(build([]))
        assert len(tlb) == 0

    def test_idle_cpus_carry_no_records(self):
        # CPUs 0, 2 and 3 exist but never miss; only CPU 1's TLB fills.
        rows = [(t, 1, 0, t % 8, 10) for t in range(16)]
        tlb = derive_tlb_trace(
            build(rows), n_cpus=4, factor_of_page=lambda p: 1.0
        )
        assert len(tlb) > 0
        assert set(tlb.cpu.tolist()) == {1}

    def test_empty_chunk_stream_yields_nothing(self):
        assert list(merged_tlb_stream([], n_cpus=2)) == []
        assert list(merged_tlb_stream([build([])], n_cpus=2)) == []
        assert len(TlbTraceDeriver(2).feed(build([]))) == 0


class TestChunkedIdentity:
    """Satellite check: streamed derivation is byte-identical to the
    materialized path, and identical all the way through the PT-policy
    walk counters it ends up driving."""

    ROWS = [(t * 10, t % 2, t % 2, (t * 3) % 11, 5) for t in range(240)]

    def _full_and_streamed(self, size):
        import numpy as np

        from repro.trace.record import merge_traces

        config = TlbConfig(entries=4)
        trace = build(self.ROWS)
        full = derive_tlb_trace(
            trace, n_cpus=2, tlb_config=config, factor_of_page=lambda p: 1.0
        )
        chunks = [
            trace.select(slice(k, k + size))
            for k in range(0, len(trace), size)
        ]
        streamed = merge_traces(
            feed_chunks(
                chunks, n_cpus=2, tlb_config=config,
                factor_of_page=lambda p: 1.0,
            )
        )
        return full, streamed, np

    def test_single_chunk_window_is_byte_identical(self):
        full, streamed, np = self._full_and_streamed(size=10**9)
        for column in ("time_ns", "cpu", "process", "page", "weight", "flags"):
            a, b = getattr(full, column), getattr(streamed, column)
            assert a.dtype == b.dtype, column
            assert np.array_equal(a, b), column

    def test_chunked_windows_are_byte_identical(self):
        for size in (1, 7, 64):
            full, streamed, np = self._full_and_streamed(size)
            for column in (
                "time_ns", "cpu", "process", "page", "weight", "flags"
            ):
                assert np.array_equal(
                    getattr(full, column), getattr(streamed, column)
                ), (size, column)

    def test_both_paths_drive_identical_pt_walk_counters(self):
        from repro.ptpol.sim import (
            PtPolicySimulator,
            ReferencePtPolicySimulator,
            params_for_pt_policy,
        )
        from repro.trace.policysim import PolicySimConfig

        full, streamed, _ = self._full_and_streamed(size=31)
        trace = build(self.ROWS)
        config = PolicySimConfig(
            n_cpus=2, n_nodes=2, pt_span_pages=4, decision_delay_ns=1,
        )
        params = params_for_pt_policy("ptrepl", trigger=4)
        # Each derivation drives the reference core and the production
        # replay; all four runs must agree.
        runs = []
        for driver in (full, streamed):
            for cls in (ReferencePtPolicySimulator, PtPolicySimulator):
                sim = cls(config=config)
                result = sim.simulate(trace, params, driver_trace=driver)
                runs.append((result, sim.tally))
        result_a, tally_a = runs[0]
        assert tally_a.walks > 0
        for result_b, tally_b in runs[1:]:
            assert tally_a.to_dict() == tally_b.to_dict()
            assert result_a.stall_ns == result_b.stall_ns
            assert result_a.extra == result_b.extra


# -- the cost/driver tie rule ----------------------------------------------------


def two_pointer_merge(cost, driver):
    """The scalar merge the oracle checks against: rows and cost flags.

    Walks both streams in time order and takes the cost record whenever
    its timestamp is at or below the driver record's.
    """
    rows, flags = [], []
    i = j = 0
    n_cost, n_driver = len(cost[0]), len(driver[0])
    while i < n_cost or j < n_driver:
        if j >= n_driver or (i < n_cost and cost[0][i] <= driver[0][j]):
            rows.append(tuple(col[i].item() for col in cost))
            flags.append(True)
            i += 1
        else:
            rows.append(tuple(col[j].item() for col in driver))
            flags.append(False)
            j += 1
    return rows, flags


#: Trace column dtypes, with the process column the PT replay merges.
TIE_DTYPES = (np.int64, np.int16, np.int32, np.int64, np.int64, np.bool_)


@st.composite
def tie_streams(draw, max_len=40):
    """Two time-ordered column tuples whose timestamps tie often."""

    def stream():
        n = draw(st.integers(0, max_len))
        steps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        rest = [
            draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
            for lo, hi in ((0, 7), (0, 3), (0, 50), (1, 9), (0, 1))
        ]
        columns = [np.cumsum(steps, dtype=np.int64)] + rest
        return tuple(
            np.asarray(col, dtype=dtype)
            for col, dtype in zip(columns, TIE_DTYPES)
        )

    return stream(), stream()


class TestTieRule:
    """``merge_cost_driver`` against a two-pointer merge."""

    def check(self, cost, driver):
        merged, costmask = merge_cost_driver(cost, driver)
        rows, flags = two_pointer_merge(cost, driver)
        assert costmask.dtype == np.bool_
        assert costmask.tolist() == flags
        for got, want in zip(merged, cost):
            assert got.dtype == want.dtype
        assert list(zip(*(col.tolist() for col in merged))) == rows
        return merged, costmask

    @settings(max_examples=200, deadline=None)
    @given(tie_streams())
    def test_matches_two_pointer_merge(self, streams):
        self.check(*streams)

    def test_equal_timestamps_within_and_across_streams(self):
        def stream(times, tag):
            n = len(times)
            return (np.asarray(times, np.int64),
                    np.full(n, tag, np.int16),
                    np.arange(n, dtype=np.int32),
                    np.arange(n, dtype=np.int64),
                    np.ones(n, np.int64),
                    np.zeros(n, bool))

        merged, costmask = self.check(
            stream([5, 5, 7], tag=0), stream([3, 5, 5, 7], tag=1)
        )
        assert merged[0].tolist() == [3, 5, 5, 5, 5, 7, 7]
        assert costmask.tolist() == [False, True, True, False, False,
                                     True, False]
        # Each side keeps its own order among equal timestamps.
        assert merged[2].tolist() == [0, 0, 1, 1, 2, 2, 3]

    @pytest.mark.parametrize("empty_side", ["cost", "driver"])
    def test_empty_side(self, empty_side):
        full = (np.array([1, 1, 4], np.int64), np.array([0, 1, 0], np.int16),
                np.array([2, 2, 3], np.int32), np.array([9, 8, 7], np.int64),
                np.array([1, 2, 3], np.int64), np.array([1, 0, 1], bool))
        empty = tuple(col[:0] for col in full)
        cost, driver = (empty, full) if empty_side == "cost" else (full, empty)
        merged, costmask = self.check(cost, driver)
        assert costmask.tolist() == [empty_side == "driver"] * 3
        for got, want in zip(merged, full):
            assert np.array_equal(got, want)

    def test_process_column_follows_its_record(self):
        cost = (np.array([0, 2], np.int64), np.array([10, 20], np.int32))
        driver = (np.array([1, 2], np.int64), np.array([11, 21], np.int32))
        merged, _ = self.check(cost, driver)
        assert merged[1].tolist() == [10, 11, 20, 21]

    def test_different_workloads_rejected(self):
        database = build_spec("database", scale=0.02, seed=0)
        splash = build_spec("splash", scale=0.02, seed=0)
        columns = (np.zeros(1, np.int64),)
        with pytest.raises(TraceError, match="different workloads"):
            merge_cost_driver(columns, columns, database, splash)
        # Same workload, or a side without metadata, merges.
        same = build_spec("database", scale=0.02, seed=0)
        for metas in ((database, same), (database, None), (None, splash)):
            merge_cost_driver(columns, columns, *metas)

    @pytest.mark.parametrize("reference", [False, True])
    def test_replays_reject_a_driver_from_another_workload(self, reference):
        from repro.policy.metrics import FULL_TLB
        from repro.policy.parameters import PolicyParameters
        from repro.ptpol.sim import (
            PtPolicySimulator,
            ReferencePtPolicySimulator,
            params_for_pt_policy,
        )
        from repro.trace.policysim import (
            PolicySimConfig,
            ReferenceTracePolicySimulator,
            TracePolicySimulator,
        )

        rows = [(t, t % 2, 0, t % 5, 3) for t in range(20)]
        cost = build(rows, meta=build_spec("database", scale=0.02, seed=0))
        driver = build(rows, meta=build_spec("splash", scale=0.02, seed=0))
        config = PolicySimConfig(n_cpus=2, n_nodes=2)
        data_sim = (ReferenceTracePolicySimulator if reference
                    else TracePolicySimulator)(config)
        with pytest.raises(TraceError, match="different workloads"):
            data_sim.simulate_dynamic(
                cost, PolicyParameters(), metric=FULL_TLB,
                driver_trace=driver,
            )
        pt_sim = (ReferencePtPolicySimulator if reference
                  else PtPolicySimulator)(config=config)
        with pytest.raises(TraceError, match="different workloads"):
            pt_sim.simulate(
                cost, params_for_pt_policy("ptmigr", trigger=4),
                driver_trace=driver,
            )
