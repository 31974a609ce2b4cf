"""Trace synthesis: determinism, structure, calibration properties."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.common.units import SEC, ms
from repro.kernel.sched.process import Epoch, Process, Schedule
from repro.trace.record import Trace, TraceBuilder
from repro.workloads import WORKLOAD_NAMES, build_spec, generate_trace
from repro.workloads.base import TraceGenerator, scaled_duration
from repro.workloads.spec import PageGroupSpec, SharingClass, WorkloadSpec

COLUMNS = ("time_ns", "cpu", "process", "page", "weight", "flags")


def columns_digest(trace: Trace) -> str:
    """sha256 over all six columns, in the benchmark's column order."""
    digest = hashlib.sha256()
    for name in COLUMNS:
        digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    return digest.hexdigest()


def reference_trace(spec: WorkloadSpec) -> Trace:
    """The per-record generator: one ``TraceBuilder.append`` per record.

    This is the loop the columnar :class:`TraceGenerator` replaced, kept
    as its oracle.  It draws from the generator pick by pick — one
    ``integers`` call per hot and per cold pick set, one scalar
    ``random()`` per positive-weight pick of a written group — which is
    the stream the columnar draws must reproduce.
    """
    rng = make_rng(spec.seed, "trace-generator", spec.name)
    builder = TraceBuilder(meta=spec)

    def normalised(instances):
        total = sum(inst.spec.miss_share for inst in instances)
        if total <= 0:
            return []
        return [(inst, inst.spec.miss_share / total) for inst in instances]

    def pick(first_page, range_pages, k):
        offsets = rng.integers(0, range_pages, size=min(k, range_pages))
        return sorted({first_page + int(o) for o in offsets})

    def emit(start_ns, span_ns, cpu, pid, budget, instances, kernel):
        if budget < 1.0 or not instances:
            return
        cpu_phase = (cpu % 8) * (span_ns // 16)
        for inst, share in instances:
            group = inst.spec
            group_weight = int(round(budget * share))
            if group_weight <= 0:
                continue
            hot_n = max(1, int(round(group.hot_fraction * inst.n_pages)))
            k_hot = min(group.pages_per_quantum, inst.n_pages)
            k_cold = k_hot if inst.n_pages > hot_n else 0
            hot_pages = pick(inst.first_page, hot_n, k_hot)
            hot_budget = int(round(group_weight * group.hot_weight))
            picks = [(page, True) for page in hot_pages]
            if k_cold:
                cold_pages = pick(inst.first_page, inst.n_pages, k_cold)
                cold_budget = group_weight - hot_budget
                picks.extend(
                    (page, False) for page in cold_pages if page not in hot_pages
                )
            else:
                cold_budget = 0
                hot_budget = group_weight
            n_hot = sum(1 for _, is_hot in picks if is_hot)
            n_cold = len(picks) - n_hot
            step = max(1, span_ns // (len(picks) + 1))
            for j, (page, is_hot) in enumerate(picks):
                if is_hot:
                    weight = hot_budget // max(n_hot, 1)
                else:
                    weight = cold_budget // max(n_cold, 1)
                if weight <= 0:
                    continue
                when = start_ns + (j * step + cpu_phase) % span_ns
                writes = 0
                if group.write_fraction > 0.0:
                    expected = weight * group.write_fraction
                    writes = int(expected)
                    if rng.random() < expected - writes:
                        writes += 1
                    writes = min(writes, weight)
                reads = weight - writes
                if reads > 0:
                    builder.append(when, cpu, pid, page, reads, False,
                                   group.is_instr, kernel)
                if writes > 0:
                    builder.append(when + 1, cpu, pid, page, writes, True,
                                   group.is_instr, kernel)

    quantum = spec.quantum_ns
    user_budget = spec.user_miss_rate * quantum / SEC
    kernel_budget = spec.kernel_miss_rate * quantum / SEC
    time = spec.schedule.start_ns
    while time < spec.schedule.end_ns:
        epoch = spec.schedule.at(time)
        span = min(quantum, spec.schedule.end_ns - time)
        scale = span / quantum
        for cpu in sorted(epoch.running):
            pid = epoch.running[cpu]
            emit(time, span, cpu, pid, user_budget * scale,
                 normalised(spec.instances_for_process(pid)), False)
            emit(time, span, cpu, pid, kernel_budget * scale,
                 normalised(spec.kernel_instances_for_cpu(cpu, pid)), True)
        time += span
    return builder.build(sort=True)


def assert_same_columns(actual: Trace, expected: Trace) -> None:
    for name in COLUMNS:
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert np.array_equal(a, e), name


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        a = generate_trace(build_spec("database", scale=0.02, seed=11))
        b = generate_trace(build_spec("database", scale=0.02, seed=11))
        assert np.array_equal(a.time_ns, b.time_ns)
        assert np.array_equal(a.page, b.page)
        assert np.array_equal(a.weight, b.weight)

    def test_different_seed_different_trace(self):
        a = generate_trace(build_spec("database", scale=0.02, seed=1))
        b = generate_trace(build_spec("database", scale=0.02, seed=2))
        assert not np.array_equal(a.page, b.page)


class TestStructure:
    def test_trace_is_sorted(self, engineering):
        _, trace = engineering
        assert np.all(np.diff(trace.time_ns) >= 0)

    def test_pages_within_spec_ranges(self, engineering):
        spec, trace = engineering
        assert trace.page.min() >= 0
        assert trace.page.max() < spec.total_pages

    def test_kernel_flag_matches_groups(self, engineering):
        spec, trace = engineering
        for i in range(0, len(trace), 997):
            group = spec.group_of_page(int(trace.page[i]))
            assert bool(trace.is_kernel[i]) == group.is_kernel

    def test_instr_flag_matches_groups(self, engineering):
        spec, trace = engineering
        for i in range(0, len(trace), 997):
            group = spec.group_of_page(int(trace.page[i]))
            assert bool(trace.is_instr[i]) == group.is_instr

    def test_private_pages_touched_only_by_owner(self, engineering):
        spec, trace = engineering
        for inst in spec.instances:
            if inst.spec.sharing is not SharingClass.PRIVATE:
                continue
            mask = (trace.page >= inst.first_page) & (
                trace.page <= inst.last_page
            )
            owners = set(np.unique(trace.process[mask]))
            assert owners <= {inst.owner}

    def test_code_pages_never_written(self, engineering):
        spec, trace = engineering
        for inst in spec.instances:
            if inst.spec.sharing is not SharingClass.CODE:
                continue
            mask = (trace.page >= inst.first_page) & (
                trace.page <= inst.last_page
            )
            assert not trace.is_write[mask].any()

    def test_records_only_from_scheduled_cpus(self, engineering):
        spec, trace = engineering
        for i in range(0, len(trace), 1499):
            t = int(trace.time_ns[i])
            pid = int(trace.process[i])
            cpu = int(trace.cpu[i])
            if trace.is_kernel[i]:
                continue
            assert spec.schedule.cpu_of(pid, t) == cpu


class TestCalibration:
    def test_total_misses_near_expected(self, engineering):
        spec, trace = engineering
        expected = spec.expected_user_misses() + spec.expected_kernel_misses()
        assert trace.total_misses == pytest.approx(expected, rel=0.15)

    def test_write_fraction_respected(self, database):
        spec, trace = database
        sync = next(i for i in spec.instances if i.spec.name == "sync-pages")
        mask = (trace.page >= sync.first_page) & (trace.page <= sync.last_page)
        writes = int(trace.weight[mask & trace.is_write].sum())
        total = int(trace.weight[mask].sum())
        assert writes / total == pytest.approx(0.55, abs=0.05)

    def test_hot_pages_concentrate_weight(self, raytrace):
        spec, trace = raytrace
        scene = next(i for i in spec.instances if i.spec.name == "scene")
        hot_n = max(1, round(scene.spec.hot_fraction * scene.n_pages))
        mask = (trace.page >= scene.first_page) & (
            trace.page <= scene.last_page
        )
        hot_mask = mask & (trace.page < scene.first_page + hot_n)
        hot_weight = int(trace.weight[hot_mask].sum())
        total = int(trace.weight[mask].sum())
        assert hot_weight / total == pytest.approx(
            scene.spec.hot_weight, abs=0.08
        )


class TestScaling:
    def test_scaled_duration(self):
        assert scaled_duration(1_000_000_000, 0.5) == 500_000_000
        with pytest.raises(ConfigurationError):
            scaled_duration(1_000, 0)

    def test_scale_changes_trace_length(self):
        small = generate_trace(build_spec("database", scale=0.02, seed=0))
        bigger = generate_trace(build_spec("database", scale=0.04, seed=0))
        assert len(bigger) > len(small) * 1.5


class TestAllFiveWorkloads:
    @pytest.mark.parametrize(
        "name", ["engineering", "raytrace", "splash", "database", "pmake"]
    )
    def test_builds_and_generates(self, name, small_workloads):
        spec, trace = small_workloads[name]
        assert len(trace) > 100
        assert trace.total_misses > 1000
        assert spec.total_pages > 100

    def test_database_uses_four_cpus(self, database):
        spec, trace = database
        assert spec.n_cpus == 4
        assert int(trace.cpu.max()) < 4

    def test_pmake_is_kernel_heavy(self, pmake):
        _, trace = pmake
        kernel = trace.kernel_only().total_misses
        assert kernel / trace.total_misses > 0.5

    def test_pmake_kernel_code_share(self, pmake):
        """~12 % of kernel misses are kernel text (Section 8.2)."""
        spec, trace = pmake
        kern = trace.kernel_only()
        code = kern.instr_only().total_misses
        assert code / kern.total_misses == pytest.approx(0.12, abs=0.04)

    def test_memory_footprints_roughly_match_table2(self, small_workloads):
        expected_mb = {
            "engineering": 27.5,
            "raytrace": 28.8,
            "splash": 57.6,
            "database": 20.8,
            "pmake": 73.7,
        }
        for name, (spec, _) in small_workloads.items():
            assert spec.memory_mb == pytest.approx(
                expected_mb[name], rel=0.40
            ), name


#: Column sha256 of each named workload's trace, recorded from the
#: per-record generator.  Any change to these is a change to every
#: downstream digest and needs a deliberate re-baseline.
PINNED_DIGESTS = {
    ("engineering", 0.02, 0): "32718b9debc68fea255b483a07a559110075277749c781eff7dd1be2f875cfaf",
    ("raytrace", 0.02, 0): "b24b179aba67a823e09c221a7faf19af80b331729f1c68c70c86eb8fde6e37e6",
    ("splash", 0.02, 0): "2690614660f27afcf1ead22071f731d0507e717a5a79bc89d6233c95a183002e",
    ("database", 0.02, 0): "d4625da39a47f8379776858367fe3f3b6e693bc75fc03368da2e747e8ff937fa",
    ("pmake", 0.02, 0): "41392875eec5c35f286352e800b692f9c0318eee3c1c87ec8bbc311f46a30d54",
    ("engineering", 0.05, 7): "9f9874b6e5918d810cbd9109fe3d96bcd2baa19dfa3dbd48422f1a00089094ef",
    ("raytrace", 0.05, 7): "66341fb1d571a1181863f0c624cf6ce360fbd8a0046e1fa9a02ed3b7a1853679",
    ("splash", 0.05, 7): "dc8bbb42b253ee055d878610f61b88b139c8bab457e74b6dba3160e23207f32b",
    ("database", 0.05, 7): "2c67faff41d7e99dcffab56dd49ca8ae9dec5cbdb6aa6699a98555e4b2ef041f",
    ("pmake", 0.05, 7): "10911542805df1336c13ac59fdc651ed76c988ef22cbe1508d570d642cf8c0cb",
}


class TestPinnedDigests:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_scale_002_seed_0(self, name):
        trace = generate_trace(build_spec(name, scale=0.02, seed=0))
        assert columns_digest(trace) == PINNED_DIGESTS[(name, 0.02, 0)]

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_scale_005_seed_7(self, name, small_workloads):
        # The session fixture is this exact (scale, seed) pair.
        _, trace = small_workloads[name]
        assert columns_digest(trace) == PINNED_DIGESTS[(name, 0.05, 7)]


def hand_spec(groups, user_rate=400_000.0, kernel_rate=120_000.0,
              end_ns=ms(40), seed=3):
    """A three-process spec on ten CPUs (CPU 9 wraps the phase slots)."""
    processes = [Process(pid, f"p{pid}") for pid in range(3)]
    schedule = Schedule(
        [
            Epoch(0, ms(25), {0: 0, 1: 1, 9: 2}),
            Epoch(ms(25), end_ns, {2: 0, 9: 1, 0: 2}),
        ],
        n_cpus=10,
    )
    return WorkloadSpec(
        name="hand",
        n_cpus=10,
        n_nodes=5,
        duration_ns=end_ns,
        quantum_ns=ms(10),
        user_miss_rate=user_rate,
        kernel_miss_rate=kernel_rate,
        compute_time_ns=end_ns,
        groups=groups,
        processes=processes,
        schedule=schedule,
        seed=seed,
    )


def group(name, sharing=SharingClass.READ_SHARED, **knobs):
    knobs.setdefault("n_pages", 24)
    knobs.setdefault("miss_share", 0.5)
    knobs.setdefault("write_fraction", 0.3)
    return PageGroupSpec(name=name, sharing=sharing, **knobs)


KERNEL_GROUPS = [
    group("k-percpu", SharingClass.KERNEL_PERCPU, n_pages=6),
    group("k-shared", SharingClass.KERNEL_SHARED, write_fraction=0.5),
    group("k-code", SharingClass.KERNEL_CODE, is_instr=True,
          write_fraction=0.0, miss_share=0.2),
    group("k-process", SharingClass.KERNEL_PROCESS, n_pages=5),
]

HAND_CASES = {
    "hot-weight-0-and-1": dict(groups=[
        group("all-cold", SharingClass.PRIVATE, hot_weight=0.0),
        group("all-hot", hot_weight=1.0),
    ]),
    "write-fraction-0-and-1": dict(groups=[
        group("reads", SharingClass.CODE, is_instr=True, write_fraction=0.0),
        group("writes", SharingClass.WRITE_SHARED, write_fraction=1.0),
    ]),
    "no-cold-set": dict(groups=[
        group("hot-only", hot_fraction=1.0, pages_per_quantum=30),
        group("other", SharingClass.PRIVATE),
    ]),
    "one-page-group": dict(groups=[
        group("single", n_pages=1, pages_per_quantum=4),
        group("other", SharingClass.PRIVATE),
    ]),
    "budget-rounds-below-one": dict(groups=[
        group("tiny", miss_share=1e-5),
        group("big", SharingClass.PRIVATE, miss_share=1.0),
    ], kernel_rate=50.0),
    "partial-last-quantum": dict(groups=[
        group("shared"),
        group("private", SharingClass.PRIVATE),
    ], end_ns=ms(43.7)),
    "restricted-accessors": dict(groups=[
        group("some-readers", accessors=(0, 2)),
        group("one-owner", SharingClass.PRIVATE, accessors=(1,)),
        group("everyone", SharingClass.WRITE_SHARED),
    ]),
    "kernel-groups": dict(groups=[group("user")] + KERNEL_GROUPS),
}


def pages_of(spec, group_name):
    return np.array([
        page
        for inst in spec.instances if inst.spec.name == group_name
        for page in range(inst.first_page, inst.last_page + 1)
    ])


class TestColumnarMatchesReference:
    """The columnar generator against the per-record oracle."""

    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    def test_hand_built_specs(self, case):
        spec = hand_spec(**HAND_CASES[case])
        expected = reference_trace(spec)
        assert len(expected) > 0
        trace = generate_trace(spec)
        assert_same_columns(trace, expected)
        assert trace.meta is spec

    def test_write_fraction_extremes_split_as_declared(self):
        spec = hand_spec(**HAND_CASES["write-fraction-0-and-1"])
        trace = generate_trace(spec)
        reads = np.isin(trace.page, pages_of(spec, "reads"))
        writes = np.isin(trace.page, pages_of(spec, "writes"))
        assert reads.any() and writes.any()
        assert not trace.is_write[reads].any()
        assert trace.is_write[writes].all()

    def test_group_below_one_miss_emits_nothing(self):
        spec = hand_spec(**HAND_CASES["budget-rounds-below-one"])
        trace = generate_trace(spec)
        assert not np.isin(trace.page, pages_of(spec, "tiny")).any()
        assert not trace.is_kernel.any()

    def test_accessors_restrict_processes(self):
        spec = hand_spec(**HAND_CASES["restricted-accessors"])
        trace = generate_trace(spec)
        some = np.isin(trace.page, pages_of(spec, "some-readers"))
        assert set(np.unique(trace.process[some])) == {0, 2}
        owned = np.isin(trace.page, pages_of(spec, "one-owner"))
        assert set(np.unique(trace.process[owned])) == {1}

    def test_partial_last_quantum_stays_inside_the_run(self):
        spec = hand_spec(**HAND_CASES["partial-last-quantum"])
        trace = generate_trace(spec)
        assert trace.time_ns.max() <= spec.schedule.end_ns
        assert (trace.time_ns >= ms(40)).any()

    def test_zero_miss_rate_gives_empty_typed_trace(self):
        spec = hand_spec(KERNEL_GROUPS + [group("user")], user_rate=0.0,
                         kernel_rate=0.0)
        trace = generate_trace(spec)
        assert len(trace) == 0
        assert trace.meta is spec
        assert_same_columns(trace, reference_trace(spec))
        assert [getattr(trace, c).dtype for c in COLUMNS] == [
            np.int64, np.int16, np.int32, np.int64, np.int64, np.uint8,
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        knobs=st.lists(
            st.fixed_dictionaries({
                "n_pages": st.integers(1, 40),
                "miss_share": st.floats(0.0, 1.0),
                "write_fraction": st.sampled_from([0.0, 0.1, 0.5, 0.97, 1.0]),
                "pages_per_quantum": st.integers(1, 45),
                "hot_fraction": st.floats(0.01, 1.0),
                "hot_weight": st.floats(0.0, 1.0),
                "sharing": st.sampled_from([
                    SharingClass.PRIVATE, SharingClass.READ_SHARED,
                    SharingClass.KERNEL_PERCPU, SharingClass.KERNEL_SHARED,
                ]),
            }),
            min_size=1, max_size=4,
        ),
        user_rate=st.sampled_from([0.0, 90.0, 3_000.0, 400_000.0]),
        kernel_rate=st.sampled_from([0.0, 150.0, 60_000.0]),
        seed=st.integers(0, 2**16),
    )
    def test_random_specs(self, knobs, user_rate, kernel_rate, seed):
        groups = [group(f"g{i}", **k) for i, k in enumerate(knobs)]
        # Each scope present needs a positive share sum.
        for kernel in (False, True):
            scope = [g for g in groups if g.is_kernel == kernel]
            if scope and sum(g.miss_share for g in scope) <= 0:
                groups.append(group(f"fill-{kernel}", scope[0].sharing))
        spec = hand_spec(groups, user_rate=user_rate, kernel_rate=kernel_rate,
                         seed=seed)
        assert_same_columns(generate_trace(spec), reference_trace(spec))
