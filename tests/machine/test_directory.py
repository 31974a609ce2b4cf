"""Directory controller: counters, sampling, hot-page batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.machine.directory import (
    DirectoryArray,
    MissCounterBank,
    SamplingAccumulator,
    counter_space_overhead,
)


class TestMissCounterBank:
    def test_record_accumulates_per_cpu(self):
        bank = MissCounterBank(4)
        assert bank.record(10, cpu=0, weight=5) == 5
        assert bank.record(10, cpu=0, weight=3) == 8
        assert bank.record(10, cpu=1, weight=2) == 2
        counters = bank.get(10)
        assert list(counters.miss) == [8, 2, 0, 0]

    def test_write_counter(self):
        bank = MissCounterBank(2)
        bank.record(1, 0, 4, is_write=True)
        bank.record(1, 0, 4, is_write=False)
        assert bank.get(1).writes == 4

    def test_untouched_page_has_no_counters(self):
        bank = MissCounterBank(2)
        assert bank.get(99) is None

    def test_interval_reset_clears_everything(self):
        bank = MissCounterBank(2)
        bank.record(1, 0, 10)
        bank.note_migration(1)
        bank.reset()
        assert bank.get(1) is None
        assert bank.resets == 1
        assert bank.tracked_pages == 0

    def test_clear_page_preserves_migration_history(self):
        bank = MissCounterBank(2)
        bank.record(1, 0, 10, is_write=True)
        bank.note_migration(1)
        bank.clear_page(1)
        counters = bank.get(1)
        assert counters.migrates == 1
        assert counters.writes == 0
        assert list(counters.miss) == [0, 0]

    def test_hottest_other_cpu(self):
        bank = MissCounterBank(4)
        bank.record(1, 0, 100)
        bank.record(1, 2, 40)
        bank.record(1, 3, 60)
        cpu, count = bank.get(1).hottest_other_cpu(0)
        assert (cpu, count) == (3, 60)


class TestSamplingAccumulator:
    def test_rate_one_passes_everything(self):
        s = SamplingAccumulator(2, rate=1)
        assert s.sample(0, 17) == 17

    def test_exact_long_run_total(self):
        s = SamplingAccumulator(1, rate=10)
        total = sum(s.sample(0, 7) for _ in range(100))
        assert total == 70  # exactly 700 / 10

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=200),
           st.integers(2, 20))
    def test_counted_weight_is_floor_of_total(self, weights, rate):
        s = SamplingAccumulator(1, rate=rate)
        counted = sum(s.sample(0, w) for w in weights)
        assert counted == sum(weights) // rate

    def test_per_cpu_independent_carry(self):
        s = SamplingAccumulator(2, rate=10)
        assert s.sample(0, 5) == 0
        assert s.sample(1, 5) == 0
        assert s.sample(0, 5) == 1
        assert s.sample(1, 5) == 1

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            SamplingAccumulator(1, rate=0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_sample_many_matches_sample(self, data):
        # Column after column, the carries flow on as record-by-record
        # sample() calls would carry them.
        rate = data.draw(st.integers(1, 7))
        column = SamplingAccumulator(3, rate)
        scalar = SamplingAccumulator(3, rate)
        for _ in range(data.draw(st.integers(1, 3))):
            rows = data.draw(st.lists(
                st.tuples(st.integers(0, 2), st.integers(1, 9), st.booleans()),
                max_size=30,
            ))
            cpus = np.array([r[0] for r in rows], dtype=np.int64)
            weights = np.array([r[1] for r in rows], dtype=np.int64)
            mask = np.array([r[2] for r in rows], dtype=bool)
            before = np.full(len(rows), -1, dtype=np.int64)
            got = column.sample_many(cpus, weights, mask, before=before)
            want, want_before = [], []
            for cpu, weight, selected in rows:
                want_before.append(scalar.carry[cpu] if selected else -1)
                want.append(scalar.sample(cpu, weight) if selected else 0)
            assert got.tolist() == want
            if rate > 1:
                assert before.tolist() == want_before
            assert column.carry == scalar.carry


class TestDirectoryArray:
    def make(self, trigger=10, batch=2, sampling=1):
        return DirectoryArray(
            n_cpus=4,
            trigger_threshold=trigger,
            sampling_rate=sampling,
            batch_pages=batch,
        )

    def test_below_trigger_no_interrupt(self):
        d = self.make(trigger=10)
        assert d.observe(1, 0, False, weight=9) is None
        assert d.triggers == 0

    def test_local_hot_page_ignored(self):
        d = self.make(trigger=10, batch=1)
        assert d.observe(1, 0, False, weight=50, is_local=True) is None
        assert d.triggers == 0

    def test_remote_hot_page_triggers(self):
        d = self.make(trigger=10, batch=1)
        batch = d.observe(1, 0, False, weight=50, is_local=False)
        assert batch is not None
        assert len(batch) == 1
        assert batch.events[0].page == 1
        assert batch.events[0].cpu == 0

    def test_batching_collects_pages(self):
        d = self.make(trigger=10, batch=2)
        assert d.observe(1, 0, False, 50) is None       # pending 1
        batch = d.observe(2, 0, False, 50)              # pending 2 -> fire
        assert batch is not None
        assert [e.page for e in batch.events] == [1, 2]

    def test_armed_page_does_not_retrigger(self):
        d = self.make(trigger=10, batch=4)
        d.observe(1, 0, False, 50)
        d.observe(1, 0, False, 50)
        assert d.triggers == 1

    def test_latch_suppresses_until_reset(self):
        d = self.make(trigger=10, batch=1)
        batch = d.observe(1, 0, False, 50)
        assert batch is not None
        d.latch(1)
        assert d.observe(1, 0, False, 50) is None
        d.interval_reset()
        assert d.observe(1, 0, False, 50) is not None

    def test_acted_on_restarts_counting(self):
        d = self.make(trigger=10, batch=1)
        d.observe(1, 0, False, 50)
        d.acted_on(1)
        assert d.observe(1, 0, False, weight=9) is None   # fresh counters
        assert d.observe(1, 0, False, weight=1) is not None

    def test_drain_returns_partial_batches(self):
        d = self.make(trigger=10, batch=4)
        d.observe(1, 0, False, 50)
        d.observe(2, 1, False, 50)
        batches = d.drain()
        assert sum(len(b) for b in batches) == 2
        assert d.drain() == []

    def test_sampling_reduces_counted_misses(self):
        d = self.make(trigger=10, batch=1, sampling=10)
        assert d.observe(1, 0, False, weight=50) is None    # 5 counted
        batch = d.observe(1, 0, False, weight=50)           # 10 counted
        assert batch is not None
        assert d.sampled_misses == 10
        assert d.offered_misses == 100

    def test_event_carries_process(self):
        d = self.make(trigger=10, batch=1)
        batch = d.observe(1, 2, False, 50, process=42)
        assert batch.events[0].process == 42


class TestCounterSpaceOverhead:
    """Section 7.2.1's arithmetic."""

    def test_eight_nodes(self):
        assert counter_space_overhead(8) * 100 == pytest.approx(0.2, abs=0.01)

    def test_128_nodes(self):
        assert counter_space_overhead(128) * 100 == pytest.approx(3.125)

    def test_sampled_half_size_counters(self):
        assert counter_space_overhead(128, counter_bytes=0.5) * 100 == pytest.approx(1.5625)

    def test_grouped_processors(self):
        full = counter_space_overhead(128)
        grouped = counter_space_overhead(128, grouped_cpus=4)
        assert grouped == pytest.approx(full / 4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            counter_space_overhead(0)
