"""Statistics helpers: online accumulators agree with exact computation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.stats import (
    OnlineStats,
    SampleStats,
    WeightedHistogram,
    percent_change,
)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_value(self):
        s = OnlineStats()
        s.add(42.0)
        assert s.count == 1
        assert s.mean == 42.0
        assert s.minimum == 42.0
        assert s.maximum == 42.0
        assert s.variance == 0.0

    def test_weighted_add_equals_repeats(self):
        weighted = OnlineStats()
        repeated = OnlineStats()
        weighted.add(5.0, weight=4)
        weighted.add(9.0, weight=2)
        for _ in range(4):
            repeated.add(5.0)
        for _ in range(2):
            repeated.add(9.0)
        assert weighted.count == repeated.count
        assert weighted.mean == pytest.approx(repeated.mean)
        assert weighted.variance == pytest.approx(repeated.variance)

    def test_equal_values_never_read_negative_variance(self):
        # The Welford update leaves m2 = -7.4e-17 here; the stored m2
        # keeps those bits, but the variance reads as exactly 0.
        s = OnlineStats()
        s.add_many([0.1, 0.1], [53, 56])
        assert s.to_dict()["m2"] < 0.0
        assert s.variance == 0.0
        assert s.stddev == 0.0

    def test_rejects_nonpositive_weight(self):
        s = OnlineStats()
        with pytest.raises(ValueError):
            s.add(1.0, weight=0)

    @given(st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.integers(1, 1000)), max_size=60,
    ), st.lists(st.floats(-1e3, 1e3), max_size=3))
    def test_add_many_is_add_in_order_bit_for_bit(self, pairs, prefix):
        one, many = OnlineStats(), OnlineStats()
        for value in prefix:           # a running accumulator, not a fresh one
            one.add(value)
            many.add(value)
        for value, weight in pairs:
            one.add(value, weight)
        many.add_many([v for v, _ in pairs], [w for _, w in pairs])
        assert many.to_dict() == one.to_dict()

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
        st.lists(st.tuples(
            st.sampled_from([0.0, -0.0, 0.1, 2.5, -7.0])
            | st.floats(-1e6, 1e6),
            st.integers(1, 1000),
        ), min_size=1, max_size=60),
    )
    def test_add_many_equals_repeated_add_in_bits(self, prefix, pairs):
        # Repeated values (signed zeros among them) on a running
        # accumulator; ``float.hex`` tells 0.0 from -0.0.
        def bits(stats):
            return {key: value.hex() if isinstance(value, float) else value
                    for key, value in stats.to_dict().items()}

        one, many = OnlineStats(), OnlineStats()
        for value in prefix:
            one.add(value)
            many.add(value)
        for value, weight in pairs:
            one.add(value, weight)
        many.add_many(np.array([v for v, _ in pairs]),
                      np.array([w for _, w in pairs]))
        assert bits(many) == bits(one)

    def test_equal_values_have_no_spread(self):
        # Welford's m2 for these ends a hair below zero.
        s = OnlineStats()
        s.add_many([0.1, 0.1], [53, 56])
        assert s.stddev == 0.0

    def test_add_many_rejects_nonpositive_weight(self):
        s = OnlineStats()
        with pytest.raises(ValueError):
            s.add_many([1.0, 2.0], [1, 0])
        assert s.count == 0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_matches_numpy(self, values):
        s = OnlineStats()
        for v in values:
            s.add(v)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(values), rel=1e-6, abs=1e-3)
        assert s.minimum == min(values)
        assert s.maximum == max(values)
        assert s.total == pytest.approx(sum(values), rel=1e-9, abs=1e-6)

    @given(
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=30),
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=30),
    )
    def test_merge_matches_combined(self, a, b):
        left, right, combined = OnlineStats(), OnlineStats(), OnlineStats()
        for v in a:
            left.add(v)
            combined.add(v)
        for v in b:
            right.add(v)
            combined.add(v)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean, rel=1e-6, abs=1e-6)
        assert left.variance == pytest.approx(
            combined.variance, rel=1e-4, abs=1e-3
        )

    def test_merge_empty_is_noop(self):
        s = OnlineStats()
        s.add(3.0)
        s.merge(OnlineStats())
        assert s.count == 1
        assert s.mean == 3.0

    def test_combined_empty_empty(self):
        out = OnlineStats().combined(OnlineStats())
        assert out.count == 0
        assert out.mean == 0.0

    def test_combined_empty_nonempty(self):
        right = OnlineStats()
        right.add(7.0)
        right.add(9.0)
        out = OnlineStats() + right
        assert out.count == 2
        assert out.mean == pytest.approx(8.0)
        # And the other way round.
        back = right + OnlineStats()
        assert back.count == 2
        assert back.mean == pytest.approx(8.0)

    def test_combined_does_not_mutate_operands(self):
        left, right = OnlineStats(), OnlineStats()
        left.add(1.0)
        right.add(5.0, weight=3)
        out = left + right
        assert out.count == 4
        assert left.count == 1 and left.mean == 1.0
        assert right.count == 3 and right.mean == 5.0

    @given(
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=30),
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=30),
    )
    def test_add_matches_sequential(self, a, b):
        left, right, sequential = OnlineStats(), OnlineStats(), OnlineStats()
        for v in a:
            left.add(v)
            sequential.add(v)
        for v in b:
            right.add(v)
            sequential.add(v)
        out = left + right
        assert out.count == sequential.count
        assert out.mean == pytest.approx(sequential.mean, rel=1e-6, abs=1e-6)
        assert out.variance == pytest.approx(
            sequential.variance, rel=1e-4, abs=1e-3
        )
        assert out.minimum == sequential.minimum
        assert out.maximum == sequential.maximum

    def test_weighted_combined(self):
        left, right = OnlineStats(), OnlineStats()
        left.add(2.0, weight=3)
        right.add(10.0, weight=1)
        out = left + right
        assert out.count == 4
        assert out.mean == pytest.approx(4.0)

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            OnlineStats() + 3


class TestWeightedHistogram:
    def test_fraction_at_least(self):
        h = WeightedHistogram()
        h.add(10, 3)
        h.add(100, 7)
        assert h.total == 10
        assert h.fraction_at_least(50) == pytest.approx(0.7)
        assert h.fraction_at_least(10) == pytest.approx(1.0)
        assert h.fraction_at_least(101) == 0.0

    def test_empty_histogram(self):
        h = WeightedHistogram()
        assert h.fraction_at_least(1) == 0.0

    def test_survival_is_monotone(self):
        h = WeightedHistogram()
        for v, w in [(1, 5), (8, 2), (64, 9), (512, 4)]:
            h.add(v, w)
        survival = h.survival([1, 8, 64, 512, 4096])
        fractions = [f for _, f in survival]
        assert fractions == sorted(fractions, reverse=True)

    def test_rejects_bad_weight(self):
        h = WeightedHistogram()
        with pytest.raises(ValueError):
            h.add(1, 0)


class TestPercentChange:
    def test_reduction(self):
        assert percent_change(100, 71) == pytest.approx(29.0)

    def test_increase_is_negative(self):
        assert percent_change(100, 120) == pytest.approx(-20.0)

    def test_zero_baseline(self):
        assert percent_change(0, 10) == 0.0


class TestSampleStats:
    def test_add_many_retains_samples(self):
        s = SampleStats()
        s.add_many([1.0, 2.0, 3.0], [1, 2, 1])
        assert s.samples == [1.0, 2.0, 3.0]
        assert s.count == 4

    def test_inherits_online_moments(self):
        s = SampleStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            s.add(v)
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.samples == [1.0, 2.0, 3.0, 4.0]

    def test_percentiles_match_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 100, size=200)
        s = SampleStats()
        for v in values:
            s.add(float(v))
        for q in (0, 25, 50, 95, 100):
            assert s.percentile(q) == pytest.approx(
                np.percentile(values, q), rel=1e-9
            )

    def test_empty_and_bounds(self):
        s = SampleStats()
        assert s.percentile(50) == 0.0
        with pytest.raises(ValueError):
            s.percentile(101)
        with pytest.raises(ValueError):
            s.percentile(-1)

    def test_sample_retention_is_bounded(self):
        s = SampleStats(max_samples=10)
        for i in range(25):
            s.add(float(i))
        assert len(s.samples) == 10
        assert s.count == 25           # moments still see everything
        assert s.maximum == 24.0
        assert s.percentile(100) == 9.0  # percentiles: earliest samples only

    def test_to_dict_adds_percentiles(self):
        s = SampleStats()
        for v in (10.0, 20.0, 30.0):
            s.add(v)
        data = s.to_dict()
        assert data["p50"] == pytest.approx(20.0)
        assert data["p95"] == pytest.approx(29.0)
        assert data["count"] == 3

    def test_merge_retains_samples_and_moments(self):
        a, b = SampleStats(), SampleStats()
        for v in (1.0, 2.0):
            a.add(v)
        for v in (3.0, 4.0, 5.0):
            b.add(v)
        a.merge(b)
        assert a.count == 5
        assert a.mean == pytest.approx(3.0)
        assert sorted(a.samples) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert a.percentile(50) == pytest.approx(3.0)
        # The merged-from side is untouched.
        assert b.samples == [3.0, 4.0, 5.0]

    def test_merge_respects_sample_cap(self):
        a = SampleStats(max_samples=3)
        a.add(1.0)
        b = SampleStats()
        for v in (2.0, 3.0, 4.0, 5.0):
            b.add(v)
        a.merge(b)
        assert len(a.samples) == 3      # cap held
        assert a.count == 5             # moments see everything

    def test_merge_plain_online_stats_adds_moments_only(self):
        a = SampleStats()
        a.add(1.0)
        plain = OnlineStats()
        plain.add(9.0)
        a.merge(plain)
        assert a.count == 2
        assert a.maximum == 9.0
        assert a.samples == [1.0]       # no samples to take

    def test_combined_returns_sample_stats(self):
        a, b = SampleStats(), SampleStats()
        a.add(1.0)
        b.add(3.0)
        out = a.combined(b)
        assert isinstance(out, SampleStats)
        assert out.count == 2
        assert sorted(out.samples) == [1.0, 3.0]
        # Non-mutating on both inputs.
        assert a.samples == [1.0] and b.samples == [3.0]
        added = a + b
        assert isinstance(added, SampleStats)
        assert added.percentile(100) == 3.0
