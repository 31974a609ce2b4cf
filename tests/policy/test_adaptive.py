"""Adaptive trigger-threshold controller (the Section 8.4 extension)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.policy.adaptive import AdaptiveTriggerController, IntervalFeedback


def feedback(overhead_fraction=0.0, remote_fraction=0.0, n_cpus=8,
             interval_ns=100_000_000):
    total = 10_000
    return IntervalFeedback(
        interval_ns=interval_ns,
        n_cpus=n_cpus,
        overhead_ns=overhead_fraction * interval_ns * n_cpus,
        remote_misses=int(remote_fraction * total),
        total_misses=total,
    )


class TestFeedback:
    def test_overhead_fraction(self):
        fb = feedback(overhead_fraction=0.25)
        assert fb.overhead_fraction == pytest.approx(0.25)

    def test_remote_fraction(self):
        fb = feedback(remote_fraction=0.4)
        assert fb.remote_fraction == pytest.approx(0.4)

    def test_empty_interval(self):
        fb = IntervalFeedback(
            interval_ns=0, n_cpus=8, overhead_ns=0,
            remote_misses=0, total_misses=0,
        )
        assert fb.overhead_fraction == 0.0
        assert fb.remote_fraction == 0.0


class TestController:
    def test_over_budget_backs_off(self):
        c = AdaptiveTriggerController(initial_trigger=128, overhead_budget=0.1)
        assert c.update(feedback(overhead_fraction=0.5)) == 256

    def test_idle_with_remote_headroom_presses_harder(self):
        c = AdaptiveTriggerController(
            initial_trigger=128, overhead_budget=0.1, remote_target=0.2
        )
        assert c.update(
            feedback(overhead_fraction=0.01, remote_fraction=0.6)
        ) == 64

    def test_comfortable_state_holds(self):
        c = AdaptiveTriggerController(
            initial_trigger=128, overhead_budget=0.1, remote_target=0.2
        )
        assert c.update(
            feedback(overhead_fraction=0.06, remote_fraction=0.1)
        ) == 128

    def test_backoff_wins_over_headroom(self):
        """A thrashing pager backs off even with remote misses left."""
        c = AdaptiveTriggerController(
            initial_trigger=128, overhead_budget=0.1, remote_target=0.2
        )
        assert c.update(
            feedback(overhead_fraction=0.5, remote_fraction=0.9)
        ) == 256

    def test_clamps(self):
        c = AdaptiveTriggerController(
            initial_trigger=16, min_trigger=16, max_trigger=64,
            overhead_budget=0.1, remote_target=0.2,
        )
        assert c.update(feedback(0.01, 0.9)) == 16       # floor
        for _ in range(5):
            c.update(feedback(overhead_fraction=0.9))
        assert c.trigger == 64                           # ceiling

    def test_history_and_settled(self):
        c = AdaptiveTriggerController(initial_trigger=128)
        assert not c.settled
        c.update(feedback(0.05, 0.0))
        c.update(feedback(0.05, 0.0))
        assert c.settled
        assert c.history == [128, 128, 128]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveTriggerController(initial_trigger=8, min_trigger=16)
        with pytest.raises(ConfigurationError):
            AdaptiveTriggerController(overhead_budget=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveTriggerController(step=1)


class TestFullSystemIntegration:
    def test_convergence_from_bad_starting_points(self, engineering):
        from repro.policy.parameters import PolicyParameters
        from repro.sim.simulator import SimulatorOptions, SystemSimulator

        spec, trace = engineering
        locals_ = {}
        for start in (32, 512):
            sim = SystemSimulator(
                spec,
                params=PolicyParameters.base(trigger_threshold=start),
                options=SimulatorOptions(dynamic=True, adaptive_trigger=True),
            )
            r = sim.run(trace)
            locals_[start] = r.local_miss_fraction
            assert "policy.adaptive.trigger" in r.metrics
        # Both starting points end in the same neighbourhood.
        assert abs(locals_[32] - locals_[512]) < 0.15
