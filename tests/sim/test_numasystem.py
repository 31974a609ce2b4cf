"""The interactive NumaSystem facade."""

import pytest

from repro.machine.config import MachineConfig
from repro.policy.parameters import PolicyParameters
from repro.sim.numasystem import NumaSystem

PARAMS = PolicyParameters(
    trigger_threshold=20, sharing_threshold=5, batch_pages=1,
)


def make_system(**kw):
    kw.setdefault("machine", MachineConfig.flash_ccnuma())
    kw.setdefault("params", PARAMS)
    kw.setdefault("pager_delay_ns", 10)
    return NumaSystem(**kw)


class TestBasicServicing:
    def test_first_touch_is_local(self):
        system = make_system()
        outcome = system.miss(0, cpu=3, process=1, page=42)
        assert outcome.is_local
        assert outcome.node == 3
        assert outcome.latency_ns >= 300

    def test_remote_access_to_foreign_page(self):
        system = make_system()
        system.miss(0, cpu=3, process=1, page=42)
        outcome = system.miss(1, cpu=5, process=2, page=42, weight=2)
        assert not outcome.is_local
        assert outcome.stall_ns == pytest.approx(outcome.latency_ns * 2)

    def test_time_must_be_monotonic(self):
        system = make_system()
        system.miss(100, 0, 0, 1)
        with pytest.raises(ValueError):
            system.miss(50, 0, 0, 1)


class TestDynamicBehaviour:
    def test_hot_remote_private_page_migrates(self):
        system = make_system()
        system.miss(0, cpu=0, process=1, page=7)
        # Process moves to cpu 4 and hammers its page.
        for t in range(100, 2000, 100):
            system.miss(t, cpu=4, process=1, page=7, weight=5)
        system.flush_pager()
        assert system.tally.migrated == 1
        assert system.location_of(1, 7) == 4

    def test_shared_read_page_replicates(self):
        system = make_system()
        for t in range(0, 3000, 100):
            system.miss(t, cpu=0, process=1, page=7, weight=3)
            system.miss(t + 1, cpu=5, process=2, page=7, weight=3)
        system.flush_pager()
        assert system.tally.replicated >= 1
        assert 5 in system.copies_of(7)

    def test_write_collapses_replicas(self):
        system = make_system()
        for t in range(0, 3000, 100):
            system.miss(t, cpu=0, process=1, page=7, weight=3)
            system.miss(t + 1, cpu=5, process=2, page=7, weight=3)
        system.flush_pager()
        assert len(system.copies_of(7)) > 1
        outcome = system.miss(5000, cpu=0, process=1, page=7, write=True)
        assert outcome.collapsed
        assert len(system.copies_of(7)) == 1

    def test_static_system_never_moves_pages(self):
        system = make_system(dynamic=False)
        system.miss(0, cpu=0, process=1, page=7)
        for t in range(100, 3000, 100):
            system.miss(t, cpu=4, process=1, page=7, weight=5)
        system.flush_pager()
        assert system.tally.hot_pages == 0
        assert system.location_of(1, 7) == 0
        assert system.kernel_overhead_ns == 0

    def test_reset_interval_clears_counters(self):
        params = PARAMS.replace(reset_interval_ns=1000)
        system = make_system(params=params)
        system.miss(0, cpu=0, process=1, page=7, weight=19)   # below trigger
        # Cross the reset boundary: old counts are gone.
        system.miss(2000, cpu=4, process=1, page=7, weight=19)
        system.flush_pager()
        assert system.tally.hot_pages == 0

    def test_local_fraction_tracks_memory_system(self):
        system = make_system()
        system.miss(0, cpu=0, process=1, page=1, weight=3)    # local
        system.miss(1, cpu=1, process=2, page=1, weight=1)    # remote
        assert system.local_fraction == pytest.approx(0.75)


class TestOverheadAccounting:
    def test_actions_charge_kernel_time(self):
        system = make_system()
        system.miss(0, cpu=0, process=1, page=7)
        for t in range(100, 2000, 100):
            system.miss(t, cpu=4, process=1, page=7, weight=5)
        system.flush_pager()
        assert system.kernel_overhead_ns > 0

    def test_vm_invariants_after_activity(self):
        system = make_system()
        for t in range(0, 5000, 50):
            page = (t // 50) % 9
            cpu = (t // 100) % 8
            system.miss(t, cpu=cpu, process=cpu, page=page, weight=4,
                        write=(page == 3))
        system.flush_pager()
        system.vm.check_invariants()
