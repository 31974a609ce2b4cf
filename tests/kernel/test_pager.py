"""The pager interrupt handler and the collapse path."""

import pytest

from repro.kernel.pager.collapse import CollapseHandler
from repro.kernel.pager.costs import (
    CostCategory,
    KernelCostAccounting,
    KernelCostModel,
    OpType,
)
from repro.kernel.pager.handler import Outcome, PagerHandler
from repro.kernel.vm.shootdown import ShootdownMode
from repro.kernel.vm.system import VmSystem
from repro.machine.directory import DirectoryArray, HotBatch, HotPageEvent
from repro.policy.parameters import PolicyParameters


class Harness:
    """A tiny 4-CPU, 4-node machine with controllable process placement."""

    def __init__(self, frames_per_node=16, shootdown=ShootdownMode.ALL_CPUS):
        self.vm = VmSystem(4, frames_per_node)
        self.directory = DirectoryArray(4, trigger_threshold=10, batch_pages=4)
        self.accounting = KernelCostAccounting()
        self.cpu_of = {}
        params = PolicyParameters(
            trigger_threshold=10, sharing_threshold=3,
            write_threshold=1, migrate_threshold=1,
        )
        self.params = params
        self.pager = PagerHandler(
            vm=self.vm,
            directory=self.directory,
            params=params,
            costs=KernelCostModel(),
            accounting=self.accounting,
            n_cpus=4,
            node_of_cpu=lambda c: c,
            node_of_process=lambda p: self.cpu_of.get(p, 0),
            cpu_of_process=self.cpu_of.get,
            shootdown_mode=shootdown,
        )
        self.collapser = CollapseHandler(
            vm=self.vm,
            directory=self.directory,
            costs=KernelCostModel(),
            accounting=self.accounting,
            n_cpus=4,
            node_of_cpu=lambda c: c,
            cpu_of_process=self.cpu_of.get,
            shootdown_mode=shootdown,
        )

    def touch(self, process, page, cpu, weight=1, write=False):
        self.cpu_of[process] = cpu
        self.vm.fault_page(process, page, cpu)
        self.directory.observe(
            page, cpu, write, weight,
            is_local=(self.vm.location_for(process, page) == cpu),
            process=process,
        )

    def hot_batch(self, page, cpu, process):
        return HotBatch(
            cpu=cpu, events=[HotPageEvent(page=page, cpu=cpu, count=99,
                                          process=process)]
        )


class TestMigrationPath:
    def test_unshared_hot_page_migrates(self):
        h = Harness()
        h.touch(1, 100, cpu=0)            # first touch on node 0
        h.cpu_of[1] = 2                   # process moved to cpu 2
        h.touch(1, 100, cpu=2, weight=50)
        results = h.pager.handle_batch(0, h.hot_batch(100, cpu=2, process=1))
        assert results[0].outcome is Outcome.MIGRATED
        assert h.vm.master_of(100).node == 2
        assert h.pager.tally.migrated == 1
        assert h.accounting.op_counts[OpType.MIGRATION] == 1

    def test_migration_latency_in_table5_range(self):
        h = Harness()
        h.touch(1, 100, cpu=0)
        h.cpu_of[1] = 2
        h.touch(1, 100, cpu=2, weight=50)
        h.pager.handle_batch(0, h.hot_batch(100, 2, 1))
        latency = h.accounting.mean_op_latency_us(OpType.MIGRATION)
        assert 250 < latency < 900

    def test_full_target_node_yields_no_page(self):
        h = Harness(frames_per_node=2)
        # Fill node 2 completely.
        h.vm.fault_page(9, 900, 2)
        h.vm.fault_page(9, 901, 2)
        h.touch(1, 100, cpu=0)
        h.touch(1, 100, cpu=2, weight=50)
        results = h.pager.handle_batch(0, h.hot_batch(100, 2, 1))
        assert results[0].outcome is Outcome.NO_PAGE
        assert h.pager.tally.no_page == 1
        assert h.vm.master_of(100).node == 0   # unmoved


class TestReplicationPath:
    def shared_hot_page(self, h):
        h.touch(1, 100, cpu=0, weight=20)
        h.touch(2, 100, cpu=1, weight=20)
        h.touch(3, 100, cpu=2, weight=20)

    def test_read_shared_page_replicates(self):
        h = Harness()
        self.shared_hot_page(h)
        results = h.pager.handle_batch(0, h.hot_batch(100, 2, 3))
        assert results[0].outcome is Outcome.REPLICATED
        assert 2 in h.vm.master_of(100).copy_nodes()
        # Mapping of the requester is local and read-only now.
        pte = h.vm.page_tables.table(3).lookup(100)
        assert pte.frame.node == 2
        assert not pte.writable

    def test_write_shared_page_left_alone(self):
        h = Harness()
        h.touch(1, 100, cpu=0, weight=20, write=True)
        h.touch(2, 100, cpu=1, weight=20, write=True)
        h.touch(3, 100, cpu=2, weight=20, write=True)
        results = h.pager.handle_batch(0, h.hot_batch(100, 2, 3))
        assert results[0].outcome is Outcome.NO_ACTION
        assert not h.vm.master_of(100).has_replicas
        assert h.vm.master_of(100).node == 0

    def test_migrate_decision_on_replicated_page_extends_replicas(self):
        h = Harness()
        self.shared_hot_page(h)
        h.pager.handle_batch(0, h.hot_batch(100, 2, 3))       # replica on 2
        # New interval: only cpu 3 counts, so the page looks unshared.
        h.directory.interval_reset()
        h.touch(3, 100, cpu=3, weight=50)
        results = h.pager.handle_batch(1, h.hot_batch(100, 3, 3))
        assert results[0].outcome is Outcome.REPLICATED
        assert 3 in h.vm.master_of(100).copy_nodes()

    def test_existing_local_replica_adopted_cheaply(self):
        h = Harness()
        self.shared_hot_page(h)
        h.pager.handle_batch(0, h.hot_batch(100, 2, 3))       # replica on 2
        # Process 4 faults in via node 0's master, then runs hot on cpu 2.
        h.touch(4, 100, cpu=0, weight=1)
        h.cpu_of[4] = 2
        h.directory.interval_reset()
        h.touch(1, 100, cpu=0, weight=20)
        h.touch(4, 100, cpu=2, weight=50)
        before = h.vm.stats.replications
        results = h.pager.handle_batch(1, h.hot_batch(100, 2, 4))
        assert results[0].outcome is Outcome.NO_ACTION
        assert h.vm.stats.replications == before          # no new frame
        assert h.vm.location_for(4, 100) == 2             # re-pointed


class TestBatchingAndFlush:
    def test_one_flush_for_whole_batch(self):
        h = Harness()
        for page in (100, 101):
            h.touch(1, page, cpu=0)
        h.cpu_of[1] = 2
        for page in (100, 101):
            h.touch(1, page, cpu=2, weight=50)
        batch = HotBatch(
            cpu=2,
            events=[
                HotPageEvent(page=100, cpu=2, count=99, process=1),
                HotPageEvent(page=101, cpu=2, count=99, process=1),
            ],
        )
        h.pager.handle_batch(0, batch)
        assert h.pager.flush_operations == 1
        assert h.pager.tlbs_flushed == 4     # ALL_CPUS mode on 4 CPUs

    def test_tracked_mode_flushes_fewer_tlbs(self):
        h = Harness(shootdown=ShootdownMode.TRACKED)
        h.touch(1, 100, cpu=0)
        h.cpu_of[1] = 2
        h.touch(1, 100, cpu=2, weight=50)
        h.pager.handle_batch(0, h.hot_batch(100, 2, 1))
        assert h.pager.tlbs_flushed < 4

    def test_tracked_mode_reduces_flush_overhead(self):
        def run(mode):
            h = Harness(shootdown=mode)
            h.touch(1, 100, cpu=0)
            h.cpu_of[1] = 2
            h.touch(1, 100, cpu=2, weight=50)
            h.pager.handle_batch(0, h.hot_batch(100, 2, 1))
            return h.accounting.category_ns[CostCategory.TLB_FLUSH]

        assert run(ShootdownMode.TRACKED) < run(ShootdownMode.ALL_CPUS)

    def test_empty_batch_is_noop(self):
        h = Harness()
        assert h.pager.handle_batch(0, HotBatch(cpu=0)) == []
        assert h.accounting.total_overhead_ns == 0


class TestCollapse:
    def test_write_fault_collapses_replicas(self):
        h = Harness()
        h.touch(1, 100, cpu=0, weight=20)
        h.touch(2, 100, cpu=1, weight=20)
        h.touch(3, 100, cpu=2, weight=20)
        h.pager.handle_batch(0, h.hot_batch(100, 2, 3))
        assert h.vm.master_of(100).has_replicas
        collapsed = h.collapser.handle_write_fault(10, page=100, cpu=1)
        assert collapsed
        master = h.vm.master_of(100)
        assert not master.has_replicas
        assert h.collapser.collapses == 1
        assert h.accounting.op_counts[OpType.COLLAPSE] == 1
        # Writer's node keeps the page when it held a copy; node 1 had no
        # copy here so the master stays.
        assert master.node in (0, 1)

    def test_collapse_on_unreplicated_page_is_noop(self):
        h = Harness()
        h.touch(1, 100, cpu=0)
        assert h.collapser.handle_write_fault(0, 100, 0) is False
        assert h.collapser.collapses == 0

    def test_collapse_charges_page_fault_category(self):
        h = Harness()
        h.touch(1, 100, cpu=0, weight=20)
        h.touch(2, 100, cpu=1, weight=20)
        h.pager.handle_batch(0, h.hot_batch(100, 1, 2))
        h.collapser.handle_write_fault(10, 100, 0)
        assert h.accounting.category_ns[CostCategory.PAGE_FAULT] > 0
