"""The VM system facade: fault, migrate, replicate, collapse, invariants.

Includes a hypothesis state-machine-style property test that hammers the
facade with random valid operations and checks the global invariants the
kernel depends on after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AllocationError, VmError
from repro.kernel.vm.system import VmSystem


@pytest.fixture
def vm():
    return VmSystem(n_nodes=4, frames_per_node=16)


class TestFault:
    def test_first_touch_places_on_requested_node(self, vm):
        pte = vm.fault_page(process=1, page=10, node=2)
        assert pte.frame.node == 2
        assert vm.master_of(10) is pte.frame
        assert vm.stats.faults == 1
        assert vm.stats.base_pages == 1

    def test_second_fault_same_process_is_idempotent(self, vm):
        first = vm.fault_page(1, 10, 2)
        second = vm.fault_page(1, 10, 3)
        assert first is second
        assert vm.stats.faults == 1

    def test_other_process_maps_existing_master(self, vm):
        vm.fault_page(1, 10, 2)
        pte = vm.fault_page(2, 10, 0)
        assert pte.frame is vm.master_of(10)
        assert vm.stats.base_pages == 1

    def test_fault_maps_nearest_replica(self, vm):
        vm.fault_page(1, 10, 0)
        vm.replicate(10, 3, node_of_process=lambda pid: 0)
        pte = vm.fault_page(2, 10, 3)
        assert pte.frame.node == 3
        assert pte.frame.is_replica
        assert not pte.writable     # replicated pages are read-only

    def test_fault_full_node_falls_back(self):
        vm = VmSystem(n_nodes=2, frames_per_node=2)
        vm.fault_page(1, 1, 0)
        vm.fault_page(1, 2, 0)
        pte = vm.fault_page(1, 3, 0)
        assert pte.frame.node == 1

    def test_fault_reclaims_replicas_when_machine_full(self):
        vm = VmSystem(n_nodes=2, frames_per_node=2)
        vm.fault_page(1, 1, 0)
        vm.replicate(1, 1, node_of_process=lambda pid: 0)
        vm.fault_page(1, 2, 0)
        vm.fault_page(1, 3, 0)
        # All 4 frames in use (one is a replica): next fault reclaims it.
        pte = vm.fault_page(1, 4, 0)
        assert pte is not None
        assert vm.stats.replicas_reclaimed == 1


def _allocator_counts(vm):
    a = vm.allocator
    return (
        [a.free_frames(node) for node in range(a.n_nodes)],
        a.frames_in_use(), a.allocations, a.failures, a.peak_in_use,
    )


def _page_objects(vm, page):
    """(node, [(process, writable)] per copy) of a materialized page."""
    master = vm.master_of(page)
    return [
        (copy.node, copy.is_replica,
         [(pte.process, pte.writable) for pte in copy.ptes])
        for copy in master.all_copies()
    ]


class TestFaultRun:
    """``fault``: a run of first touches, recorded without objects."""

    def test_run_records_pages_without_objects(self, vm):
        nodes = vm.fault([1, 2, 1], [10, 10, 11], [2, 3, 0])
        assert nodes == [2, 2, 0]
        assert vm.stats.faults == 3
        assert vm.stats.base_pages == 2
        assert len(vm.hash_table) == 0      # nothing built yet
        assert vm.location_for(2, 10) == 2
        assert vm.location_for(3, 10) is None
        assert vm.is_resident(11) and not vm.is_resident(12)
        assert len(vm.hash_table) == 0      # and still nothing
        vm.check_invariants()

    def test_refaulting_a_mapped_page_changes_nothing(self, vm):
        vm.fault([1], [10], [2])
        assert vm.fault([1, 1], [10, 10], [3, 0]) == [2, 2]
        assert vm.stats.faults == 1

    def test_node_filling_mid_run_falls_back(self):
        lazy = VmSystem(n_nodes=2, frames_per_node=2)
        eager = VmSystem(n_nodes=2, frames_per_node=2)
        pages, procs, prefer = [1, 2, 3, 4], [1, 1, 2, 2], [0, 0, 0, 0]
        assert lazy.fault(procs, pages, prefer) == [0, 0, 1, 1]
        for proc, page, node in zip(procs, pages, prefer):
            eager.fault_page(proc, page, node)
        assert _allocator_counts(lazy) == _allocator_counts(eager)
        assert lazy.allocator.failures == 2     # pages 3 and 4 tried node 0
        assert lazy.stats == eager.stats
        lazy.check_invariants()
        with pytest.raises(AllocationError):
            lazy.fault([3], [5], [1])

    def test_run_maps_replicated_pages_read_only(self, vm):
        vm.fault_page(1, 10, 0)
        vm.replicate(10, 3, node_of_process=lambda pid: 0)
        assert vm.fault([2, 3], [10, 10], [3, 1]) == [3, 0]
        assert not vm.frame_for(2, 10) is vm.master_of(10)
        assert not vm.page_tables.lookup(2, 10).writable
        vm.check_invariants()

    @pytest.mark.parametrize("entry", [
        "master_of", "frame_for", "table_lookup", "directory_lookup",
        "migrate", "replicate", "collapse",
    ])
    def test_each_entry_point_builds_what_eager_faults_build(self, entry):
        procs, pages, prefer = [1, 2, 3, 2], [10, 10, 4106, 10], [0, 1, 2, 3]
        lazy, eager = VmSystem(4, 16), VmSystem(4, 16)
        lazy.fault(procs, pages, prefer)
        for proc, page, node in zip(procs, pages, prefer):
            eager.fault_page(proc, page, node)
        for vm in (lazy, eager):
            if entry == "master_of":
                vm.master_of(10)
            elif entry == "frame_for":
                vm.frame_for(2, 10)
            elif entry == "table_lookup":
                vm.page_tables.table(2).lookup(10)
            elif entry == "directory_lookup":
                vm.page_tables.lookup(2, 10)
            elif entry == "migrate":
                vm.migrate(10, 3)
            elif entry == "replicate":
                vm.replicate(10, 2, node_of_process={1: 0, 2: 2}.get)
            else:
                with pytest.raises(VmError):
                    vm.collapse(10)
        assert len(lazy.hash_table) == 1        # page 4106 stays recorded
        assert _page_objects(lazy, 10) == _page_objects(eager, 10)
        assert _allocator_counts(lazy) == _allocator_counts(eager)
        lazy.check_invariants()

    def test_collapse_handler_builds_the_page(self):
        from repro.kernel.pager.collapse import CollapseHandler
        from repro.kernel.pager.costs import (
            KernelCostAccounting, KernelCostModel,
        )
        from repro.machine.config import MachineConfig
        from repro.machine.directory import DirectoryArray

        vm = VmSystem(4, 16)
        vm.fault([1, 2], [10, 10], [0, 1])
        handler = CollapseHandler(
            vm=vm, directory=DirectoryArray(4),
            costs=KernelCostModel.for_machine(
                MachineConfig.flash_ccnuma(n_cpus=4, n_nodes=4)),
            accounting=KernelCostAccounting(), n_cpus=4,
            node_of_cpu=lambda cpu: cpu, cpu_of_process=lambda pid: 0,
        )
        assert not handler.handle_write_fault(0, 10, 1)   # not replicated
        assert [pte.process for pte in vm.hash_table.lookup(10).ptes] == [1, 2]

    def test_reclaim_visits_pages_in_first_touch_order(self):
        # Pages 5 and 4101 share a hash bucket; 4101's objects are built
        # first, yet 5 was touched first, so its replica goes first.
        def build(vm, run):
            run(vm, [1, 1, 1], [5, 4101, 7], [0, 0, 0])
            for page in (4101, 5):
                vm.replicate(page, 1, node_of_process=lambda pid: 0)
            run(vm, [1], [8], [1])              # machine now full
            run(vm, [2], [9], [1])              # reclaims one replica
            return vm

        def run_lazy(vm, *run):
            vm.fault(*run)

        def run_eager(vm, procs, pages, nodes):
            for proc, page, node in zip(procs, pages, nodes):
                vm.fault_page(proc, page, node)

        lazy = build(VmSystem(2, 3), run_lazy)
        eager = build(VmSystem(2, 3), run_eager)
        assert lazy.stats.replicas_reclaimed == 1
        assert not lazy.master_of(5).has_replicas
        assert lazy.master_of(4101).has_replicas
        assert lazy.stats == eager.stats
        for page in (9, 8, 7, 4101, 5):
            assert _page_objects(lazy, page) == _page_objects(eager, page)
        assert [m.logical_page for m in lazy.hash_table] == [
            m.logical_page for m in eager.hash_table
        ]
        lazy.check_invariants()


class TestRecordedInvariants:
    """``check_invariants`` covers recorded pages against the tables."""

    @pytest.fixture
    def recorded(self):
        vm = VmSystem(n_nodes=4, frames_per_node=16)
        vm.fault([1, 2, 1], [10, 10, 11], [2, 3, 0])
        vm.check_invariants()
        return vm

    def test_page_moved_to_another_node(self, recorded):
        recorded._recorded[10] = 1
        with pytest.raises(VmError, match="node 1 reserves"):
            recorded.check_invariants()

    def test_page_on_no_node(self, recorded):
        recorded._recorded[11] = 9
        with pytest.raises(VmError, match="lives on no node"):
            recorded.check_invariants()

    def test_page_dropped_from_the_table(self, recorded):
        del recorded._recorded[11]
        with pytest.raises(VmError, match="not recorded"):
            recorded.check_invariants()

    def test_mapping_lost(self, recorded):
        del recorded.page_tables.table(2)._entries[10]
        with pytest.raises(VmError, match="mappings after 3 faults"):
            recorded.check_invariants()

    def test_page_without_mapping(self, recorded):
        del recorded.page_tables.table(1)._entries[11]
        recorded.stats.faults -= 1
        with pytest.raises(VmError, match="no mapping"):
            recorded.check_invariants()

    def test_page_recorded_and_linked(self, recorded):
        recorded.master_of(10)
        recorded._recorded[10] = 2
        with pytest.raises(VmError, match="both recorded and linked"):
            recorded.check_invariants()


class TestMigrate:
    def test_migrate_moves_master_and_mappings(self, vm):
        vm.fault_page(1, 10, 0)
        vm.fault_page(2, 10, 1)
        new = vm.migrate(10, to_node=3)
        assert new.node == 3
        assert vm.master_of(10) is new
        assert vm.location_for(1, 10) == 3
        assert vm.location_for(2, 10) == 3
        assert vm.stats.migrations == 1
        vm.check_invariants()

    def test_migrate_frees_old_frame(self, vm):
        vm.fault_page(1, 10, 0)
        before = vm.allocator.frames_in_use()
        vm.migrate(10, 3)
        assert vm.allocator.frames_in_use() == before

    def test_migrate_nonresident_rejected(self, vm):
        with pytest.raises(VmError):
            vm.migrate(99, 1)

    def test_migrate_to_same_node_rejected(self, vm):
        vm.fault_page(1, 10, 0)
        with pytest.raises(VmError):
            vm.migrate(10, 0)

    def test_migrate_replicated_page_rejected(self, vm):
        vm.fault_page(1, 10, 0)
        vm.replicate(10, 1, node_of_process=lambda pid: 0)
        with pytest.raises(VmError):
            vm.migrate(10, 2)

    def test_migrate_to_full_node_raises_no_page(self):
        vm = VmSystem(n_nodes=2, frames_per_node=1)
        vm.fault_page(1, 1, 0)
        vm.fault_page(2, 2, 1)      # node 1 now full
        with pytest.raises(AllocationError):
            vm.migrate(1, 1)


class TestReplicate:
    def test_replicate_creates_read_only_copies(self, vm):
        vm.fault_page(1, 10, 0)
        pte2 = vm.fault_page(2, 10, 1)
        node_of = {1: 0, 2: 1}
        replica = vm.replicate(10, 1, node_of_process=node_of.get)
        assert replica.node == 1
        assert replica.is_replica
        # Process 2's mapping re-pointed to its local replica, read-only.
        assert pte2.frame is replica
        assert not pte2.writable
        assert vm.stats.replications == 1
        vm.check_invariants()

    def test_replicate_duplicate_node_rejected(self, vm):
        vm.fault_page(1, 10, 0)
        vm.replicate(10, 1, node_of_process=lambda pid: 0)
        with pytest.raises(VmError):
            vm.replicate(10, 1, node_of_process=lambda pid: 0)

    def test_replicate_full_node_raises(self):
        vm = VmSystem(n_nodes=2, frames_per_node=1)
        vm.fault_page(1, 1, 0)
        vm.fault_page(2, 2, 1)
        with pytest.raises(AllocationError):
            vm.replicate(1, 1, node_of_process=lambda pid: 0)

    def test_replica_accounting(self, vm):
        vm.fault_page(1, 10, 0)
        vm.replicate(10, 1, node_of_process=lambda pid: 0)
        vm.replicate(10, 2, node_of_process=lambda pid: 0)
        assert vm.allocator.total_replica_frames() == 2
        assert vm.allocator.peak_replica_frames == 2


class TestCollapse:
    def make_replicated(self, vm):
        vm.fault_page(1, 10, 0)
        vm.fault_page(2, 10, 1)
        vm.fault_page(3, 10, 2)
        node_of = {1: 0, 2: 1, 3: 2}.get
        vm.replicate(10, 1, node_of)
        vm.replicate(10, 2, node_of)

    def test_collapse_to_writer_node(self, vm):
        self.make_replicated(vm)
        survivor = vm.collapse(10, keep_node=1)
        assert survivor.node == 1
        assert vm.master_of(10) is survivor
        assert not survivor.has_replicas
        for pid in (1, 2, 3):
            assert vm.location_for(pid, 10) == 1
            assert vm.page_tables.table(pid).lookup(10).writable
        assert vm.allocator.total_replica_frames() == 0
        vm.check_invariants()

    def test_collapse_keeps_master_when_writer_has_no_copy(self, vm):
        self.make_replicated(vm)
        survivor = vm.collapse(10, keep_node=3)
        assert survivor.node == 0   # master's node
        vm.check_invariants()

    def test_collapse_unreplicated_rejected(self, vm):
        vm.fault_page(1, 10, 0)
        with pytest.raises(VmError):
            vm.collapse(10)

    def test_collapse_frees_replica_frames(self, vm):
        self.make_replicated(vm)
        in_use_before = vm.allocator.frames_in_use()
        vm.collapse(10, keep_node=0)
        assert vm.allocator.frames_in_use() == in_use_before - 2


class TestReclaim:
    def test_reclaim_repoints_to_master(self, vm):
        vm.fault_page(1, 10, 0)
        pte = vm.fault_page(2, 10, 1)
        vm.replicate(10, 1, node_of_process={1: 0, 2: 1}.get)
        assert pte.frame.node == 1
        reclaimed = vm.reclaim_replicas(node=1, want=5)
        assert reclaimed == 1
        assert pte.frame is vm.master_of(10)
        assert pte.writable     # no replicas left: writable again
        vm.check_invariants()

    def test_reclaim_nothing_to_do(self, vm):
        assert vm.reclaim_replicas(0, 3) == 0

    def test_reclaim_respects_node(self, vm):
        vm.fault_page(1, 10, 0)
        vm.replicate(10, 2, node_of_process=lambda pid: 0)
        assert vm.reclaim_replicas(node=1, want=1) == 0
        assert vm.reclaim_replicas(node=2, want=1) == 1


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fault", "migrate", "replicate", "collapse"]),
                st.integers(0, 5),    # process
                st.integers(0, 11),   # page
                st.integers(0, 3),    # node
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_invariants_hold_under_random_operations(self, ops):
        vm = VmSystem(n_nodes=4, frames_per_node=64)
        node_of_process = lambda pid: pid % 4  # noqa: E731
        for op, process, page, node in ops:
            try:
                if op == "fault":
                    vm.fault_page(process, page, node)
                elif op == "migrate":
                    vm.migrate(page, node)
                elif op == "replicate":
                    vm.replicate(page, node, node_of_process)
                elif op == "collapse":
                    vm.collapse(page, keep_node=node)
            except (VmError, AllocationError):
                pass  # invalid transitions are expected; state must stay sane
            vm.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(
        pages=st.lists(st.integers(0, 20), min_size=1, max_size=40),
        nodes=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    )
    def test_frame_conservation(self, pages, nodes):
        """Frames in use always equals masters + replicas."""
        vm = VmSystem(n_nodes=4, frames_per_node=32)
        for page, node in zip(pages, nodes):
            try:
                vm.fault_page(page % 3, page, node)
                if page % 2:
                    vm.replicate(page, (node + 1) % 4, lambda pid: 0)
            except (VmError, AllocationError):
                pass
        masters = sum(1 for _ in vm.hash_table)
        replicas = sum(len(m.replicas) for m in vm.hash_table)
        assert vm.allocator.frames_in_use() == masters + replicas
        assert vm.allocator.total_replica_frames() == replicas
