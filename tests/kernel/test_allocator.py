"""Per-node frame allocation, failures, pressure, replica accounting."""

import pytest

from repro.common.errors import AllocationError, ConfigurationError
from repro.kernel.vm.allocator import PageFrameAllocator


@pytest.fixture
def allocator():
    return PageFrameAllocator(n_nodes=4, frames_per_node=8)


class TestAllocation:
    def test_allocate_on_requested_node(self, allocator):
        frame = allocator.allocate(2, logical_page=100)
        assert frame.node == 2
        assert frame.logical_page == 100
        assert allocator.frames_in_use(2) == 1
        assert allocator.free_frames(2) == 7

    def test_exhaustion_raises_no_page(self, allocator):
        for i in range(8):
            allocator.allocate(0, i)
        with pytest.raises(AllocationError) as exc:
            allocator.allocate(0, 99)
        assert exc.value.node == 0
        assert allocator.failures == 1

    def test_other_nodes_unaffected_by_exhaustion(self, allocator):
        for i in range(8):
            allocator.allocate(0, i)
        frame = allocator.allocate(1, 50)
        assert frame.node == 1

    def test_fallback_spills_to_next_node(self, allocator):
        for i in range(8):
            allocator.allocate(1, i)
        assert allocator.reserve_fallback(1) == 2
        assert allocator.claim(2, 99).node == 2

    def test_fallback_machine_oom(self):
        a = PageFrameAllocator(n_nodes=2, frames_per_node=1)
        a.allocate(0, 1)
        a.allocate(1, 2)
        with pytest.raises(AllocationError):
            a.reserve_fallback(0)

    def test_free_recycles_frame(self, allocator):
        frame = allocator.allocate(0, 1)
        allocator.free(frame)
        assert allocator.free_frames(0) == 8
        again = allocator.allocate(0, 2)
        assert again is frame

    def test_peak_in_use_tracks_high_water(self, allocator):
        frames = [allocator.allocate(0, i) for i in range(5)]
        for f in frames:
            allocator.free(f)
        assert allocator.frames_in_use() == 0
        assert allocator.peak_in_use == 5

    def test_allocation_ids_are_unique(self, allocator):
        seen = set()
        for node in range(4):
            for i in range(8):
                seen.add(allocator.allocate(node, i).frame_id)
        assert len(seen) == 32


class TestPressure:
    def test_under_pressure_near_exhaustion(self):
        a = PageFrameAllocator(n_nodes=1, frames_per_node=100, pressure_watermark=0.1)
        for i in range(91):
            a.allocate(0, i)
        assert a.under_pressure(0)

    def test_not_under_pressure_with_room(self):
        a = PageFrameAllocator(n_nodes=1, frames_per_node=100, pressure_watermark=0.1)
        for i in range(50):
            a.allocate(0, i)
        assert not a.under_pressure(0)


class TestReplicaAccounting:
    def test_created_and_destroyed(self, allocator):
        allocator.note_replica_created(1)
        allocator.note_replica_created(1)
        allocator.note_replica_created(2)
        assert allocator.total_replica_frames() == 3
        assert allocator.peak_replica_frames == 3
        allocator.note_replica_destroyed(1)
        assert allocator.total_replica_frames() == 2
        assert allocator.peak_replica_frames == 3   # peak is sticky

    def test_underflow_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.note_replica_destroyed(0)


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(ConfigurationError):
            PageFrameAllocator(0, 10)
        with pytest.raises(ConfigurationError):
            PageFrameAllocator(1, 0)
        with pytest.raises(ConfigurationError):
            PageFrameAllocator(1, 1, pressure_watermark=1.0)
