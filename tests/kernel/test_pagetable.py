"""Page tables, ptes and remapping."""

import pytest

from repro.common.errors import VmError
from repro.kernel.vm.page import PageFrame
from repro.kernel.vm.pagetable import PageTable, PageTableDirectory


def make_frame(page_id, frame_id=0, node=0):
    f = PageFrame(frame_id, node)
    f.assign(page_id)
    return f


class TestPageTable:
    def test_map_and_lookup(self):
        t = PageTable(1)
        frame = make_frame(10)
        pte = t.map(10, frame, writable=True)
        assert t.lookup(10) is pte
        assert pte.frame is frame
        assert pte.writable
        assert len(t) == 1

    def test_double_map_rejected(self):
        t = PageTable(1)
        t.map(10, make_frame(10))
        with pytest.raises(VmError):
            t.map(10, make_frame(10, frame_id=1))

    def test_unmap(self):
        t = PageTable(1)
        frame = make_frame(10)
        t.map(10, frame)
        t.unmap(10)
        assert t.lookup(10) is None
        assert frame.ptes == []

    def test_unmap_missing_rejected(self):
        with pytest.raises(VmError):
            PageTable(1).unmap(10)

    def test_unmap_all(self):
        t = PageTable(1)
        frames = [make_frame(i, frame_id=i) for i in range(3)]
        for i, f in enumerate(frames):
            t.map(i, f)
        assert t.unmap_all() == 3
        assert all(f.ptes == [] for f in frames)

    def test_remap_moves_back_mapping(self):
        t = PageTable(1)
        old = make_frame(10, frame_id=0)
        new = make_frame(10, frame_id=1, node=2)
        pte = t.map(10, old)
        pte.remap(new)
        assert old.ptes == []
        assert new.ptes == [pte]
        assert pte.frame is new

    def test_remap_to_wrong_page_rejected(self):
        t = PageTable(1)
        pte = t.map(10, make_frame(10))
        with pytest.raises(VmError):
            pte.remap(make_frame(11, frame_id=1))

    def test_iteration(self):
        t = PageTable(1)
        for i in range(3):
            t.map(i, make_frame(i, frame_id=i))
        assert sorted(p.logical_page for p in t) == [0, 1, 2]


class TestPageTableDirectory:
    def test_tables_created_on_demand(self):
        d = PageTableDirectory()
        a = d.table(1)
        assert d.table(1) is a
        assert d.processes() == [1]

    def test_lookup_creates_nothing(self):
        d = PageTableDirectory()
        assert d.lookup(1, 10) is None
        assert d.processes() == []
        pte = d.table(1).map(10, make_frame(10))
        assert d.lookup(1, 10) is pte
        assert d.lookup(1, 11) is None

    def test_drop_unmaps(self):
        d = PageTableDirectory()
        frame = make_frame(10)
        d.table(1).map(10, frame)
        assert d.drop(1) == 1
        assert frame.ptes == []
        assert d.processes() == []

    def test_drop_unknown_process(self):
        assert PageTableDirectory().drop(9) == 0

    def test_mappings_of_frame(self):
        d = PageTableDirectory()
        frame = make_frame(10)
        p1 = d.table(1).map(10, frame)
        p2 = d.table(2).map(10, frame)
        assert set(d.mappings_of_frame(frame)) == {p1, p2}
