"""Recorded first touches against eager faults: the same VM, op by op.

A :class:`VmSystem` faulted in runs (``fault``) records its pages and
builds their objects only when the kernel acts on them; one faulted
page by page (``fault_page``) builds them at once.  Driven through the
same random operations, the two must agree after every step on what a
caller can see without building anything (placement, residency,
counters, the allocator), and, once every page is built, on every copy,
back-mapping and the hash table's order.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AllocationError, VmError
from repro.kernel.vm.system import VmSystem

N_NODES = 3
FRAMES_PER_NODE = 5
PROCESSES = range(4)
#: Three pages per hash bucket, so bucket order is first-touch order.
PAGES = [bucket + 4096 * k for bucket in range(4) for k in range(3)]


def _node_of_process(pid: int) -> int:
    return pid % N_NODES


def _visible(vm: VmSystem):
    """What a caller reads without building objects."""
    a = vm.allocator
    return (
        [(pid, page, vm.location_for(pid, page))
         for pid in PROCESSES for page in PAGES],
        [vm.is_resident(page) for page in PAGES],
        dataclasses.asdict(vm.stats),
        [a.free_frames(node) for node in range(N_NODES)],
        a.frames_in_use(), a.allocations, a.failures, a.peak_in_use,
        dict(a.replica_frames), a.peak_replica_frames,
    )


def _built(vm: VmSystem):
    """Every page's objects (building them), then the hash-table order."""
    pages = []
    for page in PAGES:
        master = vm.master_of(page)
        if master is None:
            continue
        pages.append([
            (copy.node, copy.is_replica,
             [(pte.process, pte.writable) for pte in copy.ptes])
            for copy in master.all_copies()
        ])
    return pages, [master.logical_page for master in vm.hash_table]


def _apply(vm: VmSystem, op, eager: bool):
    """Run one operation; its exception type (or None)."""
    kind, args = op
    try:
        if kind == "fault":
            if eager:
                for pid, page, node in args:
                    vm.fault_page(pid, page, node)
            else:
                vm.fault(*zip(*args))
        elif kind == "migrate":
            vm.migrate(*args)
        elif kind == "replicate":
            vm.replicate(*args, node_of_process=_node_of_process)
        elif kind == "collapse":
            vm.collapse(*args)
        elif kind == "reclaim":
            vm.reclaim_replicas(*args)
        elif kind == "frame_for":
            vm.frame_for(*args)
    except (VmError, AllocationError) as exc:
        return type(exc)
    return None


pages = st.sampled_from(PAGES)
nodes = st.integers(0, N_NODES - 1)
processes = st.sampled_from(list(PROCESSES))
operations = st.one_of(
    st.tuples(st.just("fault"), st.lists(
        st.tuples(processes, pages, nodes), min_size=1, max_size=6)),
    st.tuples(st.just("migrate"), st.tuples(pages, nodes)),
    st.tuples(st.just("replicate"), st.tuples(pages, nodes)),
    st.tuples(st.just("collapse"), st.tuples(pages, nodes)),
    st.tuples(st.just("reclaim"), st.tuples(nodes, st.integers(0, 3))),
    st.tuples(st.just("frame_for"), st.tuples(processes, pages)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, min_size=1, max_size=30))
def test_recorded_vm_equals_eager_vm(ops):
    lazy = VmSystem(N_NODES, FRAMES_PER_NODE)
    eager = VmSystem(N_NODES, FRAMES_PER_NODE)
    for op in ops:
        assert _apply(lazy, op, eager=False) == _apply(eager, op, eager=True)
        assert _visible(lazy) == _visible(eager)
        lazy.check_invariants()
        eager.check_invariants()
    assert _built(lazy) == _built(eager)
    lazy.check_invariants()
