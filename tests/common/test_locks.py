"""Cross-process file locks and the stampede discipline they enforce.

The stampede test spawns real processes: N writers race ``put`` on the
same key of a shared store (the result cache or the trace store), and
exactly one write may win (the rest dedup).  The worker functions live
at module level so they stay picklable.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, LockTimeout
from repro.common.locks import LOCK_SUFFIX, FileLock
from repro.exp.cache import ResultCache
from repro.obs.registry import MetricsRegistry
from repro.exp.spec import ExperimentSpec
from repro.store import ContainerReader, TraceStore
from repro.trace.policysim import PolicySimResult
from repro.trace.record import TraceBuilder

SPEC = ExperimentSpec(workload="database", scale=0.05, kind="trace")
TRACE_IDENTITY = {"name": "database", "scale": 0.05, "seed": 0}
TRACE_COLUMNS = ("time_ns", "cpu", "process", "page", "weight", "flags")


def make_result() -> PolicySimResult:
    return PolicySimResult(
        label="Mig/Rep", total_misses=100, local_misses=60,
        stall_ns=66_000.0, overhead_ns=700_000.0,
        migrations=2, replications=1,
    )


def make_trace():
    b = TraceBuilder()
    for i in range(500):
        b.append(i * 5, i % 4, 0, i % 97, 1 + i % 3, is_kernel=(i % 6 == 0))
    return b.build()


class TestFileLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        assert not lock.held
        lock.acquire()
        assert lock.held
        lock.release()
        assert not lock.held
        lock.acquire()  # reusable after release
        lock.release()

    def test_context_manager(self, tmp_path):
        with FileLock(tmp_path / "x.lock") as lock:
            assert lock.held
        assert not lock.held

    def test_for_path_names_a_sibling(self, tmp_path):
        lock = FileLock.for_path(tmp_path / "entry.json")
        assert lock.path == tmp_path / ("entry.json" + LOCK_SUFFIX)

    def test_double_acquire_is_an_error(self, tmp_path):
        with FileLock(tmp_path / "x.lock") as lock:
            with pytest.raises(ConfigurationError):
                lock.acquire()

    def test_release_without_acquire_is_noop(self, tmp_path):
        FileLock(tmp_path / "x.lock").release()

    def test_contenders_time_out(self, tmp_path):
        # flock is per file descriptor, so a second instance contends
        # even within one process — the cheap way to test exclusion.
        path = tmp_path / "x.lock"
        with FileLock(path):
            with pytest.raises(LockTimeout):
                FileLock(path).acquire(timeout=0)
            with pytest.raises(LockTimeout):
                FileLock(path).acquire(timeout=0.05)

    def test_waiter_proceeds_after_release(self, tmp_path):
        path = tmp_path / "x.lock"
        first = FileLock(path).acquire()
        first.release()
        with FileLock(path, timeout=0.5) as second:
            assert second.held

    def test_lock_file_left_in_place(self, tmp_path):
        # Unlinking on release would split the lock for any process
        # that had already opened the old inode.
        path = tmp_path / "x.lock"
        with FileLock(path):
            pass
        assert path.exists()

    def test_constructor_timeout_is_the_default(self, tmp_path):
        path = tmp_path / "x.lock"
        with FileLock(path):
            with pytest.raises(LockTimeout):
                FileLock(path, timeout=0).acquire()

    def test_for_path_carries_timeout(self, tmp_path):
        target = tmp_path / "entry.json"
        with FileLock.for_path(target):
            with pytest.raises(LockTimeout):
                FileLock.for_path(target, timeout=0).acquire()

    def test_timeout_message_names_lock_and_wait(self, tmp_path):
        path = tmp_path / "x.lock"
        with FileLock(path):
            with pytest.raises(LockTimeout, match=r"x\.lock within 0s"):
                FileLock(path).acquire(timeout=0)

    def test_acquire_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "x.lock"
        with FileLock(path) as lock:
            assert lock.held
        assert path.exists()

    def test_released_when_body_raises(self, tmp_path):
        path = tmp_path / "x.lock"
        with pytest.raises(RuntimeError):
            with FileLock(path):
                raise RuntimeError("boom")
        with FileLock(path, timeout=0) as again:
            assert again.held

    def test_threads_with_own_instances_exclude(self, tmp_path):
        path = tmp_path / "x.lock"
        inside = []
        overlaps = []

        def worker():
            for _ in range(20):
                with FileLock(path):
                    inside.append(1)
                    if len(inside) > 1:
                        overlaps.append(len(inside))
                    time.sleep(0.001)
                    inside.pop()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert overlaps == []


def _hold_lock(path, held, release):
    lock = FileLock(path).acquire()
    held.set()
    release.wait(30)
    lock.release()


def _hold_lock_and_die(path, held):
    FileLock(path).acquire()
    held.set()
    os.kill(os.getpid(), signal.SIGKILL)


class TestFileLockAcrossProcesses:
    def test_excludes_another_process(self, tmp_path):
        path = tmp_path / "x.lock"
        ctx = multiprocessing.get_context("fork")
        held, release = ctx.Event(), ctx.Event()
        holder = ctx.Process(target=_hold_lock, args=(path, held, release))
        holder.start()
        try:
            assert held.wait(30)
            with pytest.raises(LockTimeout):
                FileLock(path).acquire(timeout=0.05)
        finally:
            release.set()
            holder.join(timeout=30)
        assert holder.exitcode == 0
        with FileLock(path, timeout=5) as lock:
            assert lock.held

    def test_dead_holder_never_wedges_the_lock(self, tmp_path):
        # The kernel drops a flock with its last descriptor, so a
        # holder killed mid-write releases the lock without cleanup.
        path = tmp_path / "x.lock"
        ctx = multiprocessing.get_context("fork")
        held = ctx.Event()
        holder = ctx.Process(target=_hold_lock_and_die, args=(path, held))
        holder.start()
        assert held.wait(30)
        holder.join(timeout=30)
        assert holder.exitcode == -signal.SIGKILL
        with FileLock(path, timeout=5) as lock:
            assert lock.held


def _check_result(cache):
    entry = cache.path_for(SPEC)
    envelope = json.loads(entry.read_text(encoding="utf-8"))
    assert envelope["result"] == make_result().to_dict()
    got = cache.get(SPEC)
    assert got is not None
    assert got.to_dict() == make_result().to_dict()


def _check_trace(store):
    with ContainerReader(store.path_for(TRACE_IDENTITY)) as reader:
        reader.verify()
    got, want = store.get(TRACE_IDENTITY), make_trace()
    assert got is not None
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name))
        assert getattr(got, name).dtype == getattr(want, name).dtype


#: name -> (open the store in a directory, put the shared key, check it).
STORES = {
    "ResultCache": (
        lambda directory, **kw: ResultCache(
            directory=directory, token="stampede", **kw
        ),
        lambda cache: cache.put(SPEC, make_result()),
        _check_result,
    ),
    "TraceStore": (
        lambda directory, **kw: TraceStore(directory, token="stampede", **kw),
        lambda store: store.put(TRACE_IDENTITY, make_trace()),
        _check_trace,
    ),
}

#: name -> (the shared key's entry path, a read of the shared key,
#: a second key's put, the metric prefix the store reports under).
STORE_EXTRAS = {
    "ResultCache": (
        lambda cache: cache.path_for(SPEC),
        lambda cache: cache.get(SPEC),
        lambda cache: cache.put(SPEC.replace(seed=1), make_result()),
        "exp.cache",
    ),
    "TraceStore": (
        lambda store: store.path_for(TRACE_IDENTITY),
        lambda store: store.get(TRACE_IDENTITY),
        lambda store: store.put(dict(TRACE_IDENTITY, seed=1), make_trace()),
        "store",
    ),
}


def _stampede_worker(store_name, directory, barrier, out):
    open_store, put, _ = STORES[store_name]
    store = open_store(directory)
    barrier.wait()  # maximise contention: all writers release together
    put(store)
    out.put(store.stats())


class TestWriteStampede:
    @pytest.mark.parametrize("store_name", sorted(STORES))
    def test_exactly_one_write_wins(self, tmp_path, store_name):
        n = 6
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n)
        out = ctx.Queue()
        workers = [
            ctx.Process(
                target=_stampede_worker,
                args=(store_name, str(tmp_path), barrier, out),
            )
            for _ in range(n)
        ]
        for proc in workers:
            proc.start()
        stats = [out.get(timeout=30) for _ in range(n)]
        for proc in workers:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        # Exactly one write wins; every other writer deduped.
        assert sum(s["stores"] for s in stats) == 1
        assert sum(s["dedup"] for s in stats) == n - 1

        # And the single surviving entry is intact.
        open_store, _, check = STORES[store_name]
        check(open_store(str(tmp_path)))


def test_trace_put_overwrites_unreadable_container(tmp_path):
    # Unlike a cache entry, a container is re-checked for readability
    # under the lock, so a put repairs it without a prior read.
    store = TraceStore(tmp_path, token="t")
    store.put(TRACE_IDENTITY, make_trace())
    store.path_for(TRACE_IDENTITY).write_bytes(b"garbage")
    store.put(TRACE_IDENTITY, make_trace())
    assert (store.stats()["stores"], store.stats()["dedup"]) == (2, 0)
    _check_trace(store)


@pytest.mark.parametrize("store_name", sorted(STORES))
class TestSingleWriterPut:
    """The in-process half of the discipline, per store."""

    def test_serial_put_put_dedups(self, tmp_path, store_name):
        open_store, put, check = STORES[store_name]
        store = open_store(str(tmp_path))
        put(store)
        put(store)
        assert (store.stats()["stores"], store.stats()["dedup"]) == (1, 1)
        check(store)

    def test_distinct_keys_each_write(self, tmp_path, store_name):
        open_store, put, _ = STORES[store_name]
        _, _, put_other, _ = STORE_EXTRAS[store_name]
        store = open_store(str(tmp_path))
        put(store)
        put_other(store)
        assert (store.stats()["stores"], store.stats()["dedup"]) == (2, 0)

    def test_put_leaves_lock_sibling_and_no_temp_files(
        self, tmp_path, store_name
    ):
        open_store, put, _ = STORES[store_name]
        entry_path, _, _, _ = STORE_EXTRAS[store_name]
        store = open_store(str(tmp_path))
        put(store)
        entry = entry_path(store)
        siblings = sorted(p.name for p in entry.parent.iterdir())
        assert siblings == sorted([entry.name, entry.name + LOCK_SUFFIX])

    def test_put_waits_for_the_lock_holder(self, tmp_path, store_name):
        open_store, put, check = STORES[store_name]
        entry_path, _, _, _ = STORE_EXTRAS[store_name]
        store = open_store(str(tmp_path))
        entry = entry_path(store)
        holder = FileLock.for_path(entry).acquire()
        writer = threading.Thread(target=put, args=(store,))
        try:
            writer.start()
            writer.join(timeout=0.3)
            assert writer.is_alive()  # blocked behind the holder
            assert not entry.exists()
        finally:
            holder.release()
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert store.stats()["stores"] == 1
        check(store)

    def test_dropped_corrupt_entry_is_rewritten(self, tmp_path, store_name):
        open_store, put, check = STORES[store_name]
        entry_path, get, _, _ = STORE_EXTRAS[store_name]
        store = open_store(str(tmp_path))
        put(store)
        entry = entry_path(store)
        entry.write_bytes(b"garbage")
        # A read drops the unusable entry; the next writer replaces it.
        assert get(store) is None
        assert not entry.exists()
        put(store)
        assert (store.stats()["stores"], store.stats()["dedup"]) == (2, 0)
        check(open_store(str(tmp_path)))

    def test_dedup_reported_through_registry(self, tmp_path, store_name):
        open_store, put, _ = STORES[store_name]
        _, _, _, prefix = STORE_EXTRAS[store_name]
        registry = MetricsRegistry()
        store = open_store(str(tmp_path), metrics=registry)
        put(store)
        put(store)
        collected = registry.collect()
        assert collected[f"{prefix}.stores"] == 1
        assert collected[f"{prefix}.dedup"] == 1
