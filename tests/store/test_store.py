"""TraceStore: content addressing, replay, degradation, metrics."""

import ast
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.common.errors import TraceError, TraceStoreError
from repro.store import (
    GENERATOR_SOURCES,
    TRACE_DIR_ENV,
    TRACE_STORE_ENV,
    TRACE_TOKEN_ENV,
    TraceStore,
    default_store,
    generator_code_token,
    reset_default_store,
    trace_key,
)
from repro.store import tracestore
from repro.trace.record import TraceBuilder
from repro.workloads import build_spec, generate_trace, trace_for

IDENTITY = {"name": "engineering", "scale": 0.05, "seed": 7}


def sample_trace(n=500):
    b = TraceBuilder()
    for i in range(n):
        b.append(i * 5, i % 4, 0, i % 97, 1 + i % 3, is_kernel=(i % 6 == 0))
    return b.build()


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "traces", token="test-token")


class TestKeying:
    def test_key_is_stable(self):
        assert trace_key(IDENTITY, "t") == trace_key(dict(IDENTITY), "t")

    def test_key_varies_with_identity_and_token(self):
        assert trace_key(IDENTITY, "t") != trace_key(
            {**IDENTITY, "seed": 8}, "t"
        )
        assert trace_key(IDENTITY, "t1") != trace_key(IDENTITY, "t2")

    def test_int_scale_normalises(self):
        assert trace_key({**IDENTITY, "scale": 1}, "t") == trace_key(
            {**IDENTITY, "scale": 1.0}, "t"
        )

    def test_bad_identity_rejected(self):
        with pytest.raises(TraceError):
            trace_key({"name": "x"}, "t")

    def test_numpy_version_changes_key(self, monkeypatch):
        # Generated traces follow numpy's Generator algorithms, which a
        # numpy release may change; a store shared across versions must
        # not replay another version's recordings.
        monkeypatch.delenv(TRACE_TOKEN_ENV, raising=False)
        monkeypatch.setattr(tracestore, "_token_cache", None)
        generator_code_token(refresh=True)
        before = trace_key(IDENTITY)
        monkeypatch.setattr(np, "__version__", "0.0.0+other")
        generator_code_token(refresh=True)
        assert trace_key(IDENTITY) != before


def _repro_imports(module: str) -> set:
    """``repro.*`` modules ``module`` imports at module level."""
    spec = importlib.util.find_spec(module)
    package = module if spec.submodule_search_locations else module.rpartition(".")[0]
    tree = ast.parse(Path(spec.origin).read_text(encoding="utf-8"))
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            candidates = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            candidates = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in candidates:
            try:
                if name.startswith("repro.") and importlib.util.find_spec(name):
                    found.add(name)
            except ModuleNotFoundError:   # ``from module import attribute``
                pass
    return found


def test_generator_imports_lie_under_token_sources():
    """Every module generation imports is hashed into the code token.

    A helper the generator imports from outside ``GENERATOR_SOURCES``
    could change traces without changing the token, and the store would
    replay stale recordings.
    """
    import repro.workloads

    root = Path(repro.__file__).parent
    pending = ["repro.workloads"] + [
        info.name
        for info in pkgutil.walk_packages(
            repro.workloads.__path__, "repro.workloads."
        )
    ]
    seen = set()
    while pending:
        module = pending.pop()
        if module not in seen:
            seen.add(module)
            pending.extend(_repro_imports(module))
    outside = []
    for module in sorted(seen):
        rel = Path(importlib.util.find_spec(module).origin).relative_to(root)
        rel = rel.as_posix()
        if rel == "common/errors.py":
            continue
        if not any(rel == src or rel.startswith(src + "/")
                   for src in GENERATOR_SOURCES):
            outside.append(module)
    assert "repro.kernel.sched.process" in seen
    assert outside == []


class TestReplay:
    def test_get_or_record_then_replay(self, store):
        trace = sample_trace()
        calls = []

        def generate():
            calls.append(1)
            return trace

        first = store.get_or_record(IDENTITY, generate)
        second = store.get_or_record(IDENTITY, generate)
        assert len(calls) == 1
        for name in ("time_ns", "cpu", "process", "page", "weight", "flags"):
            assert np.array_equal(getattr(second, name), getattr(trace, name))
            assert getattr(second, name).dtype == getattr(trace, name).dtype
        assert first is trace          # miss returns the generated object
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1
        assert store.stats()["stores"] == 1

    def test_meta_attached_on_hit(self, store):
        store.put(IDENTITY, sample_trace())
        sentinel = object()
        assert store.get(IDENTITY, meta=sentinel).meta is sentinel

    def test_contains(self, store):
        assert not store.contains(IDENTITY)
        store.put(IDENTITY, sample_trace())
        assert store.contains(IDENTITY)
        assert len(store) == 1

    def test_iter_chunks_requires_recording(self, store):
        with pytest.raises(TraceStoreError):
            list(store.iter_chunks(IDENTITY))

    def test_iter_chunks_streams_recording(self, tmp_path):
        store = TraceStore(tmp_path, token="t", chunk_records=100)
        trace = sample_trace()
        store.put(IDENTITY, trace)
        chunks = list(store.iter_chunks(IDENTITY))
        assert len(chunks) == 5
        assert np.array_equal(
            np.concatenate([c.time_ns for c in chunks]), trace.time_ns
        )
        assert store.stats()["bytes_read"] > 0
        assert store.stats()["decode_seconds"] > 0


class TestDegradation:
    def test_corrupt_container_is_a_miss_and_dropped(self, store):
        store.put(IDENTITY, sample_trace())
        path = store.path_for(IDENTITY)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get(IDENTITY) is None
        assert not path.is_file()      # dropped, next put rewrites
        assert store.stats()["invalidations"] == 1

    def test_truncated_container_is_a_miss(self, store):
        store.put(IDENTITY, sample_trace())
        path = store.path_for(IDENTITY)
        path.write_bytes(path.read_bytes()[:40])
        assert store.get(IDENTITY) is None
        assert not path.is_file()

    def test_garbage_file_is_a_miss(self, store):
        path = store.path_for(IDENTITY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a container at all")
        assert store.get(IDENTITY) is None
        assert not store.contains(IDENTITY)

    def test_corruption_recovers_through_get_or_record(self, store):
        trace = sample_trace()
        store.put(IDENTITY, trace)
        path = store.path_for(IDENTITY)
        path.write_bytes(path.read_bytes()[:40])
        replayed = store.get_or_record(IDENTITY, lambda: trace)
        assert replayed is trace
        assert store.contains(IDENTITY)   # rewritten after the miss

    def test_stale_token_is_a_miss(self, tmp_path):
        old = TraceStore(tmp_path, token="old-code")
        old.put(IDENTITY, sample_trace())
        new = TraceStore(tmp_path, token="new-code")
        assert new.get(IDENTITY) is None
        assert new.stats()["misses"] == 1
        # The stale container survives (other checkouts may still use it).
        assert old.contains(IDENTITY)

    def test_invalidate_and_clear(self, store):
        store.put(IDENTITY, sample_trace())
        assert store.invalidate(IDENTITY)
        assert not store.invalidate(IDENTITY)
        store.put(IDENTITY, sample_trace())
        assert store.clear() == 1
        assert len(store) == 0


class TestDefaultStore:
    def test_env_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_STORE_ENV, "0")
        reset_default_store()
        try:
            assert default_store() is None
        finally:
            monkeypatch.undo()
            reset_default_store()

    def test_env_directs_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "here"))
        reset_default_store()
        try:
            assert default_store().directory == tmp_path / "here"
        finally:
            monkeypatch.undo()
            reset_default_store()

    def test_token_env_overrides(self, monkeypatch):
        monkeypatch.setenv(TRACE_TOKEN_ENV, "pinned")
        reset_default_store()
        try:
            assert default_store().token == "pinned"
        finally:
            monkeypatch.undo()
            reset_default_store()


class TestWorkloadWiring:
    def test_trace_for_records_then_replays(self, tmp_path):
        store = TraceStore(tmp_path, token="t")
        spec = build_spec("database", scale=0.02, seed=3)
        generated = trace_for(spec, store=store)
        replayed = trace_for(spec, store=store)
        assert store.stats()["stores"] == 1
        assert store.stats()["hits"] == 1
        for name in ("time_ns", "cpu", "process", "page", "weight", "flags"):
            assert np.array_equal(
                getattr(replayed, name), getattr(generated, name)
            )
        assert replayed.meta is spec   # identity meta re-attached

    def test_trace_for_without_store_generates(self):
        spec = build_spec("database", scale=0.02, seed=3)
        trace = trace_for(spec, store=None)
        assert np.array_equal(trace.time_ns, generate_trace(spec).time_ns)
