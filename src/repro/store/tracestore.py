"""Content-addressed record-once/replay-many trace store.

Section 8 of the paper records each workload's miss trace once and
replays it across all six policies and every threshold sweep.  The
:class:`TraceStore` gives the reproduction the same split: a workload
trace is generated at most once per code version and then replayed —
by the CLI, the sweep runner's workers, and the benchmark harness —
from a compressed on-disk container (:mod:`repro.store.format`).

Containers are keyed the same way as the experiment
:class:`~repro.exp.cache.ResultCache`: SHA-256 over the canonical
workload identity JSON (``{name, scale, seed}``) plus a **generator
code-version token** — a digest of every source file that shapes trace
generation (the ``workloads`` package, the schedulers it drives, the
trace container code, and the RNG plumbing) and numpy's version, whose
``Generator`` algorithms the generator draws from (NumPy does not
promise those streams stay the same across releases).  Editing any of
those files or upgrading numpy changes the token, so stale containers
are simply never found; there is no manual versioning to forget.

Corrupt, truncated, or stale containers degrade to a miss: the store
drops them and the caller regenerates and rewrites.  ``store.*``
hit/miss/bytes/decode-time metrics are surfaced through a
:class:`repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.common.errors import TraceError, TraceStoreError
from repro.common.locks import FileLock
from repro.obs.registry import MetricsRegistry
from repro.store.format import (
    DEFAULT_CHUNK_RECORDS,
    ContainerReader,
    write_container,
)
from repro.trace.record import Trace

#: Environment variable naming the shared trace-store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Set to ``0``/``off`` to disable the default store entirely
#: (``load_workload`` then regenerates traces in-process, as before).
TRACE_STORE_ENV = "REPRO_TRACE_STORE"

#: Environment variable overriding the generator code-version token
#: (tests use it to simulate a generator change without editing files).
TRACE_TOKEN_ENV = "REPRO_TRACE_TOKEN"

#: Source files (relative to the ``repro`` package root) whose content
#: determines the generated trace.  A workload trace is a pure function
#: of (identity, these files): the spec builders and generator live in
#: ``workloads/``, the schedule comes from ``kernel/sched/``, all
#: randomness flows through ``common/rng.py``, units set the time base,
#: and the trace/container classes define the stored shape.
GENERATOR_SOURCES = (
    "workloads",
    "kernel/sched",
    "common/rng.py",
    "common/units.py",
    "trace/record.py",
    "store/format.py",
)

#: Container file extension.
CONTAINER_SUFFIX = ".rptc"

_token_cache: Optional[str] = None


def default_store_dir() -> Path:
    """``$REPRO_TRACE_DIR`` or ``~/.cache/repro/traces``."""
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "traces"


def store_enabled() -> bool:
    """Is the default trace store switched on (``$REPRO_TRACE_STORE``)?"""
    return os.environ.get(TRACE_STORE_ENV, "1").lower() not in (
        "0", "off", "no", "false",
    )


def generator_code_token(refresh: bool = False) -> str:
    """Digest of every generator source file and numpy's version.

    Cached per process; ``refresh`` recomputes it.
    """
    global _token_cache
    env = os.environ.get(TRACE_TOKEN_ENV)
    if env:
        return env
    if _token_cache is not None and not refresh:
        return _token_cache
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(f"numpy {np.__version__}".encode("utf-8"))
    digest.update(b"\0")
    for rel in GENERATOR_SOURCES:
        target = root / rel
        paths = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for path in paths:
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    _token_cache = digest.hexdigest()
    return _token_cache


def canonical_identity(identity: Dict[str, object]) -> Dict[str, object]:
    """Normalise an identity dict to the canonical key types."""
    try:
        return {
            "name": str(identity["name"]),
            "scale": float(identity["scale"]),
            "seed": int(identity["seed"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"bad workload identity {identity!r}") from exc


def trace_key(identity: Dict[str, object], token: Optional[str] = None) -> str:
    """SHA-256 key of one workload identity under one generator version."""
    if token is None:
        token = generator_code_token()
    payload = (
        json.dumps(
            canonical_identity(identity), sort_keys=True, separators=(",", ":")
        )
        + "\n"
        + token
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TraceStore:
    """Content-addressed store of recorded workload traces.

    ``get`` returns ``None`` on any miss — absent, corrupt, truncated,
    or recorded by a different generator version — and ``put`` writes
    atomically, so concurrent sweep workers and pytest sessions can
    share one directory safely (last writer wins on identical content).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        metrics: Optional[MetricsRegistry] = None,
        token: Optional[str] = None,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> None:
        self.directory = Path(directory) if directory else default_store_dir()
        self.token = token if token is not None else generator_code_token()
        self.chunk_records = int(chunk_records)
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self._hits = registry.counter("store.hits")
        self._misses = registry.counter("store.misses")
        self._stores = registry.counter("store.stores")
        self._invalidations = registry.counter("store.invalidations")
        self._dedup = registry.counter("store.dedup")
        self._bytes_read = registry.counter("store.bytes_read")
        self._bytes_written = registry.counter("store.bytes_written")
        self._decode_s = registry.histogram("store.decode_seconds")

    # -- accounting ------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Traces replayed from disk."""
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        """Lookups that found nothing usable."""
        return int(self._misses.value)

    @property
    def stores(self) -> int:
        """Containers written."""
        return int(self._stores.value)

    def stats(self) -> Dict[str, float]:
        """Hit/miss/store/bytes/decode-time accounting for reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": int(self._invalidations.value),
            "dedup": int(self._dedup.value),
            "bytes_read": int(self._bytes_read.value),
            "bytes_written": int(self._bytes_written.value),
            "decode_seconds": float(self._decode_s.total),
        }

    # -- paths -----------------------------------------------------------------

    def path_for(self, identity: Dict[str, object]) -> Path:
        """Where this identity's container lives (two-level fan-out)."""
        key = trace_key(identity, self.token)
        return self.directory / key[:2] / f"{key}{CONTAINER_SUFFIX}"

    def containers(self) -> List[Path]:
        """Every container file currently in the store directory."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"*/*{CONTAINER_SUFFIX}"))

    # -- operations ------------------------------------------------------------

    def contains(self, identity: Dict[str, object]) -> bool:
        """Is a readable container recorded for ``identity``?

        Validates the header only (magic, version, chunk index) — cheap
        enough for prewarm checks; chunk corruption still degrades to a
        miss at read time.
        """
        path = self.path_for(identity)
        if not path.is_file():
            return False
        try:
            ContainerReader(path).close()
        except TraceError:
            return False
        return True

    def get(self, identity: Dict[str, object], meta=None) -> Optional[Trace]:
        """The recorded trace for ``identity``, or ``None`` on a miss.

        ``meta`` is attached to the returned trace (the caller usually
        passes the freshly built :class:`WorkloadSpec`, which is cheap
        to construct — only trace *generation* is worth caching).
        """
        path = self.path_for(identity)
        if not path.is_file():
            self._misses.inc()
            return None
        t0 = time.monotonic()
        try:
            with ContainerReader(path) as reader:
                trace = reader.read_trace(meta=meta)
        except TraceError:
            # Corrupt, truncated, or stale container: drop and let the
            # caller regenerate and rewrite.  Never an error.
            self._misses.inc()
            self._invalidations.inc()
            self._remove(path)
            return None
        self._decode_s.add(time.monotonic() - t0)
        self._hits.inc()
        try:
            self._bytes_read.inc(path.stat().st_size)
        except OSError:
            pass
        return trace

    def open(self, identity: Dict[str, object]) -> Optional[ContainerReader]:
        """A streaming :class:`ContainerReader`, or ``None`` on a miss.

        The caller owns the reader (use it as a context manager); bytes
        read through it are not metered.
        """
        path = self.path_for(identity)
        if not path.is_file():
            self._misses.inc()
            return None
        try:
            reader = ContainerReader(path)
        except TraceError:
            self._misses.inc()
            self._invalidations.inc()
            self._remove(path)
            return None
        self._hits.inc()
        return reader

    def put(self, identity: Dict[str, object], trace: Trace) -> Path:
        """Atomically record ``trace`` under ``identity``'s key.

        Writers take a sibling file lock and re-check for a readable
        container before writing, so N processes recording the same
        workload concurrently produce exactly one write — the other N-1
        skip (counted under ``store.dedup``).  An unreadable existing
        container is overwritten.
        """
        path = self.path_for(identity)
        path.parent.mkdir(parents=True, exist_ok=True)
        with FileLock.for_path(path):
            if path.is_file():
                try:
                    ContainerReader(path).close()
                except TraceError:
                    pass  # unreadable: fall through and rewrite
                else:
                    self._dedup.inc()
                    return path
            nbytes = write_container(
                path,
                trace,
                identity=canonical_identity(identity),
                chunk_records=self.chunk_records,
            )
            self._stores.inc()
            self._bytes_written.inc(nbytes)
        return path

    def get_or_record(
        self,
        identity: Dict[str, object],
        generate: Callable[[], Trace],
        meta=None,
    ) -> Trace:
        """Replay the recorded trace, or generate, record, and return it."""
        trace = self.get(identity, meta=meta)
        if trace is not None:
            return trace
        trace = generate()
        self.put(identity, trace)
        return trace

    def iter_chunks(
        self,
        identity: Dict[str, object],
        window=None,
        kernel_only: bool = False,
        meta=None,
    ) -> Iterator[Trace]:
        """Stream the recorded trace chunk by chunk (store hit required).

        Raises :class:`~repro.common.errors.TraceStoreError` when no
        usable container is recorded — streaming callers asked for
        bounded memory, so silently materializing a regenerated trace
        would defeat the point.
        """
        reader = self.open(identity)
        if reader is None:
            raise TraceStoreError(
                f"no recorded trace for {canonical_identity(identity)!r}"
            )
        with reader:
            try:
                self._bytes_read.inc(reader.path.stat().st_size)
            except OSError:
                pass
            chunk_iter = reader.iter_chunks(
                window=window, kernel_only=kernel_only, meta=meta
            )
            while True:
                t0 = time.monotonic()
                chunk = next(chunk_iter, None)
                if chunk is None:
                    break
                self._decode_s.add(time.monotonic() - t0)
                yield chunk

    def invalidate(self, identity: Dict[str, object]) -> bool:
        """Drop one container; returns whether anything was removed."""
        removed = self._remove(self.path_for(identity))
        if removed:
            self._invalidations.inc()
        return removed

    def clear(self) -> int:
        """Drop every container in the store; returns the count."""
        removed = 0
        for path in self.containers():
            removed += self._remove(path)
        if removed:
            self._invalidations.inc(removed)
        return removed

    def __len__(self) -> int:
        return len(self.containers())

    @staticmethod
    def _remove(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False


_default_store: Optional[TraceStore] = None
_default_disabled = False


def default_store() -> Optional[TraceStore]:
    """The process-wide shared store, or ``None`` when disabled.

    Created lazily from the environment (``$REPRO_TRACE_DIR``,
    ``$REPRO_TRACE_STORE``); :func:`reset_default_store` re-reads the
    environment, which tests use after monkeypatching it.
    """
    global _default_store, _default_disabled
    if _default_disabled:
        return None
    if _default_store is None:
        if not store_enabled():
            _default_disabled = True
            return None
        _default_store = TraceStore()
    return _default_store


def reset_default_store() -> None:
    """Forget the memoised default store (tests; env changes)."""
    global _default_store, _default_disabled, _token_cache
    _default_store = None
    _default_disabled = False
    _token_cache = None
