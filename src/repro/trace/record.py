"""Columnar secondary-cache-miss traces.

Section 8 of the paper drives a policy simulator from SimOS-generated
traces containing every secondary-cache miss (user and kernel) with the
processor and a timestamp.  Our traces carry the same information in
columnar ``numpy`` arrays, with one extension: a ``weight`` per record —
the number of consecutive identical misses the record stands for — which
keeps Python-side record counts tractable at the paper's miss volumes.

Flags encode write/instruction/kernel status as a bitfield.
"""

from __future__ import annotations

import json
import os
import warnings
import weakref
from typing import TYPE_CHECKING, Callable, Hashable, Optional, TypeVar, Union

import numpy as np

from repro.common.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.spec import WorkloadSpec

FLAG_WRITE = 0x1
FLAG_INSTR = 0x2
FLAG_KERNEL = 0x4

#: The six columns of a trace, in storage order.
COLUMNS = ("time_ns", "cpu", "process", "page", "weight", "flags")

_T = TypeVar("_T")


class Trace:
    """A time-sorted weighted miss trace, never changed once built.

    Selections and derivations build new traces.  The traces several
    callers share have non-writeable columns, so an in-place write
    raises ``ValueError`` instead of silently changing what every later
    reader sees: the user stream :meth:`user_only` keeps, the TLB-miss
    stream :func:`repro.trace.tlbsim.derive_tlb_trace` memoizes, and
    the workload traces :func:`repro.workloads.load_workload` caches.
    """

    def __init__(
        self,
        time_ns: np.ndarray,
        cpu: np.ndarray,
        process: np.ndarray,
        page: np.ndarray,
        weight: np.ndarray,
        flags: np.ndarray,
        meta: Optional["WorkloadSpec"] = None,
        validate: bool = True,
    ) -> None:
        self.time_ns = np.asarray(time_ns, dtype=np.int64)
        self.cpu = np.asarray(cpu, dtype=np.int16)
        self.process = np.asarray(process, dtype=np.int32)
        self.page = np.asarray(page, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.int64)
        self.flags = np.asarray(flags, dtype=np.uint8)
        self.meta = meta
        self._memo: dict = {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = len(self.time_ns)
        for name in ("cpu", "process", "page", "weight", "flags"):
            if len(getattr(self, name)) != n:
                raise TraceError(f"column {name} length mismatch")
        if n and np.any(np.diff(self.time_ns) < 0):
            raise TraceError("trace timestamps must be non-decreasing")
        if n and np.any(self.weight <= 0):
            raise TraceError("record weights must be positive")
        if n and np.any(self.page < 0):
            raise TraceError("page ids must be non-negative")
        if n and np.any(self.cpu < 0):
            raise TraceError("cpu ids must be non-negative")

    # -- basic shape --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.time_ns)

    @property
    def total_misses(self) -> int:
        """Total represented misses (sum of weights)."""
        return int(self.weight.sum()) if len(self) else 0

    @property
    def duration_ns(self) -> int:
        """Span from first to last record."""
        if not len(self):
            return 0
        return int(self.time_ns[-1] - self.time_ns[0])

    @property
    def n_pages(self) -> int:
        """Distinct pages touched."""
        return int(len(np.unique(self.page))) if len(self) else 0

    # -- derived masks ---------------------------------------------------------------

    @property
    def is_write(self) -> np.ndarray:
        """Boolean mask of write records."""
        return (self.flags & FLAG_WRITE) != 0

    @property
    def is_instr(self) -> np.ndarray:
        """Boolean mask of instruction-fetch records."""
        return (self.flags & FLAG_INSTR) != 0

    @property
    def is_kernel(self) -> np.ndarray:
        """Boolean mask of kernel-mode records."""
        return (self.flags & FLAG_KERNEL) != 0

    # -- selection ---------------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "Trace":
        """A sub-trace of the records where ``mask`` is True."""
        return Trace(
            self.time_ns[mask],
            self.cpu[mask],
            self.process[mask],
            self.page[mask],
            self.weight[mask],
            self.flags[mask],
            meta=self.meta,
            validate=False,
        )

    def user_only(self) -> "Trace":
        """Records issued in user mode, read-only.

        Every trace-driven cell of a workload replays the same user
        stream, so one slot keeps the stream of the last trace asked:
        calls on that trace return the same stream, with the inputs
        memoized on it (:meth:`memo`).  A call on another trace moves
        the slot and releases the old stream, so at most one
        workload's derived inputs stay alive.
        """
        global _user_slot
        ref, stream = _user_slot
        if ref is not None and ref() is self:
            return stream
        stream = self.select(~self.is_kernel).freeze()
        _user_slot = (weakref.ref(self, _release_user_slot), stream)
        return stream

    def kernel_only(self) -> "Trace":
        """Records issued in kernel mode."""
        return self.select(self.is_kernel)

    def data_only(self) -> "Trace":
        """Data (non-instruction) records."""
        return self.select(~self.is_instr)

    def instr_only(self) -> "Trace":
        """Instruction-fetch records."""
        return self.select(self.is_instr)

    # -- shared use ------------------------------------------------------------------

    def freeze(self) -> "Trace":
        """Make the columns non-writeable in place; returns the trace."""
        for name in COLUMNS:
            getattr(self, name).flags.writeable = False
        return self

    def memo(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, run on the first call for ``key`` and kept here.

        For inputs derived from the columns and ``meta`` alone, which
        never change once the trace is handed out.  A ``build`` that
        raises stores nothing, so the next call raises again.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- aggregation ----------------------------------------------------------------------

    def max_page_id(self) -> int:
        """Largest page id present (-1 for an empty trace)."""
        return int(self.page.max()) if len(self) else -1

    # -- persistence --------------------------------------------------------------

    def meta_identity(self) -> Optional[dict]:
        """The workload identity of ``meta`` (name/scale/seed), if any."""
        identity = getattr(self.meta, "identity", None)
        if not callable(identity):
            return None
        try:
            return identity()
        except Exception:
            return None

    def save(self, path: Union[str, "os.PathLike"]) -> None:
        """Persist the trace as a compressed ``.npz`` archive.

        The workload spec's *identity* (name/scale/seed) travels with
        the archive, so :meth:`load` re-attaches a freshly built
        ``meta`` for named workloads; hand-built specs (no identity, or
        a name :func:`repro.workloads.build_spec` does not know) load
        with ``meta=None``.
        """
        arrays = {
            "time_ns": self.time_ns,
            "cpu": self.cpu,
            "process": self.process,
            "page": self.page,
            "weight": self.weight,
            "flags": self.flags,
        }
        identity = self.meta_identity()
        if identity is not None:
            arrays["meta_identity"] = np.array(
                json.dumps(identity, sort_keys=True)
            )
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike"]) -> "Trace":
        """Load a trace previously written by :meth:`save`.

        A persisted workload identity is rebuilt into a live ``meta``
        via :func:`repro.workloads.build_spec`; unknown or unreadable
        identities degrade to ``meta=None`` rather than failing.
        """
        with np.load(path) as data:
            trace = cls(
                data["time_ns"],
                data["cpu"],
                data["process"],
                data["page"],
                data["weight"],
                data["flags"],
            )
            if "meta_identity" in data.files:
                trace.meta = _rebuild_meta(str(data["meta_identity"][()]))
        return trace


#: (weak reference to the trace :meth:`Trace.user_only` last ran on, its
#: user stream).  The slot is swapped as one tuple, so a racing call at
#: worst derives a stream twice.
_user_slot: tuple = (None, None)


def _release_user_slot(ref: "weakref.ref") -> None:
    """Empty the slot once its trace is gone (a weakref callback)."""
    global _user_slot
    if _user_slot[0] is ref:
        _user_slot = (None, None)


class TraceBuilder:
    """Append-friendly trace construction."""

    def __init__(self, meta: Optional["WorkloadSpec"] = None) -> None:
        self._time: list = []
        self._cpu: list = []
        self._process: list = []
        self._page: list = []
        self._weight: list = []
        self._flags: list = []
        self.meta = meta

    def append(
        self,
        time_ns: int,
        cpu: int,
        process: int,
        page: int,
        weight: int = 1,
        is_write: bool = False,
        is_instr: bool = False,
        is_kernel: bool = False,
    ) -> None:
        """Add one record (records may be appended out of order)."""
        flags = (
            (FLAG_WRITE if is_write else 0)
            | (FLAG_INSTR if is_instr else 0)
            | (FLAG_KERNEL if is_kernel else 0)
        )
        self._time.append(time_ns)
        self._cpu.append(cpu)
        self._process.append(process)
        self._page.append(page)
        self._weight.append(weight)
        self._flags.append(flags)

    def __len__(self) -> int:
        return len(self._time)

    def build(self, sort: bool = True) -> Trace:
        """Produce the immutable trace, sorting by time by default."""
        time = np.asarray(self._time, dtype=np.int64)
        cpu = np.asarray(self._cpu, dtype=np.int16)
        process = np.asarray(self._process, dtype=np.int32)
        page = np.asarray(self._page, dtype=np.int64)
        weight = np.asarray(self._weight, dtype=np.int64)
        flags = np.asarray(self._flags, dtype=np.uint8)
        if sort and len(time):
            order = np.argsort(time, kind="stable")
            time, cpu, process = time[order], cpu[order], process[order]
            page, weight, flags = page[order], weight[order], flags[order]
        return Trace(time, cpu, process, page, weight, flags, meta=self.meta)


def _rebuild_meta(payload: str):
    """Rebuild a workload spec from a persisted identity JSON string.

    Returns ``None`` for anything unparseable or unknown — a loaded
    trace must never fail because its metadata aged out.
    """
    try:
        identity = json.loads(payload)
        name = identity["name"]
    except (ValueError, TypeError, KeyError):
        return None
    from repro.workloads import WORKLOAD_NAMES, build_spec

    if name not in WORKLOAD_NAMES:
        return None
    try:
        return build_spec(
            name,
            scale=float(identity.get("scale", 1.0)),
            seed=int(identity.get("seed", 0)),
        )
    except Exception:
        return None


def _merged_meta(traces: list):
    """The common ``meta`` of several traces, or ``None`` with a warning.

    Traces from the same workload (same object, or equal identities)
    keep their metadata; anything mixed drops it rather than silently
    stamping the merge with the first input's spec.
    """
    metas = [t.meta for t in traces]
    first = metas[0]
    if all(m is first for m in metas):
        return first
    identities = [t.meta_identity() for t in traces]
    if identities[0] is not None and all(
        ident == identities[0] for ident in identities
    ):
        return first
    warnings.warn(
        "merging traces with differing workload metadata; "
        "the merged trace carries meta=None",
        stacklevel=3,
    )
    return None


def merge_traces(traces: list) -> Trace:
    """Merge several traces into one time-sorted trace.

    The merged trace keeps its inputs' workload metadata only when they
    agree (same spec object or equal identities); mixed-workload merges
    carry ``meta=None`` and emit a warning.
    """
    traces = [t for t in traces if len(t)]
    if not traces:
        raise TraceError("nothing to merge")
    time = np.concatenate([t.time_ns for t in traces])
    order = np.argsort(time, kind="stable")
    meta = _merged_meta(traces)
    return Trace(
        time[order],
        np.concatenate([t.cpu for t in traces])[order],
        np.concatenate([t.process for t in traces])[order],
        np.concatenate([t.page for t in traces])[order],
        np.concatenate([t.weight for t in traces])[order],
        np.concatenate([t.flags for t in traces])[order],
        meta=meta,
    )
