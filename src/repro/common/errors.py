"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A machine, policy, or workload configuration is invalid."""


class AllocationError(ReproError):
    """A page frame could not be allocated.

    The pager treats this as the "no page" outcome in Table 4 of the
    paper: the hot page is recorded but no action is taken.
    """

    def __init__(self, node: int, message: str = "") -> None:
        self.node = node
        super().__init__(message or f"no free page frame on node {node}")


class VmError(ReproError):
    """An invariant of the simulated virtual-memory system was violated."""


class SchedulerError(ReproError):
    """A scheduling request could not be satisfied."""


class TraceError(ReproError):
    """A trace is malformed (unsorted timestamps, bad column, ...)."""


class TraceStoreError(TraceError):
    """A stored trace container is unusable.

    Raised by the :mod:`repro.store` container reader for bad magic,
    unsupported format versions, truncated payloads, and checksum
    failures.  The :class:`~repro.store.tracestore.TraceStore` catches
    it and degrades to a regenerate-and-rewrite miss; only direct
    container access (``repro trace verify``) surfaces it to callers.
    """


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent state."""


class ResultSchemaError(ReproError):
    """A serialized result does not match the schema this code expects.

    Raised when deserializing a result dict whose ``schema_version`` (or
    result kind) differs from the running code's — e.g. a stale experiment
    cache entry written by an older checkout.  Callers such as the
    :mod:`repro.exp` cache treat this as a miss and re-run.
    """


class ExperimentError(ReproError):
    """An experiment sweep could not be completed (worker failures)."""


class LockTimeout(ReproError):
    """A cross-process file lock could not be acquired in time.

    Raised by :class:`repro.common.locks.FileLock` when a holder keeps
    the lock past the caller's timeout — e.g. a
    :class:`~repro.obs.history.HistoryStore` write that waited its 30 s
    while another process held the database lock.
    """
