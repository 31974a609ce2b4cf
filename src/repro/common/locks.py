"""Cross-process file locks for the shared on-disk artifact stores.

The content-addressed :class:`~repro.exp.cache.ResultCache` and
:class:`~repro.store.tracestore.TraceStore` are shared by sweep worker
processes, pytest sessions and concurrent ``repro sweep`` invocations.
Their writes were always atomic (temp file + ``os.replace``), which
prevents *torn* entries but not *stampedes*: N writers that miss the
same key all pay the serialization and I/O to produce identical bytes,
and N-1 of those writes are wasted.

:class:`FileLock` closes that gap with a single-writer discipline:

* the lock is a sibling ``<target>.lock`` file held via ``flock`` —
  advisory, kernel-released on process death, so a crashed holder never
  wedges the store (no stale-pid bookkeeping);
* acquisition is blocking by default, bounded by ``timeout`` seconds
  when given (``timeout=0`` means try-once), raising
  :class:`~repro.common.errors.LockTimeout` on expiry — e.g.
  :class:`~repro.obs.history.HistoryStore` bounds its writes at 30 s;
* lock files are left in place after release — unlinking a lock file
  that another process has already opened would silently split the lock
  into two.

Writers take the lock, re-check whether a usable entry already exists
(the keys are content-addressed, so an existing entry is equivalent by
construction), and only write when it does not: exactly one write wins,
the rest dedup.  On the rare platform without ``fcntl`` the lock
degrades to an exclusive-create spin lock (released by unlink), which
keeps the semantics at the cost of crash robustness.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Union

from repro.common.errors import ConfigurationError, LockTimeout

try:  # pragma: no cover - import succeeds everywhere we run CI
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None

#: Suffix appended to a protected target's path to name its lock file.
LOCK_SUFFIX = ".lock"

_UNSET = object()


class FileLock:
    """An advisory cross-process mutex backed by a lock file.

    One instance is one acquisition: instances are not re-entrant and
    not shared between threads (two threads wanting the same lock each
    build their own ``FileLock`` on the same path — ``flock`` is per
    file descriptor, so they exclude each other correctly).
    """

    def __init__(
        self,
        path: Union[str, Path],
        timeout: Optional[float] = None,
        poll_s: float = 0.02,
    ) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.poll_s = float(poll_s)
        self._fd: Optional[int] = None
        self._exclusive_file = False  # fcntl-less fallback owns the file

    @classmethod
    def for_path(
        cls, target: Union[str, Path], timeout: Optional[float] = None
    ) -> "FileLock":
        """The lock guarding writes to ``target`` (``<target>.lock``)."""
        return cls(str(target) + LOCK_SUFFIX, timeout=timeout)

    @property
    def held(self) -> bool:
        """Does this instance currently hold the lock?"""
        return self._fd is not None

    # -- acquisition ----------------------------------------------------------

    def acquire(self, timeout=_UNSET) -> "FileLock":
        """Take the lock, waiting at most ``timeout`` seconds.

        ``timeout=None`` blocks indefinitely; ``0`` tries exactly once.
        Raises :class:`LockTimeout` when the wait expires.
        """
        if self._fd is not None:
            raise ConfigurationError(f"lock {self.path} is already held")
        if timeout is _UNSET:
            timeout = self.timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._acquire_flock(timeout)
        else:  # pragma: no cover - exercised only without fcntl
            self._acquire_exclusive(timeout)
        return self

    def _acquire_flock(self, timeout: Optional[float]) -> None:
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            raise LockTimeout(
                                f"could not acquire {self.path} "
                                f"within {timeout}s"
                            ) from None
                        time.sleep(self.poll_s)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def _acquire_exclusive(
        self, timeout: Optional[float]
    ) -> None:  # pragma: no cover - fcntl-less platforms only
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                )
            except FileExistsError:
                if deadline is not None and time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"could not acquire {self.path} within {timeout}s"
                    ) from None
                time.sleep(self.poll_s)
                continue
            self._fd = fd
            self._exclusive_file = True
            return

    # -- release --------------------------------------------------------------

    def release(self) -> None:
        """Drop the lock (a no-op when not held)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if self._exclusive_file:  # pragma: no cover - fcntl-less platforms
            self._exclusive_file = False
            try:
                os.unlink(self.path)
            except OSError:
                pass
        os.close(fd)  # flock drops with the descriptor

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self.held else "free"
        return f"FileLock({str(self.path)!r}, {state})"
