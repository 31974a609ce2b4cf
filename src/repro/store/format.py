"""The versioned on-disk trace container format.

A container holds one :class:`~repro.trace.record.Trace` as a short
binary header followed by time-ordered, independently compressed chunk
segments, so a reader can either materialize the whole trace or stream
it chunk by chunk with bounded peak memory:

``
+----------------+----------------------+---------------------------+
| magic (8 B)    | header length (u32)  | header JSON (utf-8)       |
+----------------+----------------------+---------------------------+
| chunk 0 (zlib) | chunk 1 (zlib) | ... | chunk K-1 (zlib)          |
+----------------+----------------------+---------------------------+
``

The header records the format version, the workload identity the trace
was generated from (``{name, scale, seed}`` for a named workload), the
column dtypes in storage order, and one entry per chunk: byte offset
into the payload, compressed and raw sizes, record count, covered time
span, total miss weight, and a SHA-256 checksum of the compressed
bytes.  Each chunk decompresses to the six column arrays concatenated
in header order with explicit little-endian dtypes, so containers are
portable across machines.

Every malformed-container condition raises
:class:`~repro.common.errors.TraceStoreError`; the
:class:`~repro.store.tracestore.TraceStore` above this layer turns
those into regenerate-and-rewrite misses, never crashes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.common.errors import TraceStoreError
from repro.trace.record import FLAG_KERNEL, Trace

#: First bytes of every container; the trailing digit is the major
#: format generation (bumped only on incompatible layout changes).
MAGIC = b"RPROTRC1"

#: Header schema version.  Readers reject containers whose version they
#: do not understand; the store treats that as a stale miss.
FORMAT_VERSION = 1

#: Storage order and explicit little-endian dtypes of the trace columns.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("time_ns", "<i8"),
    ("cpu", "<i2"),
    ("process", "<i4"),
    ("page", "<i8"),
    ("weight", "<i8"),
    ("flags", "|u1"),
)

#: Records per chunk.  At the paper's full-scale trace lengths this
#: yields a handful of multi-megabyte-raw chunks — small enough that a
#: streaming reader's peak memory is a fraction of the whole trace,
#: large enough that zlib and checksum overheads stay negligible.
DEFAULT_CHUNK_RECORDS = 65_536

_LEN_STRUCT = struct.Struct("<I")

#: Compression level: 6 is zlib's default speed/size balance.
_COMPRESSION_LEVEL = 6


def _chunk_payload(trace: Trace, start: int, stop: int) -> bytes:
    """Raw (uncompressed) bytes of one chunk: columns back to back."""
    parts = []
    for name, dtype in COLUMNS:
        column = getattr(trace, name)[start:stop]
        parts.append(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return b"".join(parts)


def _pack(raw: bytes) -> Tuple[int, bytes, str]:
    """``(raw_nbytes, blob, sha256)``: one chunk's compressed bytes."""
    blob = zlib.compress(raw, _COMPRESSION_LEVEL)
    return len(raw), blob, hashlib.sha256(blob).hexdigest()


def _pack_chunks(
    trace: Trace, spans: List[Tuple[int, int]]
) -> List[Tuple[int, bytes, str]]:
    """:func:`_pack` per ``(start, stop)`` chunk span, in order.

    ``zlib`` and ``hashlib`` release the GIL, so a worker thread packs
    the odd chunks while the calling thread packs the even ones: at
    most two raw payloads are in flight.  The executor starts its
    thread on the first ``submit``, so a trace of one chunk or none
    starts no thread.  The bytes do not depend on the thread count.
    """
    packed = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        for even in range(0, len(spans), 2):
            odd = None
            if even + 1 < len(spans):
                odd = worker.submit(
                    _pack, _chunk_payload(trace, *spans[even + 1])
                )
            packed.append(_pack(_chunk_payload(trace, *spans[even])))
            if odd is not None:
                packed.append(odd.result())
    return packed


def write_container(
    path: Union[str, "os.PathLike"],
    trace: Trace,
    identity: Optional[Dict[str, object]] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> int:
    """Atomically write ``trace`` to ``path``; returns bytes written.

    ``identity`` is the workload identity to stamp into the header
    (``WorkloadSpec.identity()`` for a named workload); it is what lets
    a loaded trace re-attach its metadata.  The write goes through a
    temp file and ``os.replace`` so a crash never leaves a torn
    container behind.
    """
    if chunk_records <= 0:
        raise TraceStoreError("chunk_records must be positive")
    path = Path(path)
    n = len(trace)
    spans = [
        (start, min(start + chunk_records, n))
        for start in range(0, n, chunk_records)
    ]
    chunks: List[Dict[str, object]] = []
    blobs: List[bytes] = []
    offset = 0
    for (start, stop), (raw_nbytes, blob, digest) in zip(
        spans, _pack_chunks(trace, spans)
    ):
        chunks.append(
            {
                "offset": offset,
                "nbytes": len(blob),
                "raw_nbytes": raw_nbytes,
                "n_records": stop - start,
                "t0": int(trace.time_ns[start]),
                "t1": int(trace.time_ns[stop - 1]),
                "total_weight": int(trace.weight[start:stop].sum()),
                "sha256": digest,
            }
        )
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "identity": identity,
        "columns": [list(col) for col in COLUMNS],
        "n_records": n,
        "total_weight": int(trace.weight.sum()) if n else 0,
        "chunks": chunks,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".rptc"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(_LEN_STRUCT.pack(len(header_bytes)))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(MAGIC) + _LEN_STRUCT.size + len(header_bytes) + offset


class ContainerReader:
    """Random- and streaming-access reader over one container file.

    The constructor reads and validates only the header; chunk payloads
    are read, checksummed and decompressed on demand, so
    :meth:`iter_chunks` holds at most one decoded chunk at a time.
    """

    def __init__(self, path: Union[str, "os.PathLike"]) -> None:
        self.path = Path(path)
        try:
            self._fh: BinaryIO = open(self.path, "rb")
        except OSError as exc:
            raise TraceStoreError(f"cannot open container: {exc}") from exc
        try:
            self.header = self._read_header()
        except BaseException:
            self._fh.close()
            raise
        self._payload_start = (
            len(MAGIC) + _LEN_STRUCT.size + self._header_nbytes
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the underlying file handle."""
        self._fh.close()

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- header ----------------------------------------------------------------

    def _read_header(self) -> Dict:
        magic = self._fh.read(len(MAGIC))
        if magic != MAGIC:
            raise TraceStoreError(
                f"{self.path}: not a trace container (bad magic)"
            )
        raw_len = self._fh.read(_LEN_STRUCT.size)
        if len(raw_len) != _LEN_STRUCT.size:
            raise TraceStoreError(f"{self.path}: truncated header length")
        (header_len,) = _LEN_STRUCT.unpack(raw_len)
        header_bytes = self._fh.read(header_len)
        if len(header_bytes) != header_len:
            raise TraceStoreError(f"{self.path}: truncated header")
        self._header_nbytes = header_len
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise TraceStoreError(
                f"{self.path}: unreadable header: {exc}"
            ) from exc
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise TraceStoreError(
                f"{self.path}: format_version {version!r} is not the "
                f"supported version {FORMAT_VERSION}"
            )
        columns = [tuple(col) for col in header.get("columns", [])]
        if columns != list(COLUMNS):
            raise TraceStoreError(f"{self.path}: unexpected column layout")
        if not isinstance(header.get("chunks"), list):
            raise TraceStoreError(f"{self.path}: missing chunk index")
        return header

    @property
    def identity(self) -> Optional[Dict[str, object]]:
        """The workload identity the container was recorded from."""
        return self.header.get("identity")

    @property
    def n_records(self) -> int:
        """Total records across all chunks."""
        return int(self.header["n_records"])

    @property
    def total_weight(self) -> int:
        """Total represented misses (sum of record weights)."""
        return int(self.header.get("total_weight", 0))

    @property
    def chunks(self) -> List[Dict]:
        """The per-chunk index entries, in time order."""
        return self.header["chunks"]

    # -- chunk access ----------------------------------------------------------

    def _read_chunk_raw(self, entry: Dict, verify: bool = True) -> bytes:
        self._fh.seek(self._payload_start + int(entry["offset"]))
        blob = self._fh.read(int(entry["nbytes"]))
        if len(blob) != int(entry["nbytes"]):
            raise TraceStoreError(f"{self.path}: truncated chunk payload")
        if verify:
            digest = hashlib.sha256(blob).hexdigest()
            if digest != entry["sha256"]:
                raise TraceStoreError(
                    f"{self.path}: chunk checksum mismatch"
                )
        try:
            raw = zlib.decompress(blob)
        except zlib.error as exc:
            raise TraceStoreError(
                f"{self.path}: chunk decompression failed: {exc}"
            ) from exc
        if len(raw) != int(entry["raw_nbytes"]):
            raise TraceStoreError(f"{self.path}: chunk raw size mismatch")
        return raw

    def _decode_chunk(self, entry: Dict, verify: bool = True) -> Trace:
        raw = self._read_chunk_raw(entry, verify=verify)
        n = int(entry["n_records"])
        arrays = {}
        offset = 0
        for name, dtype in COLUMNS:
            dt = np.dtype(dtype)
            nbytes = n * dt.itemsize
            if offset + nbytes > len(raw):
                raise TraceStoreError(
                    f"{self.path}: chunk shorter than its record count"
                )
            # .copy() detaches from the decompression buffer and makes
            # the columns writable, matching freshly generated traces.
            arrays[name] = np.frombuffer(
                raw, dtype=dt, count=n, offset=offset
            ).copy()
            offset += nbytes
        if offset != len(raw):
            raise TraceStoreError(f"{self.path}: trailing bytes in chunk")
        return Trace(validate=False, **arrays)

    def iter_chunks(
        self,
        window: Optional[Tuple[Optional[int], Optional[int]]] = None,
        kernel_only: bool = False,
        meta=None,
    ) -> Iterator[Trace]:
        """Yield the container's chunks as time-ordered sub-traces.

        ``window=(t0, t1)`` restricts the stream to records with
        ``t0 <= time_ns < t1`` (either bound may be ``None``); chunks
        entirely outside the window are skipped without being read or
        decompressed.  ``kernel_only=True`` keeps only kernel-mode
        records.  Only one decoded chunk is live at a time, so peak
        memory is bounded by the chunk size, not the trace size.
        """
        lo, hi = window if window is not None else (None, None)
        for entry in self.chunks:
            if lo is not None and int(entry["t1"]) < lo:
                continue
            if hi is not None and int(entry["t0"]) >= hi:
                continue
            chunk = self._decode_chunk(entry)
            mask = None
            if lo is not None or hi is not None:
                mask = np.ones(len(chunk), dtype=bool)
                if lo is not None:
                    mask &= chunk.time_ns >= lo
                if hi is not None:
                    mask &= chunk.time_ns < hi
            if kernel_only:
                kernel = (chunk.flags & FLAG_KERNEL) != 0
                mask = kernel if mask is None else (mask & kernel)
            if mask is not None:
                chunk = chunk.select(mask)
            chunk.meta = meta
            if len(chunk):
                yield chunk

    def read_trace(self, meta=None) -> Trace:
        """Materialize the whole container as one trace."""
        pieces = [
            self._decode_chunk(entry)
            for entry in self.chunks
            if int(entry["n_records"])
        ]
        if not pieces:
            trace = Trace(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int16),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint8),
                validate=False,
            )
        else:
            trace = Trace(
                np.concatenate([p.time_ns for p in pieces]),
                np.concatenate([p.cpu for p in pieces]),
                np.concatenate([p.process for p in pieces]),
                np.concatenate([p.page for p in pieces]),
                np.concatenate([p.weight for p in pieces]),
                np.concatenate([p.flags for p in pieces]),
                validate=False,
            )
        if len(trace) != self.n_records:
            raise TraceStoreError(
                f"{self.path}: header names {self.n_records} records, "
                f"decoded {len(trace)}"
            )
        trace.meta = meta
        return trace

    # -- verification ----------------------------------------------------------

    def verify(self) -> Dict[str, int]:
        """Checksum and re-validate every chunk; returns a summary.

        Raises :class:`~repro.common.errors.TraceStoreError` on the
        first corrupt, truncated, or inconsistent chunk.  On success
        the summary carries chunk/record/weight totals, which ``repro
        trace verify`` prints.
        """
        n_records = 0
        total_weight = 0
        previous_t1: Optional[int] = None
        for entry in self.chunks:
            chunk = self._decode_chunk(entry, verify=True)
            if len(chunk) != int(entry["n_records"]):
                raise TraceStoreError(
                    f"{self.path}: chunk record count mismatch"
                )
            if len(chunk):
                chunk._validate()
                if int(chunk.time_ns[0]) != int(entry["t0"]) or int(
                    chunk.time_ns[-1]
                ) != int(entry["t1"]):
                    raise TraceStoreError(
                        f"{self.path}: chunk time span mismatch"
                    )
                if previous_t1 is not None and int(chunk.time_ns[0]) < previous_t1:
                    raise TraceStoreError(
                        f"{self.path}: chunks out of time order"
                    )
                previous_t1 = int(chunk.time_ns[-1])
            if int(chunk.weight.sum() if len(chunk) else 0) != int(
                entry["total_weight"]
            ):
                raise TraceStoreError(
                    f"{self.path}: chunk weight total mismatch"
                )
            n_records += len(chunk)
            total_weight += int(chunk.weight.sum()) if len(chunk) else 0
        if n_records != self.n_records:
            raise TraceStoreError(
                f"{self.path}: header names {self.n_records} records, "
                f"chunks hold {n_records}"
            )
        if total_weight != self.total_weight:
            raise TraceStoreError(f"{self.path}: total weight mismatch")
        return {
            "chunks": len(self.chunks),
            "records": n_records,
            "total_weight": total_weight,
        }


def read_container(
    path: Union[str, "os.PathLike"], meta=None
) -> Trace:
    """Convenience wrapper: materialize the trace stored at ``path``."""
    with ContainerReader(path) as reader:
        return reader.read_trace(meta=meta)
