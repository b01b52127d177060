"""Trace persistence: text and binary on-disk formats.

Three formats are supported:

* **Text** (``.trace``): a human-inspectable header followed by one
  packed element per line.  Useful for small fixtures and debugging.
* **Binary** (``.btrace``): a small magic header followed by raw little-
  endian int64 data.  This is the format the workload suite caches.
  :func:`read_trace_binary` can return a **zero-copy** trace over a
  read-only ``np.memmap`` of the payload (``mmap=True``), so every
  sweep worker shares the OS page cache's one physical copy of each
  trace instead of holding a private heap copy.
* **Dense-code sidecar** (``.bcodes``): the persisted result of
  :meth:`BranchTrace.dense_codes`/``unique`` for a cached ``.btrace``,
  validated by a content hash of the trace payload, so workers load the
  dense remap (also mmap-able) instead of redoing the ``np.unique``
  pass per process.

All formats round-trip exactly; see ``docs/formats.md`` for the byte
layouts and validation rules.

Successful reads and writes tick the process-wide ``io.trace_reads`` /
``io.trace_writes`` / ``io.trace_bytes_*`` counters on
:data:`repro.obs.metrics.GLOBAL_METRICS`; sweeps fold these into the
run manifest (workers ship their own snapshots back to the parent).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO, Tuple, Union

import numpy as np

from repro.obs.metrics import GLOBAL_METRICS
from repro.profiles.trace import BranchTrace

TEXT_MAGIC = "# repro-branch-trace v1"
BINARY_MAGIC = b"RPTRACE1"
CODES_MAGIC = b"RPCODES1"
CODES_VERSION = 1

PathLike = Union[str, os.PathLike]


class TraceFormatError(ValueError):
    """Raised when an on-disk trace file is malformed."""


def write_trace_text(trace: BranchTrace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in the one-element-per-line text format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{TEXT_MAGIC}\n")
        handle.write(f"# name: {trace.name}\n")
        handle.write(f"# length: {len(trace)}\n")
        for chunk in trace.chunks(1 << 16) if len(trace) else []:
            handle.write("\n".join(map(str, chunk.tolist())))
            handle.write("\n")
    GLOBAL_METRICS.counter("io.trace_writes").inc()
    GLOBAL_METRICS.counter("io.trace_bytes_written").inc(path.stat().st_size)


def read_trace_text(path: PathLike) -> BranchTrace:
    """Read a text-format trace written by :func:`write_trace_text`.

    The body is parsed with a streamed :func:`np.fromiter` reader — one
    pass, no intermediate per-line array allocations — and tolerates a
    final element line without a trailing newline as well as trailing
    blank lines.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        if first != TEXT_MAGIC:
            raise TraceFormatError(f"{path}: bad magic line {first!r}")
        name = ""
        declared_length = None
        body_first: Optional[str] = None
        while True:
            line = handle.readline()
            if not line:
                break
            if not line.startswith("#"):
                body_first = line
                break
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:") :].strip()
            elif body.startswith("length:"):
                declared_length = int(body[len("length:") :].strip())
        data = np.fromiter(
            _iter_text_elements(body_first, handle, path), dtype=np.int64
        )
    if declared_length is not None and data.size != declared_length:
        raise TraceFormatError(
            f"{path}: declared length {declared_length} but found {data.size} elements"
        )
    GLOBAL_METRICS.counter("io.trace_reads").inc()
    GLOBAL_METRICS.counter("io.trace_bytes_read").inc(path.stat().st_size)
    return BranchTrace(data, name=name)


def _iter_text_elements(
    first_line: Optional[str], handle: TextIO, path: Path
) -> Iterator[int]:
    """Yield body elements from the first non-header line plus the rest.

    Blank lines (including trailing ones) are skipped; a non-integer
    token raises :class:`TraceFormatError`.
    """
    lines: Iterable[str] = handle if first_line is None else _chain_line(first_line, handle)
    for line in lines:
        for token in line.split():
            try:
                yield int(token)
            except ValueError:
                raise TraceFormatError(
                    f"{path}: invalid trace element {token!r}"
                ) from None


def _chain_line(first_line: str, handle: TextIO) -> Iterator[str]:
    yield first_line
    yield from handle


def write_trace_binary(trace: BranchTrace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in the compact binary format."""
    path = Path(path)
    name_bytes = trace.name.encode("utf-8")
    with path.open("wb") as handle:
        handle.write(BINARY_MAGIC)
        handle.write(len(name_bytes).to_bytes(4, "little"))
        handle.write(name_bytes)
        handle.write(len(trace).to_bytes(8, "little"))
        handle.write(np.ascontiguousarray(trace.array, dtype="<i8").tobytes())
    GLOBAL_METRICS.counter("io.trace_writes").inc()
    GLOBAL_METRICS.counter("io.trace_bytes_written").inc(path.stat().st_size)


def _read_binary_header(handle, path: Path, file_size: int) -> tuple:
    """Validate and read the binary header; return (name, length).

    Every declared size is checked against the bytes actually present so
    a corrupt header raises :class:`TraceFormatError` instead of driving
    a huge allocation (``MemoryError``) or a garbage payload.
    """
    magic = handle.read(len(BINARY_MAGIC))
    if magic != BINARY_MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r}")
    name_len_bytes = handle.read(4)
    if len(name_len_bytes) != 4:
        raise TraceFormatError(f"{path}: truncated header")
    name_len = int.from_bytes(name_len_bytes, "little")
    if name_len > file_size - handle.tell():
        raise TraceFormatError(
            f"{path}: declared name length {name_len} exceeds file size {file_size}"
        )
    try:
        name = handle.read(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: undecodable trace name: {exc}") from None
    length_bytes = handle.read(8)
    if len(length_bytes) != 8:
        raise TraceFormatError(f"{path}: truncated header")
    length = int.from_bytes(length_bytes, "little")
    remaining = file_size - handle.tell()
    if length * 8 > remaining:
        raise TraceFormatError(
            f"{path}: declared length {length} needs {length * 8} payload bytes "
            f"but only {remaining} remain"
        )
    return name, length


def read_trace_binary(path: PathLike, mmap: bool = False) -> BranchTrace:
    """Read a binary-format trace written by :func:`write_trace_binary`.

    With ``mmap=True`` the payload is not copied into the heap: the
    returned trace wraps a read-only ``np.memmap`` view of the file, so
    concurrent readers (e.g. every worker of a parallel sweep) share
    one physical copy through the OS page cache.  Header validation is
    identical in both modes; the mapped payload must not be rewritten
    while the trace is alive (the suite cache never rewrites an entry
    in place — stale entries get new fingerprinted names).
    """
    path = Path(path)
    file_size = path.stat().st_size
    with path.open("rb") as handle:
        name, length = _read_binary_header(handle, path, file_size)
        if mmap and length:
            offset = handle.tell()
            data = np.memmap(path, dtype="<i8", mode="r", offset=offset, shape=(length,))
        else:
            payload = handle.read(length * 8)
            if len(payload) != length * 8:
                raise TraceFormatError(f"{path}: truncated payload")
            data = np.frombuffer(payload, dtype="<i8").astype(np.int64)
    GLOBAL_METRICS.counter("io.trace_reads").inc()
    GLOBAL_METRICS.counter("io.trace_bytes_read").inc(file_size)
    return BranchTrace(data, name=name)


def write_trace(trace: BranchTrace, path: PathLike) -> None:
    """Write a trace, picking the format from the file extension.

    ``.btrace`` selects the binary format; anything else gets text.
    """
    if str(path).endswith(".btrace"):
        write_trace_binary(trace, path)
    else:
        write_trace_text(trace, path)


def read_trace(path: PathLike, mmap: bool = False) -> BranchTrace:
    """Read a trace, picking the format from the file extension.

    ``mmap`` applies to binary traces only (text traces are always
    parsed into the heap).
    """
    if str(path).endswith(".btrace"):
        return read_trace_binary(path, mmap=mmap)
    return read_trace_text(path)


def stream_trace(path: PathLike, chunk_size: int = 1 << 16) -> Iterator[np.ndarray]:
    """Stream a binary trace from disk in chunks without loading it whole.

    This models the online setting: the detector never needs the full
    profile in memory.  Yields int64 arrays of at most ``chunk_size``
    elements.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    path = Path(path)
    file_size = path.stat().st_size
    with path.open("rb") as handle:
        _, length = _read_binary_header(handle, path, file_size)
        remaining = length
        while remaining > 0:
            take = min(chunk_size, remaining)
            payload = handle.read(take * 8)
            if len(payload) != take * 8:
                raise TraceFormatError(f"{path}: truncated payload")
            remaining -= take
            yield np.frombuffer(payload, dtype="<i8").astype(np.int64)


# ---------------------------------------------------------------------------
# Dense-code sidecars (.bcodes)
# ---------------------------------------------------------------------------


def trace_content_hash(trace: BranchTrace) -> bytes:
    """SHA-256 of the trace's payload bytes (little-endian int64).

    This is exactly the byte sequence a ``.btrace`` file stores after
    its header, so the hash binds a sidecar to the trace *content*
    regardless of the trace's name or how it was loaded (heap or mmap).
    """
    data = np.ascontiguousarray(trace.array, dtype="<i8")
    return hashlib.sha256(data).digest()


def codes_path_for(trace_path: PathLike) -> Path:
    """The ``.bcodes`` sidecar path next to a ``.btrace`` file."""
    return Path(trace_path).with_suffix(".bcodes")


def write_codes_sidecar(trace: BranchTrace, path: PathLike) -> None:
    """Persist ``trace``'s dense remap as a ``.bcodes`` sidecar.

    Layout (all integers little-endian; see ``docs/formats.md``)::

        magic "RPCODES1" | version u32 | content hash (32 bytes sha256)
        | n_codes u64 | length u64
        | values  n_codes x i64 | counts n_codes x i64
        | codes   length  x i32

    The write is atomic (temp file + ``os.replace``), so concurrent
    readers only ever see a complete sidecar.
    """
    path = Path(path)
    values, counts = trace.unique()
    codes, _ = trace.dense_codes()
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with tmp.open("wb") as handle:
        handle.write(CODES_MAGIC)
        handle.write(CODES_VERSION.to_bytes(4, "little"))
        handle.write(trace_content_hash(trace))
        handle.write(int(values.size).to_bytes(8, "little"))
        handle.write(len(trace).to_bytes(8, "little"))
        handle.write(np.ascontiguousarray(values, dtype="<i8").tobytes())
        handle.write(np.ascontiguousarray(counts, dtype="<i8").tobytes())
        handle.write(np.ascontiguousarray(codes, dtype="<i4").tobytes())
    os.replace(tmp, path)
    GLOBAL_METRICS.counter("io.codes_writes").inc()
    GLOBAL_METRICS.counter("io.trace_bytes_written").inc(path.stat().st_size)


_CODES_HEADER_SIZE = len(CODES_MAGIC) + 4 + 32 + 8 + 8


def read_codes_sidecar(
    path: PathLike, trace: BranchTrace, mmap: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read and validate a ``.bcodes`` sidecar for ``trace``.

    Validation (each failure raises :class:`TraceFormatError`): magic,
    version, declared sizes against the bytes present, the recorded
    trace length against ``len(trace)``, and the recorded content hash
    against :func:`trace_content_hash` — a sidecar left behind by an
    older/different trace is therefore *stale*, never silently wrong.

    Returns ``(codes, values, counts)`` — memmap-backed read-only views
    with ``mmap=True``, heap arrays otherwise.  The caller adopts them
    via :meth:`BranchTrace.adopt_dense_codes`.
    """
    path = Path(path)
    file_size = path.stat().st_size
    with path.open("rb") as handle:
        magic = handle.read(len(CODES_MAGIC))
        if magic != CODES_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        header = handle.read(4 + 32 + 8 + 8)
        if len(header) != 4 + 32 + 8 + 8:
            raise TraceFormatError(f"{path}: truncated header")
        version = int.from_bytes(header[:4], "little")
        if version != CODES_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported sidecar version {version} "
                f"(this build reads version {CODES_VERSION})"
            )
        content_hash = header[4:36]
        n_codes = int.from_bytes(header[36:44], "little")
        length = int.from_bytes(header[44:52], "little")
        expected = _CODES_HEADER_SIZE + n_codes * 16 + length * 4
        if expected != file_size:
            raise TraceFormatError(
                f"{path}: declared {n_codes} codes over {length} elements "
                f"needs {expected} bytes but the file has {file_size}"
            )
        if length != len(trace):
            raise TraceFormatError(
                f"{path}: sidecar covers {length} elements but the trace "
                f"has {len(trace)}"
            )
        if content_hash != trace_content_hash(trace):
            raise TraceFormatError(f"{path}: content hash mismatch (stale sidecar)")
        values_offset = _CODES_HEADER_SIZE
        counts_offset = values_offset + n_codes * 8
        codes_offset = counts_offset + n_codes * 8
        if mmap and length:
            values = np.memmap(path, dtype="<i8", mode="r",
                               offset=values_offset, shape=(n_codes,))
            counts = np.memmap(path, dtype="<i8", mode="r",
                               offset=counts_offset, shape=(n_codes,))
            codes = np.memmap(path, dtype="<i4", mode="r",
                              offset=codes_offset, shape=(length,))
        else:
            payload = handle.read(expected - _CODES_HEADER_SIZE)
            values = np.frombuffer(
                payload, dtype="<i8", count=n_codes
            ).astype(np.int64)
            counts = np.frombuffer(
                payload, dtype="<i8", count=n_codes, offset=n_codes * 8
            ).astype(np.int64)
            codes = np.frombuffer(
                payload, dtype="<i4", count=length, offset=n_codes * 16
            ).astype(np.int32)
    GLOBAL_METRICS.counter("io.codes_reads").inc()
    GLOBAL_METRICS.counter("io.trace_bytes_read").inc(file_size)
    return codes, values, counts


def ensure_codes_sidecar(
    trace: BranchTrace, trace_path: PathLike, mmap: bool = False
) -> bool:
    """Attach ``trace_path``'s dense-code sidecar to ``trace``.

    Loads and adopts a valid sidecar; a missing, stale, corrupt, or
    unreadable one is regenerated transparently from the trace (written
    once, atomically) and the fresh remap adopted.  Returns True when
    the sidecar was loaded, False when it had to be (re)built.  An
    unwritable cache directory degrades gracefully: the remap is still
    computed and adopted, only the persistence is skipped.
    """
    codes_path = codes_path_for(trace_path)
    if codes_path.exists():
        try:
            codes, values, counts = read_codes_sidecar(codes_path, trace, mmap=mmap)
            trace.adopt_dense_codes(codes, values, counts)
            GLOBAL_METRICS.counter("io.codes_cache_hits").inc()
            return True
        except (TraceFormatError, OSError, ValueError):
            pass  # stale or torn: fall through and rebuild
    GLOBAL_METRICS.counter("io.codes_cache_misses").inc()
    try:
        write_codes_sidecar(trace, codes_path)
    except OSError:
        trace.dense_codes()  # compute in-memory; persistence unavailable
    return False
