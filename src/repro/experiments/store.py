"""Content-addressed sweep chunk store and SQLite result database.

This module is the persistence layer behind sharded, resumable sweeps
(``docs/sweep.md``).  Three pieces:

**Chunk store.**  A parallel sweep's unit of work is a *chunk*: one
benchmark plus a slice of grid points, evaluated at every MPL.  Each
chunk is identified by a content hash over (code-version salt, trace
content fingerprint, profile, spec-chunk identity, MPL set) — see
:func:`chunk_key` — and its completed records are written as one atomic
self-describing file under ``sweep-<profile>.chunks/`` (tmp file +
rename; a torn or truncated file reads as *missing*).  Because the key
is content-addressed and detector evaluation is deterministic, writes
are idempotent: two executors racing on the same chunk produce the same
body bytes, so the last rename wins harmlessly.  Workers write their
own chunk files, so there is no ordered-delivery barrier — record rows
never cross the pipe and nothing downstream depends on completion
order.

**Leases.**  Executors sharing a results directory (including separate
machines on a shared filesystem) divide work through lease files:
``claim`` creates ``<key>.lease`` with ``O_CREAT | O_EXCL`` — exactly
one creator wins — and a claim older than its TTL can be stolen, so a
dead executor never strands a chunk.  A stolen lease can transiently
give two executors the same chunk; that is safe (idempotent writes),
only mildly wasteful, and documented in ``docs/formats.md``.

**Compaction + SQLite.**  :func:`compact_chunks` folds completed chunks
into the existing append-only JSONL record cache *in plan order*
(benchmark-major, spec-order — the order a serial sweep appends in), so
the compacted cache is byte-identical to a serial run's.  It runs under
a ``compact`` lease so concurrent executors fold once, skips any chunk
whose cells are already cached (another executor got there first), and
finishes by syncing the cache into a :class:`ResultDB` — a SQLite
database (``sweep-<profile>.sqlite``) with ``runs``/``configs``/
``records`` tables indexed on benchmark/family/MPL/score that the
``repro results`` CLI queries instead of re-parsing JSONL.  The schema
is documented in ``docs/formats.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.experiments.config_space import ConfigSpec
from repro.experiments.runner import SweepRecord

PathLike = Union[str, os.PathLike]

__all__ = [
    "CHUNK_FORMAT",
    "CHUNK_VERSION",
    "CODE_VERSION",
    "DEFAULT_LEASE_TTL",
    "ChunkStore",
    "PlannedChunk",
    "ResultDB",
    "StoreError",
    "cache_line",
    "chunk_key",
    "compact_chunks",
    "plan_chunks",
    "spec_chunk_hash",
]

CHUNK_FORMAT = "repro-sweep-chunk"
CHUNK_VERSION = 1

#: Code-version salt baked into every chunk key.  Bump whenever a change
#: to the detector/scoring pipeline alters record *values*: chunks
#: written by older code then hash to different keys and are simply
#: never folded into a newer cache.
CODE_VERSION = "1"

#: Seconds after which another executor may steal an unreleased lease.
#: Far above any single chunk's evaluation time at quick/default scale;
#: paper-scale runs should raise it via ``lease_ttl``.
DEFAULT_LEASE_TTL = 120.0


class StoreError(RuntimeError):
    """A chunk the compactor needed is missing or unreadable."""


def cache_line(record: SweepRecord, fingerprint: str) -> str:
    """The canonical JSONL cache serialization of one record.

    This is the single definition of a cache row's bytes: the serial
    sweep's appends, the workers' chunk bodies and the compactor all go
    through it, which is what makes "compacted cache == serial cache"
    a byte-level identity rather than a semantic one.
    """
    row = record.to_row()
    row["fingerprint"] = fingerprint
    return json.dumps(row) + "\n"


def spec_chunk_hash(specs: Sequence[ConfigSpec]) -> str:
    """A stable hash of an ordered slice of grid points."""
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(repr(spec.key()).encode("utf-8"))
    return digest.hexdigest()[:16]


def chunk_key(
    profile_name: str,
    benchmark: str,
    fingerprint: str,
    specs: Sequence[ConfigSpec],
    mpl_nominals: Sequence[int],
) -> str:
    """The content address of one work item.

    Any input that could change the chunk's record bytes is hashed in:
    the code-version salt, the profile (scale + nominal mapping), the
    benchmark and its trace content fingerprint, the exact ordered spec
    slice, and the MPL set each spec is scored at.
    """
    digest = hashlib.sha256()
    for part in (
        CODE_VERSION,
        profile_name,
        benchmark,
        fingerprint,
        spec_chunk_hash(specs),
        repr(tuple(mpl_nominals)),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class PlannedChunk:
    """One planned work item: a key plus everything needed to (re)do it.

    ``index`` is the chunk's position in the deterministic plan order
    (benchmark-major, spec-order) — the order compaction folds in.
    Carrying ``mpl_nominals`` makes the chunk's expected record cells
    computable without its file (:func:`chunk_cells`), which is how a
    compactor recognizes a chunk another executor already folded and
    garbage-collected.
    """

    index: int
    benchmark: str
    fingerprint: str
    specs: Tuple[ConfigSpec, ...]
    key: str
    mpl_nominals: Tuple[int, ...] = ()


def plan_chunks(
    work: Sequence[Tuple[str, Sequence[ConfigSpec]]],
    fingerprints: Dict[str, str],
    profile_name: str,
    mpl_nominals: Sequence[int],
    chunker: Callable[[Sequence[ConfigSpec]], List[List[ConfigSpec]]],
) -> List[PlannedChunk]:
    """Split ``work`` into content-addressed chunks, in plan order.

    The plan is a pure function of (work, fingerprints, profile, MPLs,
    chunker): executors sharing a results directory compute identical
    plans — identical keys, identical fold order — as long as they
    chunk the same way (same ``--jobs``/``chunk_size``; see
    ``docs/sweep.md``).
    """
    planned: List[PlannedChunk] = []
    for benchmark, specs in work:
        fingerprint = fingerprints[benchmark]
        for piece in chunker(list(specs)):
            planned.append(
                PlannedChunk(
                    index=len(planned),
                    benchmark=benchmark,
                    fingerprint=fingerprint,
                    specs=tuple(piece),
                    key=chunk_key(
                        profile_name, benchmark, fingerprint, piece, mpl_nominals
                    ),
                    mpl_nominals=tuple(mpl_nominals),
                )
            )
    return planned


def _owner_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class ChunkStore:
    """Atomic, content-addressed chunk files plus lease files.

    Lives at ``<cache_dir>/sweep-<profile>.chunks/``; one ``<key>.chunk``
    per completed work item, one ``<key>.lease`` per claimed one, and
    ``_<name>.lease`` for named locks (compaction).  All mutation is
    tmp-file + ``os.replace`` or ``O_CREAT | O_EXCL``, so the store is
    safe for concurrent executors on a shared filesystem.
    """

    def __init__(self, cache_dir: PathLike, profile_name: str) -> None:
        self.cache_dir = Path(cache_dir)
        self.profile_name = profile_name
        self.root = self.cache_dir / f"sweep-{profile_name}.chunks"
        self.owner = _owner_id()

    # -- chunk files ----------------------------------------------------------

    def chunk_path(self, key: str) -> Path:
        return self.root / f"{key}.chunk"

    def lease_path(self, key: str) -> Path:
        return self.root / f"{key}.lease"

    def write(
        self,
        key: str,
        benchmark: str,
        fingerprint: str,
        configs: int,
        lines: Sequence[str],
        worker: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Atomically persist one completed chunk.

        Line 1 is a self-describing JSON header; every following line is
        exactly one cache row (the bytes :func:`cache_line` produced in
        the worker).  Only the body is canonical — the header's worker
        accounting may differ between two writers of the same key, which
        is fine because rename atomicity means readers always see one
        complete version and the bodies are identical.
        """
        header = {
            "format": CHUNK_FORMAT,
            "version": CHUNK_VERSION,
            "key": key,
            "profile": self.profile_name,
            "benchmark": benchmark,
            "fingerprint": fingerprint,
            "code_version": CODE_VERSION,
            "configs": configs,
            "rows": len(lines),
            "written_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "worker": worker or {},
        }
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.chunk_path(key)
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write("".join(lines))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        return final

    def read(self, key: str) -> Optional[Tuple[Dict, List[str]]]:
        """Load and validate a chunk; ``None`` if missing or torn.

        Validation: parseable header of the right format/version/key,
        and a body with exactly ``header["rows"]`` newline-terminated
        lines.  Anything less reads as "not done yet" — the executor
        will just claim and re-evaluate the chunk.
        """
        try:
            text = self.chunk_path(key).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None
        newline = text.find("\n")
        if newline < 0:
            return None
        try:
            header = json.loads(text[:newline])
        except json.JSONDecodeError:
            return None
        if (
            not isinstance(header, dict)
            or header.get("format") != CHUNK_FORMAT
            or int(header.get("version", 0)) > CHUNK_VERSION
            or header.get("key") != key
        ):
            return None
        body = text[newline + 1 :]
        if body and not body.endswith("\n"):
            return None
        lines = body.splitlines(keepends=True)
        if len(lines) != int(header.get("rows", -1)):
            return None
        return header, lines

    def has(self, key: str) -> bool:
        """True when a complete, valid chunk file exists for ``key``."""
        return self.read(key) is not None

    def keys(self) -> Set[str]:
        """Keys of every chunk file currently present (unvalidated)."""
        if not self.root.is_dir():
            return set()
        return {path.stem for path in self.root.glob("*.chunk")}

    def missing(self, planned: Iterable[PlannedChunk]) -> List[PlannedChunk]:
        """The planned chunks without a valid file — the resume set."""
        return [chunk for chunk in planned if not self.has(chunk.key)]

    # -- leases ---------------------------------------------------------------

    def claim(self, key: str, ttl: float = DEFAULT_LEASE_TTL) -> bool:
        """Try to claim ``key``; True if this executor now holds it.

        Exactly one concurrent caller wins the ``O_EXCL`` create.  An
        existing lease past its TTL is stolen with an atomic replace;
        two simultaneous stealers can both believe they won, which is
        accepted — chunk writes are idempotent, so the worst case is
        one chunk evaluated twice, never corrupted or lost.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        lease = self.lease_path(key)
        payload = json.dumps(
            {"owner": self.owner, "acquired": time.time(), "ttl": ttl}
        )
        try:
            fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self._steal(lease, payload)
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def _steal(self, lease: Path, payload: str) -> bool:
        try:
            current = json.loads(lease.read_text(encoding="utf-8"))
            expires = float(current["acquired"]) + float(current["ttl"])
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable lease (torn write, holder died mid-create):
            # treat as expired.
            expires = 0.0
        if time.time() < expires:
            return False
        tmp = lease.with_name(lease.name + f".{os.getpid()}.steal")
        try:
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, lease)
        except OSError:
            return False
        return True

    def release(self, key: str) -> None:
        """Drop a lease this executor holds (missing is fine)."""
        try:
            self.lease_path(key).unlink()
        except OSError:
            pass

    @contextmanager
    def lock(
        self,
        name: str = "compact",
        ttl: float = DEFAULT_LEASE_TTL,
        poll_seconds: float = 0.05,
    ):
        """A blocking named lock built on the same lease files.

        Spins (with ``poll_seconds`` sleeps) until the ``_<name>`` lease
        is acquired; the TTL bounds how long a crashed holder can block
        everyone else.
        """
        key = f"_{name}"
        while not self.claim(key, ttl=ttl):
            time.sleep(poll_seconds)
        try:
            yield
        finally:
            self.release(key)

    # -- garbage collection ---------------------------------------------------

    def gc(self, planned: Iterable[PlannedChunk]) -> int:
        """Delete the chunk + lease files of folded chunks; count removed."""
        removed = 0
        for chunk in planned:
            for path in (self.chunk_path(chunk.key), self.lease_path(chunk.key)):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        try:
            self.root.rmdir()  # only succeeds once the store is empty
        except OSError:
            pass
        return removed


# -- compaction ---------------------------------------------------------------

#: The fields that identify a cache row's cell.  A chunk whose every
#: cell is already cached (same trace fingerprint) was folded by another
#: executor and is skipped, which is what makes compaction idempotent
#: and concurrent-safe.
_CELL_FIELDS = (
    "benchmark",
    "fingerprint",
    "family",
    "cw_nominal",
    "model",
    "analyzer",
    "anchor",
    "resize",
    "mpl_nominal",
)


def _row_cell(row: Dict) -> Tuple:
    return tuple(row.get(field) for field in _CELL_FIELDS)


def chunk_folded(chunk: PlannedChunk, cache_path: PathLike) -> bool:
    """True when every cell ``chunk`` produces is already in the cache.

    How an executor awaiting another's chunk tells "folded and gc'd"
    (stop waiting) from "never written" (steal and redo) once both the
    chunk file and its lease are gone.
    """
    expected = chunk_cells(chunk)
    return bool(expected) and expected <= _cache_cells(Path(cache_path))


def chunk_cells(chunk: PlannedChunk) -> Set[Tuple]:
    """Every record cell ``chunk`` produces, computed without its file.

    ``ConfigSpec.key()`` is ``(family, cw_nominal, model, analyzer,
    anchor, resize)`` — exactly ``_CELL_FIELDS[2:8]`` — so a chunk's
    cells are fully determined by its plan entry.  Empty when the chunk
    was planned without ``mpl_nominals`` (pre-plan_chunks construction).
    """
    return {
        (chunk.benchmark, chunk.fingerprint) + spec.key() + (mpl,)
        for spec in chunk.specs
        for mpl in chunk.mpl_nominals
    }


def _cache_cells(cache_path: Path) -> Set[Tuple]:
    cells: Set[Tuple] = set()
    if not cache_path.exists():
        return cells
    with cache_path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail; same tolerance as Sweep._load_cache
            cells.add(_row_cell(row))
    return cells


def compact_chunks(
    store: ChunkStore,
    planned: Sequence[PlannedChunk],
    cache_path: PathLike,
    db: Optional["ResultDB"] = None,
    metrics=None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> Dict[str, int]:
    """Fold completed chunks into the JSONL cache (and SQLite), then gc.

    Deterministic: chunks append in plan order, each row with the exact
    bytes the worker serialized, so a cache grown by compaction is
    byte-identical to one grown by a serial sweep over the same missing
    set.  Safe to run from several executors: the whole fold runs under
    the store's ``compact`` lock, a fresh re-read of the cache skips
    chunks another compactor already folded, and chunk files are only
    deleted after their rows are durably appended.

    Every chunk in ``planned`` must either have a valid file (the
    executor waits for stragglers before compacting) or already be fully
    folded into the cache — the latter happens when a faster executor
    compacted and garbage-collected it between our await and our fold,
    and is recognized from the chunk's plan-derived cells alone.  A
    chunk that is both missing and unfolded raises :class:`StoreError`.
    Returns fold counters.
    """
    cache_path = Path(cache_path)
    started = time.perf_counter()
    folded = 0
    skipped = 0
    rows_appended = 0
    with store.lock("compact", ttl=lease_ttl):
        present = _cache_cells(cache_path)
        pieces: List[str] = []
        for chunk in planned:
            loaded = store.read(chunk.key)
            if loaded is None:
                expected = chunk_cells(chunk)
                if expected and expected <= present:
                    skipped += 1  # folded and gc'd by another compactor
                    continue
                raise StoreError(
                    f"chunk {chunk.key} ({chunk.benchmark}, "
                    f"{len(chunk.specs)} specs) missing at compaction"
                )
            _, lines = loaded
            # Skip a chunk only when *every* cell is already cached
            # (another compactor folded it; a partially-present chunk —
            # possible when a serial run cached some of its MPLs — still
            # folds, matching serial re-evaluation's last-wins appends).
            # The check parses lazily and short-circuits on the first
            # absent cell, so a fresh compaction parses one line per
            # chunk instead of all of them.  Planned chunks are mutually
            # cell-disjoint, so `present` needs no per-chunk update.
            if lines and present and all(
                _row_cell(json.loads(line)) in present for line in lines
            ):
                skipped += 1  # another executor already folded it
                continue
            pieces.extend(lines)
            folded += 1
            rows_appended += len(lines)
        if pieces:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            with cache_path.open("a", encoding="utf-8") as handle:
                handle.write("".join(pieces))
                handle.flush()
                os.fsync(handle.fileno())
        if db is not None:
            db.sync_from_cache(cache_path, store.profile_name)
        store.gc(planned)
    try:
        # gc's own rmdir ran while the compact lease still existed; now
        # that the lock is released an empty store can actually go away.
        os.rmdir(store.root)
    except OSError:
        pass
    elapsed = time.perf_counter() - started
    if metrics is not None:
        metrics.histogram("store.compact_seconds").observe(elapsed)
        metrics.counter("store.chunks_folded").inc(folded)
        metrics.counter("store.chunks_skipped").inc(skipped)
        metrics.counter("store.rows_compacted").inc(rows_appended)
    return {
        "folded": folded,
        "skipped": skipped,
        "rows_appended": rows_appended,
        "seconds": elapsed,
    }


# -- SQLite result store ------------------------------------------------------

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id                INTEGER PRIMARY KEY,
    created_at        TEXT NOT NULL,
    profile           TEXT NOT NULL,
    grid_fingerprint  TEXT NOT NULL,
    jobs              INTEGER NOT NULL,
    elapsed_seconds   REAL NOT NULL,
    records_evaluated INTEGER NOT NULL,
    records_total     INTEGER NOT NULL,
    hostname          TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS configs (
    id         INTEGER PRIMARY KEY,
    family     TEXT NOT NULL,
    cw_nominal INTEGER NOT NULL,
    model      TEXT NOT NULL,
    analyzer   TEXT NOT NULL,
    anchor     TEXT NOT NULL,
    resize     TEXT NOT NULL,
    UNIQUE (family, cw_nominal, model, analyzer, anchor, resize)
);
CREATE TABLE IF NOT EXISTS records (
    profile             TEXT NOT NULL,
    benchmark           TEXT NOT NULL,
    config_id           INTEGER NOT NULL REFERENCES configs(id),
    mpl_nominal         INTEGER NOT NULL,
    fingerprint         TEXT NOT NULL,
    score               REAL NOT NULL,
    correlation         REAL NOT NULL,
    sensitivity         REAL NOT NULL,
    false_positives     REAL NOT NULL,
    corrected_score     REAL NOT NULL,
    num_detected_phases INTEGER NOT NULL,
    num_baseline_phases INTEGER NOT NULL,
    seq                 INTEGER NOT NULL,
    PRIMARY KEY (profile, benchmark, config_id, mpl_nominal)
);
CREATE INDEX IF NOT EXISTS records_by_benchmark
    ON records (profile, benchmark, mpl_nominal);
CREATE INDEX IF NOT EXISTS records_by_mpl
    ON records (profile, mpl_nominal);
CREATE INDEX IF NOT EXISTS records_by_score
    ON records (profile, score DESC);
CREATE INDEX IF NOT EXISTS configs_by_family
    ON configs (family, cw_nominal);
CREATE VIEW IF NOT EXISTS record_view AS
    SELECT r.profile, r.benchmark, c.family, c.cw_nominal, c.model,
           c.analyzer, c.anchor, c.resize, r.mpl_nominal, r.fingerprint,
           r.score, r.correlation, r.sensitivity, r.false_positives,
           r.corrected_score, r.num_detected_phases, r.num_baseline_phases,
           r.seq
    FROM records r JOIN configs c ON c.id = r.config_id;
"""

#: Columns ``best_scores`` may group or filter by (everything that names
#: a grid axis).  Whitelisted so user-supplied dimension names are never
#: spliced into SQL unchecked.
QUERY_DIMENSIONS = (
    "benchmark",
    "family",
    "cw_nominal",
    "model",
    "analyzer",
    "anchor",
    "resize",
    "mpl_nominal",
)

#: Metrics ``best_scores`` may maximize.
QUERY_METRICS = (
    "score",
    "corrected_score",
    "correlation",
    "sensitivity",
    "false_positives",
)

_RECORD_FIELDS = (
    "benchmark",
    "family",
    "cw_nominal",
    "model",
    "analyzer",
    "anchor",
    "resize",
    "mpl_nominal",
    "score",
    "correlation",
    "sensitivity",
    "false_positives",
    "corrected_score",
    "num_detected_phases",
    "num_baseline_phases",
)


class ResultDB:
    """The queryable sweep result store (stdlib ``sqlite3``).

    Strictly derived data: the JSONL cache stays the source of truth and
    :meth:`sync_from_cache` can rebuild the database from it at any time
    (``repro results ingest --rebuild``).  Sync is incremental — a meta
    row remembers the cache byte offset already ingested, so warm syncs
    parse only the appended tail — and upserts keyed on
    (profile, benchmark, config, MPL) reproduce the cache's
    last-row-wins semantics, with a ``seq`` column preserving append
    order so :meth:`load_records` returns records in cache order.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute("PRAGMA busy_timeout = 30000")
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
        self._config_ids: Dict[Tuple, int] = {}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- meta -----------------------------------------------------------------

    def _meta(self, key: str, default: str = "") -> str:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row is not None else default

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
        )

    # -- ingest ---------------------------------------------------------------

    def _config_id(self, row: Dict) -> int:
        identity = (
            row["family"],
            row["cw_nominal"],
            row["model"],
            row["analyzer"],
            row["anchor"],
            row["resize"],
        )
        cached = self._config_ids.get(identity)
        if cached is not None:
            return cached
        self._conn.execute(
            "INSERT OR IGNORE INTO configs "
            "(family, cw_nominal, model, analyzer, anchor, resize) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            identity,
        )
        config_id = self._conn.execute(
            "SELECT id FROM configs WHERE family = ? AND cw_nominal = ? "
            "AND model = ? AND analyzer = ? AND anchor = ? AND resize = ?",
            identity,
        ).fetchone()[0]
        self._config_ids[identity] = config_id
        return config_id

    def sync_from_cache(
        self, cache_path: PathLike, profile: str, full: bool = False
    ) -> int:
        """Ingest cache rows appended since the last sync; count them.

        ``full=True`` drops the profile's rows and re-reads the whole
        file.  A cache smaller than the remembered offset means the file
        was rebuilt, which also triggers a full re-read.  An
        unterminated final line (a torn append in progress) is left for
        the next sync.
        """
        cache_path = Path(cache_path)
        offset_key = f"ingest-offset:{profile}"
        seq_key = f"ingest-seq:{profile}"
        offset = 0 if full else int(self._meta(offset_key, "0"))
        seq = 0 if full else int(self._meta(seq_key, "0"))
        try:
            size = cache_path.stat().st_size
        except OSError:
            size = 0
        if full or offset > size:
            offset, seq = 0, 0
            self._conn.execute("DELETE FROM records WHERE profile = ?", (profile,))
        ingested = 0
        batch: List[Tuple] = []
        if size > offset:
            with cache_path.open("rb") as handle:
                handle.seek(offset)
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break
                    offset += len(raw)
                    stripped = raw.strip()
                    if not stripped:
                        continue
                    try:
                        row = json.loads(stripped.decode("utf-8"))
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        continue  # torn line; skipped like Sweep._load_cache
                    batch.append(self._record_tuple(profile, row, seq))
                    seq += 1
                    ingested += 1
        if batch:
            # One executemany instead of per-row execute: same
            # INSERT OR REPLACE semantics (later tuples in the batch
            # still overwrite earlier ones on PK collision, preserving
            # cache last-row-wins), several times faster per row.
            self._conn.executemany(
                "INSERT OR REPLACE INTO records "
                "(profile, benchmark, config_id, mpl_nominal, fingerprint, "
                " score, correlation, sensitivity, false_positives, "
                " corrected_score, num_detected_phases, num_baseline_phases, "
                " seq) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                batch,
            )
        self._set_meta(offset_key, str(offset))
        self._set_meta(seq_key, str(seq))
        self._conn.commit()
        return ingested

    def _record_tuple(self, profile: str, row: Dict, seq: int) -> Tuple:
        """One ``records`` parameter tuple (resolves the config id)."""
        return (
            profile,
            row["benchmark"],
            self._config_id(row),
            row["mpl_nominal"],
            row.get("fingerprint", ""),
            row["score"],
            row["correlation"],
            row["sensitivity"],
            row["false_positives"],
            row["corrected_score"],
            row["num_detected_phases"],
            row["num_baseline_phases"],
            seq,
        )

    def record_run(
        self,
        profile: str,
        grid_fingerprint: str,
        jobs: int,
        elapsed_seconds: float,
        records_evaluated: int,
        records_total: int,
    ) -> None:
        """Append one row to ``runs`` (called per evaluating sweep)."""
        with self._conn:
            self._conn.execute(
                "INSERT INTO runs (created_at, profile, grid_fingerprint, jobs,"
                " elapsed_seconds, records_evaluated, records_total, hostname) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    profile,
                    grid_fingerprint,
                    jobs,
                    round(elapsed_seconds, 6),
                    records_evaluated,
                    records_total,
                    socket.gethostname(),
                ),
            )

    # -- queries --------------------------------------------------------------

    def load_records(self, profile: str) -> List[SweepRecord]:
        """Every record for ``profile``, in cache append order."""
        cursor = self._conn.execute(
            f"SELECT {', '.join(_RECORD_FIELDS)} FROM record_view "
            "WHERE profile = ? ORDER BY seq",
            (profile,),
        )
        return [
            SweepRecord.from_row(dict(zip(_RECORD_FIELDS, values)))
            for values in cursor
        ]

    def best_scores(
        self,
        profile: str,
        by: Sequence[str] = ("family",),
        metric: str = "score",
        where: Optional[Dict[str, object]] = None,
        limit: Optional[int] = None,
    ) -> Tuple[List[str], List[Tuple]]:
        """Best ``metric`` per combination of the ``by`` dimensions.

        Returns ``(column names, rows)``; the last two columns are the
        best metric value and the number of records aggregated.  Both
        ``by`` and ``where`` keys are validated against
        :data:`QUERY_DIMENSIONS` (and ``metric`` against
        :data:`QUERY_METRICS`) before touching SQL.
        """
        dims = list(by)
        for dim in dims:
            if dim not in QUERY_DIMENSIONS:
                raise ValueError(
                    f"unknown dimension {dim!r} (choose from "
                    f"{', '.join(QUERY_DIMENSIONS)})"
                )
        if metric not in QUERY_METRICS:
            raise ValueError(
                f"unknown metric {metric!r} (choose from {', '.join(QUERY_METRICS)})"
            )
        clauses = ["profile = ?"]
        params: List[object] = [profile]
        for column, value in (where or {}).items():
            if column not in QUERY_DIMENSIONS:
                raise ValueError(f"unknown filter column {column!r}")
            clauses.append(f"{column} = ?")
            params.append(value)
        select = ", ".join(dims + [f"MAX({metric})", "COUNT(*)"])
        sql = (
            f"SELECT {select} FROM record_view WHERE {' AND '.join(clauses)} "
            f"GROUP BY {', '.join(dims)} ORDER BY {', '.join(dims)}"
        )
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = self._conn.execute(sql, params).fetchall()
        return dims + [f"best_{metric}", "records"], rows

    def benchmarks(self, profile: str) -> List[str]:
        """Distinct benchmark names stored for ``profile``."""
        cursor = self._conn.execute(
            "SELECT DISTINCT benchmark FROM records WHERE profile = ? "
            "ORDER BY benchmark",
            (profile,),
        )
        return [row[0] for row in cursor]

    def runs(self) -> List[Dict]:
        """The ``runs`` table, oldest first."""
        cursor = self._conn.execute(
            "SELECT id, created_at, profile, grid_fingerprint, jobs, "
            "elapsed_seconds, records_evaluated, records_total, hostname "
            "FROM runs ORDER BY id"
        )
        names = [desc[0] for desc in cursor.description]
        return [dict(zip(names, row)) for row in cursor]


def open_readonly(path: PathLike) -> sqlite3.Connection:
    """A read-only connection for ad-hoc SQL (``repro results sql``)."""
    return sqlite3.connect(f"file:{Path(path)}?mode=ro", uri=True)
