"""Multiprocess sweep execution.

The paper's evaluation is >10,000 detector instantiations (Section 4);
each (benchmark, grid point) cell is independent, so the sweep is
embarrassingly parallel.  This module fans (benchmark, spec-chunk) work
items out over a :class:`~concurrent.futures.ProcessPoolExecutor` while
preserving the serial sweep's observable behavior exactly:

* **Workers load traces from the on-disk cache, not the pipe.**  The
  parent materializes every trace before the pool starts (a cache
  miss runs the workload once); workers then call
  ``load_traces`` themselves, mapping each cached trace and its
  dense-code sidecar read-only so all workers share one physical copy
  through the OS page cache; the only things pickled across the pipe
  are small ``ConfigSpec`` values outbound and accounting inbound.
* **Per-worker memoization.**  Each worker process keeps one
  ``(branch trace, BaselineSet)`` pair per benchmark it has seen, so the
  expensive oracle solve is paid at most ``jobs`` times per benchmark,
  and chunking keeps that amortized over many grid points.
* **Single-pass banks.**  A work item is a trace name plus a slice of
  grid points; the worker evaluates the slice as one
  :class:`~repro.core.bank.DetectorBank` pass over the trace (see
  :func:`repro.experiments.runner.evaluate_bank`), decoding and
  chunking the trace once per batch instead of once per grid point.
* **Barrier-free delivery through the chunk store.**
  :meth:`ParallelSweepExecutor.run_store` has workers write each
  completed chunk as an atomic content-addressed file in the chunk
  store (:mod:`repro.experiments.store`) the moment it finishes —
  record rows never cross the pipe, completion order does not matter,
  and a deterministic compaction step folds the chunks into the JSONL
  cache in plan order afterwards (byte-identical to a serial run).
  Chunks already in the store are *reused* (that is the resume path:
  an interrupted run costs only its missing chunk set), and chunks
  leased by another executor sharing the results directory are
  skipped and awaited.
* **Progress/ETA.**  With ``progress=True`` a per-benchmark line
  (configs evaluated, wall time, configs/s) plus a running ETA for the
  whole sweep is logged at INFO on the ``repro.sweep`` logger (the CLI
  routes it to stderr; see :mod:`repro.obs.logsetup`).  The ETA weights
  remaining configs by their benchmark's trace length, so skewed grids
  (one 10x-longer trace still pending) do not produce the wild
  misestimates a flat configs/s extrapolation gives.
* **Per-worker accounting.**  Every chunk result carries its worker's
  pid, wall time and record count, plus a cumulative snapshot of the
  worker's process-local metrics registry (trace reads, cache hits).
  After :meth:`ParallelSweepExecutor.run_store` the aggregation is available
  as :attr:`worker_stats`/:attr:`worker_metrics` — the sum of
  per-worker record counts equals the records delivered, which is the
  invariant the run manifest records and ``repro obs summary`` checks.
* **Opt-in chunk profiling.**  With ``profiling=True`` each chunk is
  wrapped in a :class:`~repro.obs.profiling.ChunkProfiler` (wall time +
  ``tracemalloc`` peak); profiles come back in :attr:`chunk_profiles`.

Worker count resolution order: explicit ``jobs`` argument, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.

The on-disk formats this executor relies on are specified in
``docs/formats.md``; the sweep lifecycle in ``docs/sweep.md``; the
metrics and manifest schema in ``docs/observability.md``.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config_space import ConfigSpec, SuiteProfile
from repro.experiments.runner import BaselineSet, evaluate_bank
from repro.obs.metrics import GLOBAL_METRICS
from repro.obs.profiling import ChunkProfiler

logger = logging.getLogger("repro.sweep")

#: The *floor* on grid points per work item.  Large enough to amortize
#: pipe and memoization overhead; the auto size grows past it on huge
#: grids (see :meth:`ParallelSweepExecutor._chunk_specs`).
DEFAULT_CHUNK_SIZE = 8

#: Auto chunk sizing targets about this many work items per worker per
#: benchmark: enough slack for load balancing, few enough chunks that
#: per-item overhead stays amortized on paper-scale grids.
TARGET_CHUNKS_PER_WORKER = 4


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument, then ``REPRO_JOBS``, then cores.

    Raises :class:`ValueError` for a non-positive or unparseable count.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


# -- worker side --------------------------------------------------------------
#
# Module-level so it pickles under both fork and spawn start methods.
# _init_worker runs once per worker process; _WORKER_STATE is therefore
# per-process, never shared.

_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    profile: SuiteProfile,
    cache_dir: Optional[str],
    mpl_nominals: Tuple[int, ...],
    profiling: bool = False,
    kernels: bool = True,
) -> None:
    _WORKER_STATE["profile"] = profile
    _WORKER_STATE["cache_dir"] = cache_dir
    _WORKER_STATE["mpl_nominals"] = mpl_nominals
    _WORKER_STATE["benchmarks"] = {}
    _WORKER_STATE["profiling"] = profiling
    _WORKER_STATE["kernels"] = kernels
    # A forked worker inherits the parent's accumulated counts; reset so
    # the snapshots shipped back are purely this worker's own activity.
    GLOBAL_METRICS.reset()


def _benchmark_context(benchmark: str):
    """Per-worker memoized (branch trace, baselines) for a benchmark."""
    contexts: Dict = _WORKER_STATE["benchmarks"]  # type: ignore[assignment]
    if benchmark not in contexts:
        from repro.workloads.suite import load_traces

        profile: SuiteProfile = _WORKER_STATE["profile"]  # type: ignore[assignment]
        branch_trace, call_loop = load_traces(
            benchmark,
            scale=profile.workload_scale,
            cache_dir=_WORKER_STATE["cache_dir"],  # type: ignore[arg-type]
        )
        baselines = BaselineSet(
            call_loop,
            profile,
            _WORKER_STATE["mpl_nominals"],  # type: ignore[arg-type]
            name=benchmark,
        )
        contexts[benchmark] = (branch_trace, baselines)
    return contexts[benchmark]


def _evaluate_store_chunk(
    benchmark: str,
    specs: Sequence[ConfigSpec],
    key: str,
    fingerprint: str,
    cache_dir: str,
    profile_name: str,
) -> Dict:
    """Evaluate one work item and persist it as a chunk file, in-worker.

    The worker serializes its own records to canonical cache lines and
    writes the content-addressed chunk atomically, so nothing but small
    accounting crosses the pipe and the parent never re-orders
    anything.  Returns ``{"key": ..., "stats": ...}`` where ``stats``
    carries the worker pid, this chunk's wall time / config / record
    counts, the optional :class:`ChunkProfiler` memory peak, and a
    cumulative snapshot of the worker's process-local metrics registry
    (the parent keeps the latest snapshot per pid and merges them).
    """
    from repro.experiments.store import ChunkStore, cache_line

    branch_trace, baselines = _benchmark_context(benchmark)
    profile: SuiteProfile = _WORKER_STATE["profile"]  # type: ignore[assignment]
    kernels = bool(_WORKER_STATE["kernels"])
    profiler = (
        ChunkProfiler(f"{benchmark}[{len(specs)} specs]")
        if _WORKER_STATE.get("profiling")
        else None
    )
    started = time.perf_counter()
    with profiler if profiler is not None else nullcontext():
        records = evaluate_bank(
            branch_trace, baselines, specs, profile, kernels=kernels
        )
    lines = [cache_line(record, fingerprint) for record in records]
    store = ChunkStore(cache_dir, profile_name)
    store.write(
        key, benchmark=benchmark, fingerprint=fingerprint,
        configs=len(specs), lines=lines,
        worker={"pid": os.getpid()},
    )
    wall = time.perf_counter() - started
    # Per-chunk wall time lands in the worker's process-local histograms;
    # the cumulative snapshot below ships it home, where the parent's
    # latest-per-pid merge folds it into the manifest (histograms merge
    # associatively, so worker order does not matter).
    GLOBAL_METRICS.histogram("sweep.job_seconds").observe(wall)
    GLOBAL_METRICS.histogram("sweep.chunk_seconds").observe(wall)
    GLOBAL_METRICS.counter("sweep.chunk_rows_written").inc(len(lines))
    stats: Dict = {
        "pid": os.getpid(),
        "wall_seconds": wall,
        "configs": len(specs),
        "records": len(lines),
        "peak_bytes": profiler.profile.peak_bytes if profiler is not None else None,
        "metrics": GLOBAL_METRICS.snapshot(),
    }
    return {"key": key, "stats": stats}


# -- parent side --------------------------------------------------------------


@dataclass
class _Progress:
    """Wall-clock accounting for the progress/ETA report.

    All interval math uses the monotonic ``time.perf_counter`` clock;
    the report goes to the ``repro.sweep`` logger at INFO.

    The configs/s line stays in config units, but the ETA extrapolates
    in *weight* units — each completed config contributes its
    benchmark's trace length (``weight``) — because a config on a long
    trace costs proportionally more wall time than one on a short
    trace.  With ``total_weight`` 0 (no weights supplied) the ETA falls
    back to the flat configs/s extrapolation.
    """

    total_configs: int
    total_weight: float = 0.0
    started: float = field(default_factory=time.perf_counter)
    done_configs: int = 0
    done_weight: float = 0.0
    benchmark_configs: Dict[str, int] = field(default_factory=dict)
    benchmark_started: Dict[str, float] = field(default_factory=dict)

    def eta_seconds(self, now: Optional[float] = None) -> float:
        """Remaining wall time, extrapolated in weight units."""
        now = time.perf_counter() if now is None else now
        elapsed = now - self.started
        if self.total_weight > 0:
            done, total = self.done_weight, self.total_weight
        else:
            done, total = float(self.done_configs), float(self.total_configs)
        if elapsed <= 0 or done <= 0:
            return 0.0
        rate = done / elapsed
        return max(total - done, 0.0) / rate

    def note(self, profile_name: str, benchmark: str, configs: int,
             benchmark_done: bool, weight: Optional[float] = None) -> None:
        now = time.perf_counter()
        self.benchmark_started.setdefault(benchmark, now)
        self.done_configs += configs
        self.done_weight += float(configs) if weight is None else weight
        self.benchmark_configs[benchmark] = (
            self.benchmark_configs.get(benchmark, 0) + configs
        )
        if not benchmark_done:
            return
        elapsed = now - self.started
        rate = self.done_configs / elapsed if elapsed > 0 else float("inf")
        eta = self.eta_seconds(now)
        bench_configs = self.benchmark_configs[benchmark]
        bench_elapsed = now - self.benchmark_started[benchmark]
        logger.info(
            "[%s] %s: %d configs in %.1fs (%.1f configs/s overall, "
            "%d/%d done, eta %.0fs)",
            profile_name, benchmark, bench_configs, bench_elapsed, rate,
            self.done_configs, self.total_configs, eta,
        )


class ParallelSweepExecutor:
    """Fan sweep work items over a process pool through the chunk store.

    Args:
        profile: the suite profile workers evaluate under.
        cache_dir: the suite trace cache directory workers load from
            (must already contain every trace — the parent's
            ``load_suite`` guarantees this).
        mpl_nominals: nominal MPLs each grid point is scored at.
        jobs: worker count (``None`` → :func:`resolve_jobs`).
        chunk_size: grid points per work item (``None`` → adaptive:
            ``grid / (jobs × TARGET_CHUNKS_PER_WORKER)``, with
            :data:`DEFAULT_CHUNK_SIZE` as the floor — small grids keep
            the amortization floor, paper-scale grids grow the chunk so
            per-item overhead stays negligible).
        profiling: wrap each chunk in a :class:`ChunkProfiler`
            (wall time + tracemalloc peak); see :attr:`chunk_profiles`.

    After :meth:`run_store` returns, :attr:`worker_stats` holds one
    accounting entry per worker process, :attr:`worker_metrics` the
    latest cumulative metrics snapshot per worker, and
    :attr:`chunk_profiles` any chunk profiles collected.
    """

    def __init__(
        self,
        profile: SuiteProfile,
        cache_dir,
        mpl_nominals: Sequence[int],
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        profiling: bool = False,
        kernels: bool = True,
    ) -> None:
        self.profile = profile
        self.cache_dir = cache_dir
        self.mpl_nominals = tuple(mpl_nominals)
        self.jobs = resolve_jobs(jobs)
        self.chunk_size = chunk_size
        self.profiling = profiling
        self.kernels = kernels
        self.worker_stats: List[Dict] = []
        self.worker_metrics: Dict[int, Dict] = {}
        self.chunk_profiles: List[Dict] = []
        #: The content-addressed plan of the last :meth:`run_store` call
        #: (``PlannedChunk`` values, in fold order); the caller hands it
        #: to :func:`repro.experiments.store.compact_chunks`.
        self.planned = []

    def _chunk_specs(self, specs: Sequence[ConfigSpec]) -> List[List[ConfigSpec]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            # Adaptive: aim for TARGET_CHUNKS_PER_WORKER items per worker
            # per benchmark, but never shrink below the amortization
            # floor.  A 10,000-point grid on 8 workers gets ~313-spec
            # chunks; a quick 135-point grid keeps the floor of 8.
            size = max(
                DEFAULT_CHUNK_SIZE,
                -(-len(specs) // (self.jobs * TARGET_CHUNKS_PER_WORKER)),
            )
        return [list(specs[i : i + size]) for i in range(0, len(specs), size)]

    def run_store(
        self,
        work: Sequence[Tuple[str, Sequence[ConfigSpec]]],
        store,
        fingerprints: Dict[str, str],
        progress: bool = False,
        benchmark_weights: Optional[Dict[str, float]] = None,
        on_chunk_done: Optional[Callable[[object, str], None]] = None,
        lease_ttl: Optional[float] = None,
        poll_seconds: float = 0.2,
    ) -> Dict[str, int]:
        """Evaluate ``work`` barrier-free through the chunk store.

        The work is planned into content-addressed chunks
        (:func:`repro.experiments.store.plan_chunks`; the plan lands in
        :attr:`planned`).  For each planned chunk, in order:

        * a valid chunk file already in the store is **reused** — that
          is the resume path, and costs nothing but a read;
        * otherwise this executor tries to **claim** the chunk's lease;
          on success the chunk is submitted to the pool, whose worker
          evaluates it and writes the chunk file itself
          (:func:`_evaluate_store_chunk`) — completion order is
          irrelevant, so there is no head-of-line blocking;
        * a chunk leased by another executor sharing the directory is
          left to that executor and **awaited** at the end (with
          TTL-based steal if the other executor died).

        Returns ``{"planned", "reused", "evaluated", "external",
        "evaluated_configs", "evaluated_records"}``.  The caller runs
        :func:`~repro.experiments.store.compact_chunks` afterwards to
        fold the now-complete chunk set into the JSONL cache.
        """
        from repro.experiments.store import (
            DEFAULT_LEASE_TTL,
            chunk_folded,
            plan_chunks,
        )

        ttl = DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl
        planned = plan_chunks(
            work, fingerprints, self.profile.name, self.mpl_nominals,
            self._chunk_specs,
        )
        self.planned = planned
        self.worker_stats = []
        self.worker_metrics = {}
        self.chunk_profiles = []
        stats_out = {
            "planned": len(planned),
            "reused": 0,
            "evaluated": 0,
            "external": 0,
            "evaluated_configs": 0,
            "evaluated_records": 0,
        }
        if not planned:
            return stats_out
        weights = benchmark_weights or {}
        mine = []  # chunks this executor claimed
        external = []  # chunks another executor holds; awaited below
        for chunk in planned:
            if store.has(chunk.key):
                stats_out["reused"] += 1
                if on_chunk_done is not None:
                    on_chunk_done(chunk, "reused")
            elif store.claim(chunk.key, ttl=ttl):
                mine.append(chunk)
            else:
                external.append(chunk)
        total_configs = sum(len(c.specs) for c in mine)
        total_weight = sum(
            len(c.specs) * weights.get(c.benchmark, 1.0) for c in mine
        ) if weights else 0.0
        tracker = _Progress(total_configs, total_weight)
        per_worker: Dict[int, Dict] = {}
        remaining_chunks: Dict[str, int] = {}
        for chunk in mine:
            remaining_chunks[chunk.benchmark] = (
                remaining_chunks.get(chunk.benchmark, 0) + 1
            )
        if mine:
            with ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(
                    self.profile,
                    str(self.cache_dir) if self.cache_dir is not None else None,
                    self.mpl_nominals,
                    self.profiling,
                    self.kernels,
                ),
            ) as pool:
                futures = {
                    pool.submit(
                        _evaluate_store_chunk,
                        chunk.benchmark,
                        list(chunk.specs),
                        chunk.key,
                        chunk.fingerprint,
                        str(store.cache_dir),
                        self.profile.name,
                    ): chunk
                    for chunk in mine
                }
                pending = set(futures)
                try:
                    while pending:
                        finished, pending = wait(
                            pending, return_when=FIRST_COMPLETED
                        )
                        for future in finished:
                            chunk = futures[future]
                            result = future.result()
                            store.release(chunk.key)
                            stats = result["stats"]
                            self._account(per_worker, chunk, stats)
                            stats_out["evaluated"] += 1
                            stats_out["evaluated_configs"] += stats["configs"]
                            stats_out["evaluated_records"] += stats["records"]
                            if on_chunk_done is not None:
                                on_chunk_done(chunk, "evaluated")
                            if progress:
                                remaining_chunks[chunk.benchmark] -= 1
                                tracker.note(
                                    self.profile.name,
                                    chunk.benchmark,
                                    len(chunk.specs),
                                    remaining_chunks[chunk.benchmark] == 0,
                                    weight=(
                                        len(chunk.specs)
                                        * weights.get(chunk.benchmark, 1.0)
                                        if weights else None
                                    ),
                                )
                except BaseException:
                    # Leave claimed-but-unevaluated leases in place: the
                    # TTL lets a successor steal them, and any chunk
                    # files already written survive for the resume path.
                    pool.shutdown(wait=True, cancel_futures=True)
                    raise
        # Await chunks another executor holds the lease on.  Normally
        # the other executor's chunk file just appears; if its lease
        # expires first (it died), steal the lease and redo the chunk
        # in a one-off worker.  A stolen chunk still counts as
        # "external" — the stats describe the plan's division of labor,
        # and the redo is accounted under evaluated_* like any other.
        stats_out["external"] = len(external)
        cache_path = store.cache_dir / f"sweep-{store.profile_name}.jsonl"
        for chunk in external:
            while not store.has(chunk.key):
                if store.claim(chunk.key, ttl=ttl):
                    if store.has(chunk.key):  # appeared during the steal
                        store.release(chunk.key)
                        break
                    if chunk_folded(chunk, cache_path):
                        # The other executor finished, compacted, and
                        # gc'd the file while we waited; its rows are
                        # already in the cache, so there is nothing to
                        # redo.
                        store.release(chunk.key)
                        break
                    logger.info(
                        "[%s] stealing expired lease on chunk %s (%s)",
                        self.profile.name, chunk.key, chunk.benchmark,
                    )
                    result = self._redo_chunk(chunk, store)
                    store.release(chunk.key)
                    stats = result["stats"]
                    self._account(per_worker, chunk, stats)
                    stats_out["evaluated"] += 1
                    stats_out["evaluated_configs"] += stats["configs"]
                    stats_out["evaluated_records"] += stats["records"]
                    break
                time.sleep(poll_seconds)
            if on_chunk_done is not None:
                on_chunk_done(chunk, "external")
        self.worker_stats = [per_worker[pid] for pid in sorted(per_worker)]
        return stats_out

    def _redo_chunk(self, chunk, store) -> Dict:
        """Re-evaluate one stolen chunk in a one-off worker process.

        A separate process (not inline) so the worker-side globals —
        ``_WORKER_STATE`` and the process-local metrics reset in
        ``_init_worker`` — never touch the parent's.
        """
        with ProcessPoolExecutor(
            max_workers=1,
            initializer=_init_worker,
            initargs=(
                self.profile,
                str(self.cache_dir) if self.cache_dir is not None else None,
                self.mpl_nominals,
                self.profiling,
                self.kernels,
            ),
        ) as pool:
            return pool.submit(
                _evaluate_store_chunk,
                chunk.benchmark,
                list(chunk.specs),
                chunk.key,
                chunk.fingerprint,
                str(store.cache_dir),
                self.profile.name,
            ).result()

    def _account(self, per_worker: Dict[int, Dict], chunk, stats: Dict) -> None:
        """Fold one chunk's worker stats into the per-pid aggregation."""
        pid = stats["pid"]
        entry = per_worker.get(pid)
        if entry is None:
            entry = per_worker[pid] = {
                "pid": pid,
                "chunks": 0,
                "configs": 0,
                "records": 0,
                "wall_seconds": 0.0,
                "peak_bytes": None,
            }
        entry["chunks"] += 1
        entry["configs"] += stats["configs"]
        entry["records"] += stats["records"]
        entry["wall_seconds"] += stats["wall_seconds"]
        peak = stats.get("peak_bytes")
        if peak is not None:
            entry["peak_bytes"] = max(entry["peak_bytes"] or 0, peak)
            self.chunk_profiles.append(
                {
                    "label": f"{chunk.benchmark}:chunk-{chunk.index}",
                    "wall_seconds": stats["wall_seconds"],
                    "peak_bytes": peak,
                }
            )
        # Cumulative snapshot: keep the worker's latest.
        self.worker_metrics[pid] = stats.get("metrics", {})
