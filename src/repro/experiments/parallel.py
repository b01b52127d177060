"""Sweep execution through the chunk store, in-process or over a pool.

The paper's evaluation is >10,000 detector instantiations (Section 4);
each (benchmark, grid point) cell is independent.  Every sweep, at every
``--jobs``, runs the same route: the missing work is planned into
content-addressed one-bank chunks (:func:`repro.experiments.store.plan_chunks`),
each chunk is evaluated by :func:`evaluate_chunk` and written to the
chunk store, and a deterministic compaction folds the chunks into the
JSONL cache in plan order.  ``jobs`` only decides *where*
:func:`evaluate_chunk` runs:

* **``jobs=1``: in-process.**  The executor calls it with the caller's
  own traces, baselines, tracer and metrics registry (the ``context``
  the :class:`~repro.experiments.sweep.Sweep` passes in), so a traced
  run records a ``sweep.job`` span per chunk.
* **``jobs>1``: over a process pool.**  Workers map the cached traces
  read-only (the parent materialized them), so all share one page-cache
  copy, and memoize one ``(branch trace, BaselineSet)`` pair per
  benchmark (:func:`_benchmark_context`), so the oracle solve is paid
  at most ``jobs`` times per benchmark.  Only the planned chunk goes
  out and small accounting comes back; record rows never cross the
  pipe.
* **A stolen lease** (another executor died holding a chunk) is redone
  in-process like ``jobs=1``.

Chunks already in the store are *reused* (that is the resume path: an
interrupted run costs only its missing chunk set), and chunks leased by
another executor sharing the results directory are skipped and
awaited.  Because a chunk is one :data:`~repro.experiments.runner.DEFAULT_BANK_SIZE`
bank of grid points, the plan does not depend on ``jobs``: executors at
different worker counts share one results directory and each other's
chunk files.

* **Progress/ETA.**  With ``progress=True`` a per-benchmark line and a
  running ETA, weighted by trace length, are logged at INFO on the
  ``repro.sweep`` logger (see :class:`_Progress`).
* **Per-worker accounting.**  Every evaluated chunk reports the pid
  that ran it, its wall time and record count.  After
  :meth:`ParallelSweepExecutor.run_store` the aggregation is available
  as :attr:`~ParallelSweepExecutor.worker_stats` — the sum of
  per-worker record counts equals the records evaluated, which is the
  invariant the run manifest records and ``repro obs summary`` checks.
  A pool worker also ships a cumulative snapshot of its process-local
  metrics registry (:attr:`~ParallelSweepExecutor.worker_metrics`);
  in-process chunks record straight into the caller's registry.
* **Opt-in chunk profiling.**  With ``profiling=True`` each chunk is
  wrapped in a :class:`~repro.obs.profiling.ChunkProfiler` (wall time +
  ``tracemalloc`` peak); profiles come back in
  :attr:`~ParallelSweepExecutor.chunk_profiles`.

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


def evaluate_chunk(
    chunk,
    trace,
    baselines: BaselineSet,
    store,
    profile: SuiteProfile,
    kernels: bool = True,
    profiling: bool = False,
    metrics=None,
    tracer=None,
    trace_parent=None,
) -> Dict:
    """Evaluate one planned chunk and write its chunk file.

    The sweep's one evaluator: pool workers, the in-process ``jobs=1``
    route and a stolen-lease redo all call it.  ``chunk`` is a
    :class:`~repro.experiments.store.PlannedChunk`; ``trace`` and
    ``baselines`` are its benchmark's branch trace and solved
    :class:`BaselineSet`.  The records are serialized to canonical
    cache lines and written to ``store`` atomically under the chunk's
    key.  With a ``tracer`` the chunk is a ``sweep.job`` span under
    ``trace_parent``; ``metrics`` (optional) receives the bank's
    ``bank.advance_seconds`` and the ``sweep.chunk_seconds`` /
    ``sweep.chunk_rows_written`` instruments.

    Returns this chunk's accounting: the pid that ran it, wall time,
    config and record counts, and the :class:`ChunkProfiler` memory
    peak when ``profiling`` is on (else ``None``).
    """
    from repro.experiments.store import cache_line

    profiler = (
        ChunkProfiler(f"{chunk.benchmark}[{len(chunk.specs)} specs]")
        if profiling
        else None
    )
    span = (
        tracer.span("sweep.job", parent=trace_parent,
                    benchmark=chunk.benchmark, specs=len(chunk.specs))
        if tracer is not None
        else nullcontext(None)
    )
    started = time.perf_counter()
    with span as job_span, profiler if profiler is not None else nullcontext():
        records = evaluate_bank(
            trace, baselines, chunk.specs, profile, kernels=kernels,
            tracer=tracer, trace_parent=job_span, metrics=metrics,
        )
        lines = [cache_line(record, chunk.fingerprint) for record in records]
        store.write(
            chunk.key, benchmark=chunk.benchmark, fingerprint=chunk.fingerprint,
            configs=len(chunk.specs), lines=lines, worker={"pid": os.getpid()},
        )
    wall = time.perf_counter() - started
    if metrics is not None:
        metrics.histogram("sweep.chunk_seconds").observe(wall)
        metrics.counter("sweep.chunk_rows_written").inc(len(lines))
    return {
        "pid": os.getpid(),
        "wall_seconds": wall,
        "configs": len(chunk.specs),
        "records": len(lines),
        "peak_bytes": profiler.profile.peak_bytes if profiler is not None else None,
    }


class _TraceContexts:
    """benchmark -> (branch trace, solved BaselineSet), loaded once each.

    Traces come from the on-disk trace cache; the baselines are solved
    locally on first use.  A pool worker keeps one of these for its
    lifetime; an executor without a caller-supplied context keeps one
    for its in-process chunks.
    """

    def __init__(
        self, profile: SuiteProfile, cache_dir, mpl_nominals: Sequence[int]
    ) -> None:
        self.profile = profile
        self.cache_dir = cache_dir
        self.mpl_nominals = tuple(mpl_nominals)
        self._loaded: Dict[str, Tuple] = {}

    def __call__(self, benchmark: str) -> Tuple:
        if benchmark not in self._loaded:
            from repro.workloads.suite import load_traces

            branch_trace, call_loop = load_traces(
                benchmark,
                scale=self.profile.workload_scale,
                cache_dir=self.cache_dir,
            )
            baselines = BaselineSet(
                call_loop, self.profile, self.mpl_nominals, name=benchmark
            )
            self._loaded[benchmark] = (branch_trace, baselines)
        return self._loaded[benchmark]


# -- worker side --------------------------------------------------------------
#
# Module-level so it pickles under both fork and spawn start methods.
# _init_worker runs once per pool worker process (never in the parent);
# _WORKER_STATE is therefore per-process, never shared.

_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    profile: SuiteProfile,
    cache_dir: Optional[str],
    mpl_nominals: Tuple[int, ...],
    profiling: bool = False,
    kernels: bool = True,
) -> None:
    _WORKER_STATE["profile"] = profile
    _WORKER_STATE["contexts"] = _TraceContexts(profile, cache_dir, mpl_nominals)
    _WORKER_STATE["profiling"] = profiling
    _WORKER_STATE["kernels"] = kernels
    # A forked worker inherits the parent's accumulated counts; reset
    # this process's copy so the snapshots shipped back are purely this
    # worker's own activity.
    GLOBAL_METRICS.reset()


def _benchmark_context(benchmark: str) -> Tuple:
    """This worker's memoized (branch trace, baselines) for a benchmark."""
    return _WORKER_STATE["contexts"](benchmark)  # type: ignore[operator]


def _evaluate_store_chunk(chunk, store) -> Dict:
    """:func:`evaluate_chunk` in a pool worker, plus its metrics snapshot.

    The snapshot is cumulative over the worker's lifetime; the parent
    keeps the latest per pid and merges them once each.  The pool is
    handed this function through the module global, so
    ``benchmarks/e2e/slowdown.py`` can wrap it by name.
    """
    trace, baselines = _benchmark_context(chunk.benchmark)
    stats = evaluate_chunk(
        chunk, trace, baselines, store,
        _WORKER_STATE["profile"],  # type: ignore[arg-type]
        kernels=bool(_WORKER_STATE["kernels"]),
        profiling=bool(_WORKER_STATE["profiling"]),
        metrics=GLOBAL_METRICS,
    )
    stats["metrics"] = GLOBAL_METRICS.snapshot()
    return stats


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
    """Evaluate sweep work through the chunk store, in-process or pooled.

    Args:
        profile: the suite profile chunks are evaluated under.
        cache_dir: the suite trace cache directory (must already contain
            every trace — the parent's ``load_suite`` guarantees this).
        mpl_nominals: nominal MPLs each grid point is scored at.
        jobs: worker count (``None`` → :func:`resolve_jobs`); 1 runs
            every chunk in this process, more fan them over a pool.
        profiling: wrap each chunk in a :class:`ChunkProfiler`
            (wall time + tracemalloc peak); see :attr:`chunk_profiles`.
        kernels: ``False`` runs every member on the fused loop.
        context: ``benchmark -> (branch trace, BaselineSet)`` for the
            chunks evaluated in this process (``jobs=1`` and stolen
            leases); ``None`` loads them from ``cache_dir`` once each.
        tracer: optional span tracer for in-process chunks.
        metrics: optional registry in-process chunks record into.

    After :meth:`run_store` returns, :attr:`worker_stats` holds one
    accounting entry per process that evaluated chunks,
    :attr:`worker_metrics` the latest cumulative metrics snapshot per
    pool worker, and :attr:`chunk_profiles` any chunk profiles
    collected.
    """

    def __init__(
        self,
        profile: SuiteProfile,
        cache_dir,
        mpl_nominals: Sequence[int],
        jobs: Optional[int] = None,
        profiling: bool = False,
        kernels: bool = True,
        context: Optional[Callable[[str], Tuple]] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.profile = profile
        self.cache_dir = cache_dir
        self.mpl_nominals = tuple(mpl_nominals)
        self.jobs = resolve_jobs(jobs)
        self.profiling = profiling
        self.kernels = kernels
        self.context = context if context is not None else _TraceContexts(
            profile, cache_dir, self.mpl_nominals
        )
        self.tracer = tracer
        self.metrics = metrics
        self.worker_stats: List[Dict] = []
        self.worker_metrics: Dict[int, Dict] = {}
        self.chunk_profiles: List[Dict] = []
        #: The content-addressed plan of the last :meth:`run_store` call
        #: (``PlannedChunk`` values, in fold order); the caller hands it
        #: to :func:`repro.experiments.store.compact_chunks`.
        self.planned = []

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
        trace_parent=None,
    ) -> Dict[str, int]:
        """Evaluate ``work`` barrier-free through the chunk store.

        The work is planned into content-addressed one-bank chunks
        (:func:`repro.experiments.store.plan_chunks`; the plan lands in
        :attr:`planned`).  For each planned chunk, in order:

        * a valid chunk file already in the store is **reused** — that
          is the resume path, and costs nothing but a read;
        * otherwise this executor tries to **claim** the chunk's lease;
          on success it evaluates the chunk with :func:`evaluate_chunk`,
          which writes the chunk file — in this process at ``jobs=1``,
          in a pool worker otherwise, where completion order is
          irrelevant, so there is no head-of-line blocking;
        * a chunk leased by another executor sharing the directory is
          left to that executor and **awaited** at the end (with
          TTL-based steal if the other executor died).

        In-process chunks become ``sweep.job`` spans under
        ``trace_parent`` when the executor has a tracer.

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
            work, fingerprints, self.profile.name, self.mpl_nominals
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

        def account(chunk, stats: Dict) -> None:
            store.release(chunk.key)
            self._account(per_worker, chunk, stats)
            stats_out["evaluated"] += 1
            stats_out["evaluated_configs"] += stats["configs"]
            stats_out["evaluated_records"] += stats["records"]

        def finish(chunk, stats: Dict) -> None:
            account(chunk, stats)
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
                        len(chunk.specs) * weights.get(chunk.benchmark, 1.0)
                        if weights else None
                    ),
                )

        # On failure, claimed-but-unevaluated leases stay in place: the
        # TTL lets a successor steal them, and any chunk files already
        # written survive for the resume path.
        if self.jobs == 1:
            for chunk in mine:
                finish(chunk, self._evaluate_here(chunk, store, trace_parent))
        elif mine:
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
                    pool.submit(_evaluate_store_chunk, chunk, store): chunk
                    for chunk in mine
                }
                pending = set(futures)
                try:
                    while pending:
                        finished, pending = wait(
                            pending, return_when=FIRST_COMPLETED
                        )
                        for future in finished:
                            finish(futures[future], future.result())
                except BaseException:
                    pool.shutdown(wait=True, cancel_futures=True)
                    raise
        # Await chunks another executor holds the lease on.  Normally
        # the other executor's chunk file just appears; if its lease
        # expires first (it died), steal the lease and redo the chunk
        # in this process.  A stolen chunk still counts as "external" —
        # the stats describe the plan's division of labor, and the redo
        # is accounted under evaluated_* like any other.
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
                    account(chunk, self._evaluate_here(chunk, store, trace_parent))
                    break
                time.sleep(poll_seconds)
            if on_chunk_done is not None:
                on_chunk_done(chunk, "external")
        self.worker_stats = [per_worker[pid] for pid in sorted(per_worker)]
        return stats_out

    def _evaluate_here(self, chunk, store, trace_parent=None) -> Dict:
        """:func:`evaluate_chunk` in this process, on :attr:`context`."""
        trace, baselines = self.context(chunk.benchmark)
        return evaluate_chunk(
            chunk, trace, baselines, store, self.profile,
            kernels=self.kernels, profiling=self.profiling,
            metrics=self.metrics, tracer=self.tracer, trace_parent=trace_parent,
        )

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
        # A pool worker's snapshot is cumulative: keep its latest.  An
        # in-process chunk recorded into the caller's registry instead.
        if "metrics" in stats:
            self.worker_metrics[pid] = stats["metrics"]
