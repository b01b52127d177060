"""The parameter sweep with an on-disk record cache.

A sweep evaluates a set of grid points over every benchmark trace and
scores each run at every MPL.  Detector runs are the expensive part, so
completed records land in a JSONL cache keyed by (benchmark
fingerprint, grid point, MPL set); re-running a sweep with a warm cache
only aggregates.

Evaluation has one route at every worker count: the missing cells are
planned into one-bank chunks of the content-addressed chunk store
(:mod:`repro.experiments.store`), each chunk is one single-pass
:class:`~repro.core.bank.DetectorBank` batch written to its own file,
and a deterministic compaction folds the chunks into the cache.
``jobs=1`` (the default) evaluates the chunks in this process on the
sweep's own traces and baselines; ``jobs>1`` (or ``jobs=None`` with
``REPRO_JOBS`` set) fans them over a process pool (see
:mod:`repro.experiments.parallel`).  The cache file is byte-identical
either way, and is mirrored into the SQLite result database; see
``docs/sweep.md`` for the lifecycle and ``docs/formats.md`` for the
cache schema.

Every :meth:`Sweep.ensure` that touches the on-disk cache also writes a
run manifest next to it (``sweep-<profile>.manifest.json``) recording
the config fingerprint, environment, per-worker accounting and a
metrics snapshot — see :mod:`repro.obs.manifest` and
``docs/observability.md``.  Progress lines go to the ``repro.sweep``
logger (the CLI's ``--verbose``/``--quiet`` control the level).
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config_space import (
    ConfigSpec,
    MPL_NOMINALS_EXTENDED,
    SuiteProfile,
    paper_grid,
)
from repro.experiments.runner import BaselineSet, SweepRecord
from repro.obs.manifest import build_manifest, manifest_path_for, write_manifest
from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry
from repro.workloads.suite import DEFAULT_CACHE_DIR, load_suite, workload, workload_names

_CacheKey = Tuple[str, str, Tuple, int]


def _spec_key(spec: ConfigSpec) -> Tuple:
    return spec.key()


def grid_fingerprint(specs: Sequence[ConfigSpec], mpl_nominals: Sequence[int]) -> str:
    """A short stable hash of the evaluated grid (specs x MPLs).

    Recorded in the run manifest so a manifest is checkable against the
    grid that produced it: same specs and MPLs -> same fingerprint,
    regardless of benchmark subset or worker count.
    """
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(repr(_spec_key(spec)).encode("utf-8"))
    digest.update(repr(tuple(mpl_nominals)).encode("utf-8"))
    return digest.hexdigest()[:12]


class Sweep:
    """Evaluate grid points over the benchmark suite, with caching.

    Args:
        profile: the suite profile (scale + grid density).
        cache_dir: where traces and sweep records live (defaults to the
            suite's trace cache directory).
        benchmarks: subset of workload names (default: all eight).
        mpl_nominals: nominal MPL values to score at (default: the
            extended set including 200K, so one sweep feeds every
            table and figure).
        jobs: default worker count for :meth:`ensure` (1 = chunks
            evaluated in this process; >1 fans them over a process pool).
        tracer: optional span tracer (see :mod:`repro.obs.trace`); when
            set, each :meth:`ensure` becomes a ``sweep`` span with one
            ``sweep.job`` child per chunk evaluated in this process and
            ``bank.run``/``bank.kernel`` grandchildren under those.
            Pool workers live in other processes and record no spans;
            they are profiled via worker metrics instead.
    """

    def __init__(
        self,
        profile: SuiteProfile,
        cache_dir: Optional[Path] = None,
        benchmarks: Optional[Sequence[str]] = None,
        mpl_nominals: Sequence[int] = MPL_NOMINALS_EXTENDED,
        jobs: int = 1,
        kernels: bool = True,
        tracer=None,
    ) -> None:
        self.profile = profile
        self.cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
        self.benchmarks = list(benchmarks) if benchmarks is not None else workload_names()
        self.mpl_nominals = list(mpl_nominals)
        self.jobs = jobs
        #: Vectorized kernels for eligible configurations (False: the
        #: fused loop everywhere — the kernel-equivalence escape hatch,
        #: identical records).
        self.kernels = kernels
        #: Optional span tracer, passed to chunks evaluated in-process.
        self.tracer = tracer
        #: Per-sweep metrics registry; snapshotted into the run manifest.
        self.metrics = MetricsRegistry()
        with self.metrics.time("sweep.load_suite_seconds"):
            self._traces = load_suite(scale=profile.workload_scale,
                                      cache_dir=self.cache_dir,
                                      names=self.benchmarks)
        self._baselines: Dict[str, BaselineSet] = {}
        self._records: Dict[_CacheKey, SweepRecord] = {}
        self._fingerprints: Dict[str, str] = {}
        self._db = None
        self._last_chunk_stats: Optional[Dict[str, int]] = None
        self._cache_path = self.cache_dir / f"sweep-{profile.name}.jsonl"
        #: Bytes of the cache already loaded (see :meth:`_load_cache`).
        self._cache_offset = 0
        self._load_cache()

    # -- cache ------------------------------------------------------------------

    def _fingerprint(self, benchmark: str) -> str:
        cached = self._fingerprints.get(benchmark)
        if cached is None:
            cached = workload(benchmark).fingerprint(self.profile.workload_scale)
            self._fingerprints[benchmark] = cached
        return cached

    def _load_cache(self) -> None:
        """Load the cache rows appended since the last load.

        The cache only grows by appends, so each load starts where the
        previous one stopped (a file shorter than that was rebuilt and
        is read from the start), and every row is counted once.  An
        unterminated last line — an append in progress, or a torn tail
        that the next compaction terminates — is left for a later load.
        """
        try:
            size = self._cache_path.stat().st_size
        except OSError:
            return
        if size < self._cache_offset:
            self._cache_offset = 0
        loaded = self.metrics.counter("sweep.cache_rows_loaded")
        stale = self.metrics.counter("sweep.cache_rows_stale")
        torn = self.metrics.counter("sweep.cache_rows_torn")
        fingerprints = {name: self._fingerprint(name) for name in self.benchmarks}
        with self.metrics.time("sweep.cache_load_seconds"):
            with self._cache_path.open("rb") as handle:
                handle.seek(self._cache_offset)
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break
                    self._cache_offset += len(raw)
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except ValueError:
                        torn.inc()  # tolerate a torn row from an interrupted run
                        continue
                    fingerprint = row.pop("fingerprint", "")
                    record = SweepRecord.from_row(row)
                    if fingerprints.get(record.benchmark) != fingerprint:
                        stale.inc()  # workload changed; discard stale rows
                        continue
                    loaded.inc()
                    self._records[self._record_key(record)] = record

    def _record_key(self, record: SweepRecord) -> _CacheKey:
        spec_key = (
            record.family,
            record.cw_nominal,
            record.model,
            record.analyzer,
            record.anchor,
            record.resize,
        )
        return (record.benchmark, self.profile.name, spec_key, record.mpl_nominal)

    # -- evaluation ----------------------------------------------------------------

    @property
    def cache_path(self) -> Path:
        """The JSONL record cache file backing this sweep."""
        return self._cache_path

    @property
    def db_path(self) -> Path:
        """The SQLite result database next to the cache."""
        return self.cache_dir / f"sweep-{self.profile.name}.sqlite"

    def result_db(self):
        """The sweep's :class:`~repro.experiments.store.ResultDB` (lazy)."""
        if self._db is None:
            from repro.experiments.store import ResultDB

            self._db = ResultDB(self.db_path)
        return self._db

    def _benchmark_weights(self) -> Dict[str, float]:
        """Trace length per benchmark — the progress/ETA weighting.

        Benchmarks differ in trace length by large factors, so an ETA
        extrapolated from configs/s alone misestimates badly on skewed
        grids; weighting remaining configs by their benchmark's trace
        length fixes that (the lengths are already in memory from the
        suite cache).
        """
        return {
            name: float(len(traces[0])) for name, traces in self._traces.items()
        }

    @property
    def traces(self) -> Dict[str, Tuple]:
        """benchmark name -> (branch trace, call-loop trace)."""
        return self._traces

    def baselines(self, benchmark: str) -> BaselineSet:
        """The solved baseline set for ``benchmark`` (computed lazily)."""
        if benchmark not in self._baselines:
            _, call_loop = self._traces[benchmark]
            self._baselines[benchmark] = BaselineSet(
                call_loop, self.profile, self.mpl_nominals, name=benchmark
            )
        return self._baselines[benchmark]

    def _missing(self, benchmark: str, specs: Sequence[ConfigSpec]) -> List[ConfigSpec]:
        return [
            spec
            for spec in specs
            if any(
                (benchmark, self.profile.name, _spec_key(spec), nominal)
                not in self._records
                for nominal in self.mpl_nominals
            )
        ]

    def _span(self, name: str, **attrs):
        if self.tracer is None:
            return nullcontext(None)
        return self.tracer.span(name, **attrs)

    def _context(self, benchmark: str) -> Tuple:
        """(branch trace, baselines) for chunks evaluated in-process."""
        return self._traces[benchmark][0], self.baselines(benchmark)

    def _evaluate(
        self,
        work: Sequence[Tuple[str, List[ConfigSpec]]],
        jobs: int,
        progress: bool,
        profiling: bool,
        trace_parent=None,
    ):
        """Evaluate ``work`` through the chunk store; return the executor.

        Chunks are written as they finish — in whatever order — and the
        parent only collects accounting.  Chunks already present (a
        resumed run) are reused without evaluation; chunks leased by
        another live executor are skipped and awaited.  Once every
        planned chunk exists, a deterministic compaction folds them into
        the JSONL cache in plan order and syncs the SQLite result
        database.  See :mod:`repro.experiments.store`.
        """
        from repro.experiments.parallel import ParallelSweepExecutor
        from repro.experiments.store import ChunkStore, compact_chunks

        executor = ParallelSweepExecutor(
            self.profile, self.cache_dir, self.mpl_nominals, jobs=jobs,
            profiling=profiling, kernels=self.kernels, context=self._context,
            tracer=self.tracer, metrics=self.metrics,
        )
        store = ChunkStore(self.cache_dir, self.profile.name)
        fingerprints = {benchmark: self._fingerprint(benchmark) for benchmark, _ in work}
        chunk_stats = executor.run_store(
            work, store, fingerprints, progress=progress,
            benchmark_weights=self._benchmark_weights(),
            trace_parent=trace_parent,
        )
        summary = compact_chunks(
            store, executor.planned, self._cache_path,
            db=self.result_db(), metrics=self.metrics,
        )
        chunk_stats["folded"] = summary["folded"]
        chunk_stats["already_compacted"] = summary["skipped"]
        self._last_chunk_stats = chunk_stats
        # The cache now holds every planned row (including chunks other
        # executors evaluated or folded); loading what was appended is
        # correct no matter who appended it.
        self._load_cache()
        self.metrics.counter("sweep.records_evaluated").inc(
            chunk_stats["evaluated_records"]
        )
        self.metrics.counter("sweep.chunks_planned").inc(chunk_stats["planned"])
        self.metrics.counter("sweep.chunks_reused").inc(chunk_stats["reused"])
        self.metrics.counter("sweep.chunks_evaluated").inc(chunk_stats["evaluated"])
        return executor

    @property
    def manifest_path(self) -> Path:
        """Where :meth:`ensure` writes the run manifest."""
        return manifest_path_for(self._cache_path)

    def ensure(
        self,
        specs: Optional[Sequence[ConfigSpec]] = None,
        progress: bool = False,
        jobs: Optional[int] = None,
        profiling: bool = False,
        manifest: bool = True,
    ) -> List[SweepRecord]:
        """Evaluate any missing (benchmark, spec) pairs; return all records.

        With a warm cache this is pure lookup.  ``progress`` logs a
        one-line-per-benchmark trace (``repro.sweep`` logger, INFO).
        ``jobs`` overrides the sweep's default worker count for this
        call: 1 evaluates the chunks in this process, >1 fans them over
        a process pool (see :mod:`repro.experiments.parallel`); both
        produce the same records and a byte-identical cache file.
        ``profiling`` wraps each chunk in a
        :class:`~repro.obs.profiling.ChunkProfiler`.  Unless
        ``manifest=False``, a run manifest is written next to the cache
        describing this call (see :mod:`repro.obs.manifest`).
        """
        from repro.experiments.parallel import resolve_jobs

        specs = list(specs) if specs is not None else paper_grid(self.profile)
        jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        started = time.perf_counter()
        work = [
            (benchmark, missing)
            for benchmark in self.benchmarks
            if (missing := self._missing(benchmark, specs))
        ]
        executor = None
        self._last_chunk_stats = None
        if work:
            with self._span(
                "sweep", profile=self.profile.name, benchmarks=len(work),
            ) as sweep_span:
                executor = self._evaluate(work, jobs, progress, profiling, sweep_span)
        evaluated = (
            self._last_chunk_stats["evaluated_records"] if executor is not None else 0
        )
        # Keep the SQLite mirror current even when nothing was evaluated
        # (incremental: a warm-cache call parses nothing).
        with self.metrics.time("store.db_sync_seconds"):
            self.result_db().sync_from_cache(self._cache_path, self.profile.name)
        elapsed = time.perf_counter() - started
        if evaluated:
            self.result_db().record_run(
                profile=self.profile.name,
                grid_fingerprint=grid_fingerprint(specs, self.mpl_nominals),
                jobs=jobs,
                elapsed_seconds=elapsed,
                records_evaluated=evaluated,
                records_total=len(self._records),
            )
        wanted: List[SweepRecord] = []
        for benchmark in self.benchmarks:
            for spec in specs:
                for nominal in self.mpl_nominals:
                    key = (benchmark, self.profile.name, _spec_key(spec), nominal)
                    record = self._records.get(key)
                    if record is not None:
                        wanted.append(record)
        if manifest:
            self._write_manifest(specs, jobs, elapsed, evaluated, executor)
        return wanted

    def _write_manifest(
        self,
        specs: Sequence[ConfigSpec],
        jobs: int,
        elapsed: float,
        evaluated: int,
        executor,
    ) -> Path:
        """Write this run's manifest next to the cache (atomic)."""
        worker_metrics = executor.worker_metrics if executor is not None else {}
        # One registry view of the run, each source merged once: the
        # sweep's own instruments (in-process chunks record here), the
        # parent process's I/O counters, then each pool worker's latest
        # cumulative snapshot.
        merged = MetricsRegistry.merged(
            [self.metrics.snapshot(), GLOBAL_METRICS.snapshot()]
            + [worker_metrics[pid] for pid in sorted(worker_metrics)]
        )
        document = build_manifest(
            profile=self.profile.name,
            benchmarks=self.benchmarks,
            fingerprints={name: self._fingerprint(name) for name in self.benchmarks},
            grid_fingerprint=grid_fingerprint(specs, self.mpl_nominals),
            mpl_nominals=self.mpl_nominals,
            jobs=jobs,
            elapsed_seconds=elapsed,
            records_evaluated=evaluated,
            records_total=len(self._records),
            workers=executor.worker_stats if executor is not None else [],
            metrics=merged.snapshot(),
            chunk_profiles=executor.chunk_profiles if executor is not None else [],
            chunks=self._last_chunk_stats,
        )
        return write_manifest(document, self.manifest_path)

    def records(self) -> List[SweepRecord]:
        """All records currently cached (no evaluation)."""
        return list(self._records.values())
