"""Parallel sweep executor tests: equivalence, accounting, jobs resolution."""

import json

import pytest

from repro.core.config import AnalyzerKind, ModelKind
from repro.experiments.config_space import ConfigSpec, SuiteProfile
from repro.experiments.parallel import (
    DEFAULT_CHUNK_SIZE,
    TARGET_CHUNKS_PER_WORKER,
    ParallelSweepExecutor,
    _Progress,
    resolve_jobs,
)
from repro.experiments.store import ChunkStore
from repro.experiments.sweep import Sweep
from repro.workloads.suite import workload

TINY = SuiteProfile(
    name="tiny",
    workload_scale=0.08,
    thresholds=(0.6,),
    deltas=(0.05,),
    cw_nominals=(500, 5_000),
)

SPECS = [
    ConfigSpec("constant", 500, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("adaptive", 500, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("constant", 5_000, ModelKind.WEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("adaptive", 5_000, ModelKind.UNWEIGHTED, AnalyzerKind.AVERAGE, 0.05),
]

MPLS = (1_000, 10_000)
BENCHMARKS = ["db", "jlex"]
CACHE_NAME = "sweep-tiny.jsonl"


def _run_sweep(cache_dir, jobs):
    sweep = Sweep(TINY, cache_dir=cache_dir, benchmarks=BENCHMARKS, mpl_nominals=MPLS)
    records = sweep.ensure(SPECS, jobs=jobs)
    return records, (cache_dir / CACHE_NAME).read_bytes()


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestChunking:
    def test_explicit_chunk_size(self, tmp_path):
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=2, chunk_size=3)
        chunks = executor._chunk_specs(SPECS)
        assert [len(c) for c in chunks] == [3, 1]
        assert [spec for chunk in chunks for spec in chunk] == SPECS

    def test_auto_chunk_size_adapts_to_grid(self, tmp_path):
        # 120 specs / (1 job * 4 target chunks per worker) = 30-spec chunks.
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=1)
        many = SPECS * 30
        chunks = executor._chunk_specs(many)
        expected = -(-len(many) // (1 * TARGET_CHUNKS_PER_WORKER))
        assert [len(c) for c in chunks[:-1]] == [expected] * (len(chunks) - 1)
        assert sum(len(c) for c in chunks) == len(many)
        assert [spec for chunk in chunks for spec in chunk] == many

    def test_auto_chunk_size_floor(self, tmp_path):
        # Small grids never shrink below DEFAULT_CHUNK_SIZE: with many
        # jobs the adaptive divisor would give 1-spec chunks, whose
        # per-chunk overhead swamps the work.
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=8)
        chunks = executor._chunk_specs(SPECS * 4)
        assert all(len(c) <= DEFAULT_CHUNK_SIZE for c in chunks)
        assert len(chunks[0]) == DEFAULT_CHUNK_SIZE

    def test_auto_chunk_size_spreads_across_workers(self, tmp_path):
        # A big grid must yield at least jobs * TARGET_CHUNKS_PER_WORKER
        # chunks so no worker idles while another drains a giant chunk.
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=4)
        many = SPECS * 250  # 1000 specs
        chunks = executor._chunk_specs(many)
        assert len(chunks) >= 4 * TARGET_CHUNKS_PER_WORKER
        assert sum(len(c) for c in chunks) == len(many)


class TestSerialParallelEquivalence:
    def test_records_and_cache_bytes_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_records, serial_cache = _run_sweep(serial_dir, jobs=1)
        parallel_records, parallel_cache = _run_sweep(parallel_dir, jobs=2)
        assert parallel_records == serial_records
        assert parallel_cache == serial_cache

    def test_parallel_run_warms_cache(self, tmp_path):
        first, cache_bytes = _run_sweep(tmp_path, jobs=2)
        fresh = Sweep(
            TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS, mpl_nominals=MPLS
        )
        assert len(fresh.records()) == len(first)
        again = fresh.ensure(SPECS, jobs=2)
        assert again == first
        # Nothing was missing, so the cache file must be untouched.
        assert (tmp_path / CACHE_NAME).read_bytes() == cache_bytes

    def test_parallel_completes_interrupted_cache(self, tmp_path):
        serial_dir = tmp_path / "serial"
        serial_records, serial_cache = _run_sweep(serial_dir, jobs=1)
        # Simulate a killed run: keep only a prefix of whole cache lines.
        partial_dir = tmp_path / "partial"
        Sweep(TINY, cache_dir=partial_dir, benchmarks=BENCHMARKS, mpl_nominals=MPLS)
        lines = serial_cache.decode("utf-8").splitlines(keepends=True)
        (partial_dir / CACHE_NAME).write_text("".join(lines[:3]), encoding="utf-8")
        resumed = Sweep(
            TINY, cache_dir=partial_dir, benchmarks=BENCHMARKS, mpl_nominals=MPLS
        )
        records = resumed.ensure(SPECS, jobs=2)
        assert records == serial_records

    def test_torn_cache_tail_recovered_in_parallel(self, tmp_path):
        _run_sweep(tmp_path, jobs=1)
        cache = tmp_path / CACHE_NAME
        with cache.open("a") as handle:
            handle.write('{"benchmark": "db", "trunc')
        fresh = Sweep(
            TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS, mpl_nominals=MPLS
        )
        records = fresh.ensure(SPECS, jobs=2)
        assert len(records) == len(SPECS) * len(MPLS) * len(BENCHMARKS)

    def test_cache_rows_are_valid_jsonl(self, tmp_path):
        _, cache_bytes = _run_sweep(tmp_path, jobs=2)
        rows = [json.loads(line) for line in cache_bytes.decode().splitlines()]
        assert all("fingerprint" in row for row in rows)
        assert len(rows) == len(SPECS) * len(MPLS) * len(BENCHMARKS)


class TestProgressEta:
    def test_weighted_eta_tracks_remaining_trace_length(self):
        # 20 configs split over a short and a long trace.  After the 10
        # short-trace configs finish (10% of the weight in 1s), a flat
        # configs/s ETA would claim 1s remaining; the weighted ETA must
        # report the 90% of weight still outstanding: 9s.
        tracker = _Progress(total_configs=20, total_weight=1_000.0, started=0.0)
        tracker.note("tiny", "short", 10, False, weight=100.0)
        assert tracker.eta_seconds(now=1.0) == pytest.approx(9.0)

    def test_eta_falls_back_to_configs_without_weights(self):
        tracker = _Progress(total_configs=20, started=0.0)
        tracker.note("tiny", "short", 10, False)
        assert tracker.eta_seconds(now=1.0) == pytest.approx(1.0)

    def test_eta_zero_before_any_completion(self):
        tracker = _Progress(total_configs=20, total_weight=1_000.0, started=0.0)
        assert tracker.eta_seconds(now=1.0) == 0.0


def _run_store(executor, cache_dir, work, progress=False):
    """Drive ``executor.run_store`` over ``work`` with a fresh chunk store."""
    store = ChunkStore(cache_dir, TINY.name)
    fingerprints = {
        name: workload(name).fingerprint(TINY.workload_scale) for name, _ in work
    }
    stats = executor.run_store(work, store, fingerprints, progress=progress)
    return store, stats


class TestExecutorOrdering:
    def test_empty_work_is_noop(self, tmp_path):
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=2)
        store, stats = _run_store(executor, tmp_path, [], progress=True)
        assert stats["planned"] == stats["evaluated"] == 0
        assert executor.planned == []
        assert store.keys() == set()
        assert executor.worker_stats == []
        assert executor.worker_metrics == {}


class TestWorkerAccounting:
    def test_worker_records_sum_to_delivered_records(self, tmp_path):
        Sweep(TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS, mpl_nominals=MPLS)
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=2,
                                         chunk_size=1)
        work = [(name, SPECS) for name in BENCHMARKS]
        store, stats = _run_store(executor, tmp_path, work)
        delivered = sum(len(store.read(chunk.key)[1]) for chunk in executor.planned)
        assert delivered == stats["evaluated_records"]
        assert executor.worker_stats, "expected at least one worker entry"
        assert sum(w["records"] for w in executor.worker_stats) == delivered
        assert sum(w["configs"] for w in executor.worker_stats) == (
            len(SPECS) * len(BENCHMARKS)
        )
        for stats in executor.worker_stats:
            assert stats["chunks"] >= 1
            assert stats["wall_seconds"] >= 0.0
        # Worker pids are unique and the metrics snapshots are keyed by them.
        pids = [w["pid"] for w in executor.worker_stats]
        assert len(pids) == len(set(pids))
        assert set(executor.worker_metrics) == set(pids)

    def test_worker_metrics_count_trace_cache_hits(self, tmp_path):
        Sweep(TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS, mpl_nominals=MPLS)
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=2)
        _run_store(executor, tmp_path, [(name, SPECS) for name in BENCHMARKS])
        merged_hits = sum(
            snapshot.get("counters", {}).get("io.trace_cache_hits", 0)
            for snapshot in executor.worker_metrics.values()
        )
        # Every worker loads each benchmark it sees from the warm cache.
        assert merged_hits >= 1

    def test_profiling_collects_chunk_profiles(self, tmp_path):
        Sweep(TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS, mpl_nominals=MPLS)
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=2,
                                         chunk_size=2, profiling=True)
        _run_store(executor, tmp_path, [(name, SPECS) for name in BENCHMARKS])
        assert executor.chunk_profiles, "profiling mode must collect profiles"
        for profile in executor.chunk_profiles:
            assert profile["wall_seconds"] >= 0.0
            assert profile["peak_bytes"] > 0

    def test_no_profiles_without_profiling(self, tmp_path):
        Sweep(TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS, mpl_nominals=MPLS)
        executor = ParallelSweepExecutor(TINY, tmp_path, MPLS, jobs=2)
        _run_store(executor, tmp_path, [(BENCHMARKS[0], SPECS)])
        assert executor.chunk_profiles == []
