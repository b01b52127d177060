"""Chunk store, compaction and result-database tests.

Most tests push deterministic *synthetic* records through the
persistence layer — byte serialization, leases, compaction and SQLite
never look inside the scores, so no detector needs to run.  The
end-to-end class at the bottom drives real (tiny) sweeps.
"""

import json
import threading

import pytest

from repro.core.config import AnalyzerKind, ModelKind
from repro.experiments import aggregate
from repro.experiments.config_space import ConfigSpec, SuiteProfile
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import SweepRecord
from repro.experiments.store import (
    ChunkStore,
    ResultDB,
    StoreError,
    cache_line,
    chunk_cells,
    chunk_folded,
    chunk_key,
    compact_chunks,
    open_readonly,
    plan_chunks,
    spec_chunk_hash,
)
from repro.experiments.sweep import Sweep

SPECS = [
    ConfigSpec("constant", 500, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("adaptive", 500, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("constant", 5_000, ModelKind.WEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("adaptive", 5_000, ModelKind.UNWEIGHTED, AnalyzerKind.AVERAGE, 0.05),
    ConfigSpec("constant", 1_000, ModelKind.WEIGHTED, AnalyzerKind.AVERAGE, 0.2),
    ConfigSpec("fixed", 1_000, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.5),
]

MPLS = (1_000, 10_000)
BENCHMARKS = ["db", "jess"]
FINGERPRINTS = {"db": "fp-db", "jess": "fp-jess"}
PROFILE = "tiny"


def synthetic_record(benchmark, spec, mpl, salt):
    """A shape-identical stand-in for a real sweep record."""
    return SweepRecord(
        benchmark=benchmark,
        family=spec.family,
        cw_nominal=spec.cw_nominal,
        model=spec.model.value,
        analyzer=spec.analyzer_label(),
        anchor=spec.anchor.value,
        resize=spec.resize.value,
        mpl_nominal=mpl,
        score=round(salt / 97.0, 6),
        correlation=round(salt / 194.0, 6),
        sensitivity=round(salt / 97.0, 6),
        false_positives=float(salt % 7),
        corrected_score=round(salt / 130.0, 6),
        num_detected_phases=salt % 11,
        num_baseline_phases=7,
    )


def chunker_of(size):
    def chunker(items):
        return [list(items[i : i + size]) for i in range(0, len(items), size)]

    return chunker


def make_plan(chunk_size=2, specs=None, benchmarks=None):
    specs = SPECS if specs is None else specs
    benchmarks = BENCHMARKS if benchmarks is None else benchmarks
    work = [(name, specs) for name in benchmarks]
    return plan_chunks(work, FINGERPRINTS, PROFILE, MPLS, chunker_of(chunk_size))


def chunk_records(chunk):
    """Deterministic synthetic records for one planned chunk."""
    return [
        synthetic_record(
            chunk.benchmark, spec, mpl,
            (chunk.index * 1_009 + position * 17 + mpl) % 97,
        )
        for position, spec in enumerate(chunk.specs)
        for mpl in chunk.mpl_nominals
    ]


def chunk_lines(chunk):
    fingerprint = FINGERPRINTS[chunk.benchmark]
    return [cache_line(record, fingerprint) for record in chunk_records(chunk)]


def write_chunk(store, chunk):
    store.write(
        chunk.key,
        benchmark=chunk.benchmark,
        fingerprint=chunk.fingerprint,
        configs=len(chunk.specs),
        lines=chunk_lines(chunk),
    )


def serial_bytes(planned):
    """What a serial sweep would append for ``planned``, in plan order."""
    return "".join("".join(chunk_lines(chunk)) for chunk in planned).encode("utf-8")


class TestKeys:
    def test_chunk_key_deterministic(self):
        a = chunk_key(PROFILE, "db", "fp-db", SPECS, MPLS)
        b = chunk_key(PROFILE, "db", "fp-db", list(SPECS), tuple(MPLS))
        assert a == b
        assert len(a) == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"profile_name": "other"},
            {"benchmark": "jess"},
            {"fingerprint": "fp-other"},
            {"specs": SPECS[:3]},
            {"specs": SPECS[::-1]},
            {"mpl_nominals": (1_000,)},
        ],
    )
    def test_chunk_key_sensitive_to_every_input(self, kwargs):
        base = dict(
            profile_name=PROFILE, benchmark="db", fingerprint="fp-db",
            specs=SPECS, mpl_nominals=MPLS,
        )
        assert chunk_key(**base) != chunk_key(**{**base, **kwargs})

    def test_spec_chunk_hash_order_sensitive(self):
        assert spec_chunk_hash(SPECS) != spec_chunk_hash(SPECS[::-1])


class TestPlan:
    def test_plan_is_deterministic(self):
        assert make_plan() == make_plan()

    def test_plan_order_and_payload(self):
        planned = make_plan(chunk_size=4)
        assert [c.index for c in planned] == list(range(len(planned)))
        assert [c.benchmark for c in planned] == ["db", "db", "jess", "jess"]
        for chunk in planned:
            assert chunk.fingerprint == FINGERPRINTS[chunk.benchmark]
            assert chunk.mpl_nominals == MPLS
        # Concatenating the spec slices reproduces the grid.
        db_specs = [s for c in planned if c.benchmark == "db" for s in c.specs]
        assert db_specs == SPECS

    def test_chunk_cells_match_written_rows(self):
        chunk = make_plan(chunk_size=3)[0]
        from_rows = {
            tuple(
                json.loads(line)[field]
                for field in ("benchmark", "fingerprint", "family", "cw_nominal",
                              "model", "analyzer", "anchor", "resize", "mpl_nominal")
            )
            for line in chunk_lines(chunk)
        }
        assert chunk_cells(chunk) == from_rows


class TestChunkFile:
    def test_write_read_round_trip(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        chunk = make_plan()[0]
        write_chunk(store, chunk)
        header, lines = store.read(chunk.key)
        assert header["key"] == chunk.key
        assert header["benchmark"] == chunk.benchmark
        assert header["rows"] == len(lines)
        assert lines == chunk_lines(chunk)
        assert store.has(chunk.key)
        assert store.keys() == {chunk.key}

    def test_torn_chunk_reads_as_missing(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        chunk = make_plan()[0]
        write_chunk(store, chunk)
        path = store.chunk_path(chunk.key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])  # torn tail
        assert store.read(chunk.key) is None
        assert not store.has(chunk.key)

    def test_wrong_key_header_rejected(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        a, b = make_plan()[:2]
        write_chunk(store, a)
        store.chunk_path(a.key).rename(store.chunk_path(b.key))
        assert store.read(b.key) is None

    def test_missing_lists_resume_set(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        planned = make_plan()
        for chunk in planned[::2]:
            write_chunk(store, chunk)
        assert store.missing(planned) == planned[1::2]


class TestLeases:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        assert store.claim("k1")
        assert not store.claim("k1")
        store.release("k1")
        assert store.claim("k1")

    def test_expired_lease_is_stolen(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        assert store.claim("k1", ttl=0.0)
        assert store.claim("k1", ttl=0.0)  # 0-TTL lease is instantly stale

    def test_unexpired_lease_blocks_steal(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        assert store.claim("k1", ttl=60.0)
        assert not store.claim("k1", ttl=0.0)  # steal honors holder's TTL

    def test_unreadable_lease_treated_as_expired(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        store.root.mkdir(parents=True, exist_ok=True)
        store.lease_path("k1").write_text("torn{", encoding="utf-8")
        assert store.claim("k1")

    def test_claim_race_single_winner(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        wins = []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            if store.claim("k1", ttl=60.0):
                wins.append(1)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_lock_is_mutually_exclusive(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        active = []
        overlaps = []

        def hold():
            with store.lock("compact", ttl=60.0):
                active.append(1)
                overlaps.append(len(active))
                active.pop()

        threads = [threading.Thread(target=hold) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert overlaps == [1, 1, 1, 1]


class TestCompaction:
    def test_out_of_order_writes_compact_byte_identical(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        planned = make_plan()
        for chunk in planned[::-1]:  # written in reverse completion order
            write_chunk(store, chunk)
        cache = tmp_path / "cache.jsonl"
        summary = compact_chunks(store, planned, cache)
        assert summary["folded"] == len(planned)
        assert cache.read_bytes() == serial_bytes(planned)

    def test_compaction_appends_after_existing_rows(self, tmp_path):
        # A resumed sweep folds only what a previous serial run did not
        # already append.
        store = ChunkStore(tmp_path, PROFILE)
        planned = make_plan()
        head, tail = planned[:1], planned[1:]
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(serial_bytes(head))
        for chunk in planned:
            write_chunk(store, chunk)
        summary = compact_chunks(store, planned, cache)
        assert summary["folded"] == len(tail)
        assert summary["skipped"] == len(head)
        assert cache.read_bytes() == serial_bytes(planned)

    def test_double_compaction_is_idempotent(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        planned = make_plan()
        for chunk in planned:
            write_chunk(store, chunk)
        cache = tmp_path / "cache.jsonl"
        compact_chunks(store, planned, cache)
        before = cache.read_bytes()
        # Chunk files are gc'd; the second compactor recognizes every
        # chunk as already folded from its plan-derived cells alone.
        summary = compact_chunks(store, planned, cache)
        assert summary["folded"] == 0
        assert summary["skipped"] == len(planned)
        assert cache.read_bytes() == before

    def test_gc_removes_store_root(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        planned = make_plan()
        for chunk in planned:
            write_chunk(store, chunk)
        compact_chunks(store, planned, tmp_path / "cache.jsonl")
        assert not store.root.exists()

    def test_missing_unfolded_chunk_raises(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        planned = make_plan()
        for chunk in planned[:-1]:
            write_chunk(store, chunk)
        with pytest.raises(StoreError):
            compact_chunks(store, planned, tmp_path / "cache.jsonl")

    def test_chunk_folded_distinguishes_gcd_from_unwritten(self, tmp_path):
        planned = make_plan()
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(serial_bytes(planned[:1]))
        assert chunk_folded(planned[0], cache)
        assert not chunk_folded(planned[1], cache)


def _db(tmp_path):
    return ResultDB(tmp_path / "results.sqlite")


def _write_cache(tmp_path, planned):
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(serial_bytes(planned))
    return cache


class TestResultDB:
    def test_sync_round_trips_records(self, tmp_path):
        planned = make_plan()
        cache = _write_cache(tmp_path, planned)
        with _db(tmp_path) as db:
            assert db.sync_from_cache(cache, PROFILE) == sum(
                len(c.specs) * len(MPLS) for c in planned
            )
            loaded = db.load_records(PROFILE)
        expected = [r for c in planned for r in chunk_records(c)]
        assert loaded == expected

    def test_incremental_sync_reads_only_the_tail(self, tmp_path):
        planned = make_plan()
        cache = _write_cache(tmp_path, planned[:2])
        with _db(tmp_path) as db:
            first = db.sync_from_cache(cache, PROFILE)
            with cache.open("ab") as handle:
                handle.write(serial_bytes(planned[2:]))
            second = db.sync_from_cache(cache, PROFILE)
            assert (first, second) == (
                sum(len(c.specs) * len(MPLS) for c in planned[:2]),
                sum(len(c.specs) * len(MPLS) for c in planned[2:]),
            )
            assert db.load_records(PROFILE) == [
                r for c in planned for r in chunk_records(c)
            ]

    def test_last_row_wins_like_the_cache(self, tmp_path):
        planned = make_plan()
        cache = _write_cache(tmp_path, planned)
        rewrite = synthetic_record("db", SPECS[0], MPLS[0], salt=96)
        with cache.open("a", encoding="utf-8") as handle:
            handle.write(cache_line(rewrite, FINGERPRINTS["db"]))
        with _db(tmp_path) as db:
            db.sync_from_cache(cache, PROFILE)
            loaded = db.load_records(PROFILE)
        match = [r for r in loaded if r.benchmark == "db"
                 and r.family == SPECS[0].family
                 and r.cw_nominal == SPECS[0].cw_nominal
                 and r.model == SPECS[0].model.value
                 and r.analyzer == SPECS[0].analyzer_label()
                 and r.mpl_nominal == MPLS[0]]
        assert match == [rewrite]

    def test_torn_tail_is_deferred_to_next_sync(self, tmp_path):
        planned = make_plan()
        cache = _write_cache(tmp_path, planned)
        with cache.open("ab") as handle:
            handle.write(b'{"benchmark": "db", "truncat')  # append in progress
        with _db(tmp_path) as db:
            full_rows = db.sync_from_cache(cache, PROFILE)
            assert full_rows == sum(len(c.specs) * len(MPLS) for c in planned)
            # Finishing the line later ingests it (offset stopped short).
            rewrite = synthetic_record("db", SPECS[0], MPLS[0], salt=42)
            cache.write_bytes(
                serial_bytes(planned)
                + cache_line(rewrite, FINGERPRINTS["db"]).encode("utf-8")
            )
            assert db.sync_from_cache(cache, PROFILE) == 1

    def test_shrunken_cache_triggers_full_rebuild(self, tmp_path):
        planned = make_plan()
        cache = _write_cache(tmp_path, planned)
        with _db(tmp_path) as db:
            db.sync_from_cache(cache, PROFILE)
            cache.write_bytes(serial_bytes(planned[:1]))  # rebuilt smaller
            db.sync_from_cache(cache, PROFILE)
            assert db.load_records(PROFILE) == chunk_records(planned[0])

    def test_best_scores_matches_python_aggregation(self, tmp_path):
        planned = make_plan()
        cache = _write_cache(tmp_path, planned)
        records = [r for c in planned for r in chunk_records(c)]
        with _db(tmp_path) as db:
            db.sync_from_cache(cache, PROFILE)
            columns, rows = db.best_scores(PROFILE, by=("family", "benchmark"))
        assert columns == ["family", "benchmark", "best_score", "records"]
        expected = aggregate.best_by(records, key=lambda r: (r.family, r.benchmark))
        assert {tuple(row[:2]): row[2] for row in rows} == expected

    def test_best_scores_where_filters(self, tmp_path):
        planned = make_plan()
        cache = _write_cache(tmp_path, planned)
        records = [r for c in planned for r in chunk_records(c)]
        with _db(tmp_path) as db:
            db.sync_from_cache(cache, PROFILE)
            _, rows = db.best_scores(
                PROFILE, by=("benchmark",), metric="corrected_score",
                where={"mpl_nominal": MPLS[0], "family": "constant"},
            )
        expected = aggregate.best_by(
            records,
            key=lambda r: (r.benchmark,),
            where=lambda r: r.mpl_nominal == MPLS[0] and r.family == "constant",
            value=lambda r: r.corrected_score,
        )
        assert {(row[0],): row[1] for row in rows} == expected

    def test_unknown_dimension_metric_and_filter_rejected(self, tmp_path):
        with _db(tmp_path) as db:
            with pytest.raises(ValueError):
                db.best_scores(PROFILE, by=("no_such_column",))
            with pytest.raises(ValueError):
                db.best_scores(PROFILE, metric="seq")
            with pytest.raises(ValueError):
                db.best_scores(PROFILE, where={"profile": "x"})

    def test_record_run_and_readonly_sql(self, tmp_path):
        with _db(tmp_path) as db:
            db.record_run(PROFILE, "grid-abc", jobs=4, elapsed_seconds=1.5,
                          records_evaluated=10, records_total=24)
            runs = db.runs()
            path = db.path
        assert len(runs) == 1
        assert runs[0]["grid_fingerprint"] == "grid-abc"
        assert runs[0]["jobs"] == 4
        conn = open_readonly(path)
        try:
            assert conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0] == 1
            with pytest.raises(Exception):
                conn.execute("INSERT INTO meta VALUES ('x', 'y')")
        finally:
            conn.close()

    def test_compaction_syncs_db_inline(self, tmp_path):
        store = ChunkStore(tmp_path, PROFILE)
        planned = make_plan()
        for chunk in planned:
            write_chunk(store, chunk)
        cache = tmp_path / "cache.jsonl"
        with _db(tmp_path) as db:
            compact_chunks(store, planned, cache, db=db)
            assert db.load_records(PROFILE) == [
                r for c in planned for r in chunk_records(c)
            ]


TINY = SuiteProfile(
    name="tiny",
    workload_scale=0.08,
    thresholds=(0.6,),
    deltas=(0.05,),
    cw_nominals=(500, 5_000),
)

SWEEP_SPECS = SPECS[:4]
CACHE_NAME = "sweep-tiny.jsonl"


class TestEndToEndStore:
    def _serial_bytes(self, tmp_path):
        serial_dir = tmp_path / "serial"
        sweep = Sweep(TINY, cache_dir=serial_dir, benchmarks=BENCHMARKS,
                      mpl_nominals=MPLS)
        records = sweep.ensure(SWEEP_SPECS, jobs=1, manifest=False)
        return records, (serial_dir / CACHE_NAME).read_bytes()

    def test_store_sweep_cache_matches_serial_bytes(self, tmp_path):
        serial_records, ref = self._serial_bytes(tmp_path)
        store_dir = tmp_path / "store"
        sweep = Sweep(TINY, cache_dir=store_dir, benchmarks=BENCHMARKS,
                      mpl_nominals=MPLS)
        records = sweep.ensure(SWEEP_SPECS, jobs=2, manifest=False)
        assert (store_dir / CACHE_NAME).read_bytes() == ref
        assert records == serial_records
        assert not (store_dir / "sweep-tiny.chunks").exists()
        # The result database was synced during the same ensure().
        with ResultDB(sweep.db_path) as db:
            assert db.load_records(TINY.name) == serial_records
            assert len(db.runs()) == 1

    def test_interrupted_sweep_resumes_exactly_the_missing_chunks(self, tmp_path):
        _, ref = self._serial_bytes(tmp_path)
        kill_dir = tmp_path / "kill"
        work = [(name, SWEEP_SPECS) for name in BENCHMARKS]
        sweep = Sweep(TINY, cache_dir=kill_dir, benchmarks=BENCHMARKS,
                      mpl_nominals=MPLS)
        fingerprints = {name: sweep._fingerprint(name) for name in BENCHMARKS}

        class Abort(Exception):
            pass

        def abort_after_first(chunk, kind):
            raise Abort

        executor = ParallelSweepExecutor(TINY, kill_dir, MPLS, jobs=2,
                                         chunk_size=2)
        store = ChunkStore(kill_dir, TINY.name)
        with pytest.raises(Abort):
            executor.run_store(work, store, fingerprints,
                               on_chunk_done=abort_after_first, lease_ttl=0.2)
        survivors = store.keys()
        assert survivors  # at least the chunk that triggered the abort

        resume = ParallelSweepExecutor(TINY, kill_dir, MPLS, jobs=2,
                                       chunk_size=2)
        store2 = ChunkStore(kill_dir, TINY.name)
        stats = resume.run_store(work, store2, fingerprints, lease_ttl=0.2)
        planned_keys = {chunk.key for chunk in resume.planned}
        assert stats["reused"] == len(survivors & planned_keys)
        # Exactly the missing chunks were evaluated — by pool or steal.
        assert stats["evaluated"] == len(planned_keys - survivors)
        compact_chunks(store2, resume.planned, kill_dir / CACHE_NAME)
        assert (kill_dir / CACHE_NAME).read_bytes() == ref

    def test_two_executors_share_one_results_dir(self, tmp_path):
        _, ref = self._serial_bytes(tmp_path)
        shared = tmp_path / "shared"
        results = {}
        errors = {}

        def run(tag):
            try:
                sweep = Sweep(TINY, cache_dir=shared, benchmarks=BENCHMARKS,
                              mpl_nominals=MPLS)
                sweep.ensure(SWEEP_SPECS, jobs=2, manifest=False)
                results[tag] = dict(sweep._last_chunk_stats)
            except Exception as exc:  # noqa: BLE001 - re-raised via assert
                errors[tag] = exc

        threads = [threading.Thread(target=run, args=(tag,)) for tag in "AB"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        planned = results["A"]["planned"]
        for stats in results.values():
            assert stats["planned"] == planned
            covered = stats["evaluated"] + stats["reused"] + stats["external"]
            assert covered >= planned
        # No lost chunk: the shared cache is byte-identical to serial.
        assert (shared / CACHE_NAME).read_bytes() == ref

    def test_figures_from_db_match_figures_from_records(self, tmp_path):
        from repro.experiments.generate import render_from_records

        store_dir = tmp_path / "store"
        sweep = Sweep(TINY, cache_dir=store_dir, benchmarks=BENCHMARKS,
                      mpl_nominals=MPLS)
        records = sweep.ensure(SWEEP_SPECS, jobs=2, manifest=False)
        direct = render_from_records(records, BENCHMARKS, TINY)
        with ResultDB(sweep.db_path) as db:
            loaded = db.load_records(TINY.name)
            benchmarks = db.benchmarks(TINY.name)
        assert sorted(benchmarks) == sorted(BENCHMARKS)
        assert render_from_records(loaded, benchmarks, TINY) == direct
