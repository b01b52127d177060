"""Sweep harness tests: evaluation, caching, invalidation."""

import json

import pytest

from repro.core.config import AnalyzerKind, ModelKind
from repro.experiments.config_space import ConfigSpec, SuiteProfile
from repro.experiments.runner import BaselineSet, evaluate_bank
from repro.experiments.sweep import Sweep
from repro.workloads import load_traces
from tests.experiments.solo import solo_records

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
]

MPLS = (1_000, 10_000)


@pytest.fixture
def sweep(tmp_path):
    return Sweep(TINY, cache_dir=tmp_path, benchmarks=["db"], mpl_nominals=MPLS)


class TestEvaluateSpec:
    def test_records_per_mpl(self, tmp_path):
        branch, call_loop = load_traces("db", scale=TINY.workload_scale, cache_dir=tmp_path)
        baselines = BaselineSet(call_loop, TINY, MPLS, name="db")
        records = solo_records(branch, baselines, SPECS[0], TINY)
        assert evaluate_bank(branch, baselines, SPECS[:1], TINY) == records
        assert len(records) == len(MPLS)
        for record in records:
            assert record.benchmark == "db"
            assert 0.0 <= record.score <= 1.0
            assert 0.0 <= record.correlation <= 1.0
            assert 0.0 <= record.corrected_score <= 1.0

    def test_record_round_trip(self, tmp_path):
        branch, call_loop = load_traces("db", scale=TINY.workload_scale, cache_dir=tmp_path)
        baselines = BaselineSet(call_loop, TINY, MPLS, name="db")
        record = evaluate_bank(branch, baselines, SPECS[:1], TINY)[0]
        from repro.experiments.runner import SweepRecord

        assert SweepRecord.from_row(record.to_row()) == record


class TestSweepCache:
    def test_ensure_computes_and_returns(self, sweep):
        records = sweep.ensure(SPECS)
        assert len(records) == len(SPECS) * len(MPLS)

    def test_cache_file_written(self, sweep, tmp_path):
        sweep.ensure(SPECS)
        cache = tmp_path / "sweep-tiny.jsonl"
        assert cache.exists()
        lines = [json.loads(l) for l in cache.read_text().splitlines() if l.strip()]
        assert len(lines) == len(SPECS) * len(MPLS)
        assert all("fingerprint" in row for row in lines)

    def test_warm_cache_skips_evaluation(self, sweep, tmp_path):
        sweep.ensure(SPECS)
        # A fresh Sweep over the same cache dir must not recompute:
        # corrupt nothing, just verify the records load.
        fresh = Sweep(TINY, cache_dir=tmp_path, benchmarks=["db"], mpl_nominals=MPLS)
        assert len(fresh.records()) == len(SPECS) * len(MPLS)
        records = fresh.ensure(SPECS)
        assert len(records) == len(SPECS) * len(MPLS)

    def test_stale_fingerprint_discarded(self, sweep, tmp_path):
        sweep.ensure(SPECS)
        cache = tmp_path / "sweep-tiny.jsonl"
        rows = [json.loads(l) for l in cache.read_text().splitlines()]
        for row in rows:
            row["fingerprint"] = "stale"
        cache.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        fresh = Sweep(TINY, cache_dir=tmp_path, benchmarks=["db"], mpl_nominals=MPLS)
        assert fresh.records() == []

    def test_torn_tail_tolerated(self, sweep, tmp_path):
        sweep.ensure(SPECS)
        cache = tmp_path / "sweep-tiny.jsonl"
        with cache.open("a") as handle:
            handle.write('{"benchmark": "db", "truncat')
        fresh = Sweep(TINY, cache_dir=tmp_path, benchmarks=["db"], mpl_nominals=MPLS)
        assert len(fresh.records()) == len(SPECS) * len(MPLS)

    def test_baselines_lazy_and_cached(self, sweep):
        first = sweep.baselines("db")
        second = sweep.baselines("db")
        assert first is second
        assert set(first.mpl_nominals) == set(MPLS)


class TestRunManifest:
    def test_ensure_writes_manifest(self, sweep, tmp_path):
        from repro.obs.manifest import load_manifest

        sweep.ensure(SPECS)
        manifest = load_manifest(tmp_path / "sweep-tiny.manifest.json")
        assert manifest["profile"] == "tiny"
        assert manifest["benchmarks"] == ["db"]
        assert manifest["jobs"] == 1
        assert manifest["records"]["evaluated"] == len(SPECS) * len(MPLS)
        assert manifest["records"]["total"] == len(SPECS) * len(MPLS)
        assert manifest["fingerprints"].keys() == {"db"}
        assert manifest["environment"]["python"]
        counters = manifest["metrics"]["counters"]
        assert counters["sweep.records_evaluated"] == len(SPECS) * len(MPLS)

    def test_manifest_can_be_suppressed(self, sweep, tmp_path):
        sweep.ensure(SPECS, manifest=False)
        assert not (tmp_path / "sweep-tiny.manifest.json").exists()

    def test_parallel_manifest_worker_invariant(self, tmp_path):
        from repro.obs.manifest import load_manifest, summarize_manifest

        sweep = Sweep(TINY, cache_dir=tmp_path, benchmarks=["db", "jlex"],
                      mpl_nominals=MPLS)
        sweep.ensure(SPECS, jobs=2)
        manifest = load_manifest(sweep.manifest_path)
        workers = manifest["workers"]
        assert workers, "parallel run must record per-worker accounting"
        assert sum(w["records"] for w in workers) == (
            manifest["records"]["evaluated"]
        )
        summary = summarize_manifest(manifest)
        assert "account for" in summary
        assert "DO NOT" not in summary

    def test_warm_rerun_manifest_reports_zero_evaluated(self, sweep, tmp_path):
        from repro.obs.manifest import load_manifest

        sweep.ensure(SPECS)
        fresh = Sweep(TINY, cache_dir=tmp_path, benchmarks=["db"],
                      mpl_nominals=MPLS)
        fresh.ensure(SPECS)
        manifest = load_manifest(fresh.manifest_path)
        assert manifest["records"]["evaluated"] == 0
        assert manifest["records"]["total"] == len(SPECS) * len(MPLS)
        counters = manifest["metrics"]["counters"]
        assert counters["sweep.cache_rows_loaded"] == len(SPECS) * len(MPLS)

    def test_grid_fingerprint_stability(self):
        from repro.experiments.sweep import grid_fingerprint

        first = grid_fingerprint(SPECS, MPLS)
        assert first == grid_fingerprint(list(SPECS), list(MPLS))
        assert first != grid_fingerprint(SPECS[:1], MPLS)
        assert first != grid_fingerprint(SPECS, (1_000,))
