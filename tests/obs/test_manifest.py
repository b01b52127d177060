"""Run manifests: build, atomic write, load, summary, and diff."""

import json

import pytest

from repro.obs.manifest import (
    MANIFEST_VERSION,
    build_manifest,
    diff_manifests,
    load_manifest,
    manifest_path_for,
    summarize_manifest,
    write_manifest,
)


def sample_manifest(**overrides):
    base = dict(
        profile="quick",
        benchmarks=["db", "jlex"],
        fingerprints={"db": "aaa", "jlex": "bbb"},
        grid_fingerprint="deadbeef0123",
        mpl_nominals=[10_000],
        jobs=2,
        elapsed_seconds=12.5,
        records_evaluated=540,
        records_total=540,
        workers=[
            {"pid": 11, "chunks": 3, "configs": 20, "records": 300,
             "wall_seconds": 6.0, "peak_bytes": None},
            {"pid": 12, "chunks": 2, "configs": 16, "records": 240,
             "wall_seconds": 5.5, "peak_bytes": 2048},
        ],
        metrics={"counters": {"io.trace_reads": 4}, "gauges": {},
                 "timings": {"sweep.load_suite_seconds":
                             {"count": 2, "total": 11.5,
                              "min": 5.5, "max": 6.0}}},
        chunk_profiles=[{"label": "db:chunk-0", "wall_seconds": 0.5,
                         "peak_bytes": 4096}],
    )
    base.update(overrides)
    return build_manifest(**base)


class TestBuildAndPersist:
    def test_path_derivation(self, tmp_path):
        cache = tmp_path / "sweep-default.jsonl"
        assert manifest_path_for(cache) == tmp_path / "sweep-default.manifest.json"

    def test_round_trip(self, tmp_path):
        manifest = sample_manifest()
        path = write_manifest(manifest, tmp_path / "run.manifest.json")
        assert load_manifest(path) == manifest
        assert manifest["version"] == MANIFEST_VERSION

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = write_manifest(sample_manifest(), tmp_path / "m.json")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "not.json"
        path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a run manifest"):
            load_manifest(path)

    def test_load_rejects_newer_version(self, tmp_path):
        manifest = sample_manifest()
        manifest["version"] = MANIFEST_VERSION + 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="newer"):
            load_manifest(path)

    def test_manifest_is_json_safe(self):
        manifest = sample_manifest()
        assert json.loads(json.dumps(manifest)) == manifest


class TestSummary:
    def test_summary_confirms_worker_invariant(self):
        text = summarize_manifest(sample_manifest())
        assert "profile 'quick'" in text
        assert "worker records account for all 540 evaluated records" in text
        assert "io.trace_reads = 4" in text
        assert "db:chunk-0" in text

    def test_summary_flags_broken_invariant(self):
        manifest = sample_manifest(records_evaluated=999)
        text = summarize_manifest(manifest)
        assert "DO NOT ACCOUNT FOR" in text

    def test_summary_without_workers_or_profiles(self):
        manifest = sample_manifest(workers=[], chunk_profiles=None)
        text = summarize_manifest(manifest)
        assert "workers:" not in text
        assert "chunk profiles:" not in text


class TestDiff:
    def test_identical_manifests_diff_clean(self):
        manifest = sample_manifest()
        assert "(no differences)" in diff_manifests(manifest, manifest)

    def test_diff_reports_changed_fields(self):
        old = sample_manifest()
        new = sample_manifest(
            jobs=4,
            records_evaluated=600,
            fingerprints={"db": "aaa", "jlex": "ccc"},
            metrics={"counters": {"io.trace_reads": 9}, "gauges": {},
                     "timings": {}},
        )
        text = diff_manifests(old, new)
        assert "jobs: 2 -> 4" in text
        assert "records.evaluated: 540 -> 600" in text
        assert "counter io.trace_reads: 4 -> 9" in text
        assert "fingerprint jlex: bbb -> ccc" in text
