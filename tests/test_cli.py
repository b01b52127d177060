"""CLI tests (run each subcommand in-process)."""

import copy
import json

import pytest

from repro.cli import main

SCALE = "0.1"


@pytest.fixture
def traced(tmp_path):
    assert main(["trace", "db", "--scale", SCALE, "--out", str(tmp_path)]) == 0
    return tmp_path


class TestTrace:
    def test_writes_both_files(self, traced, capsys):
        assert (traced / "db.btrace").exists()
        assert (traced / "db.cloop").exists()

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "nonexistent"])


class TestOracle:
    def test_prints_phases(self, traced, capsys):
        capsys.readouterr()
        assert main(["oracle", str(traced / "db.cloop"), "--mpl", "40"]) == 0
        out = capsys.readouterr().out
        assert "phases" in out
        assert "MPL=40" in out

    def test_limit_zero_prints_all(self, traced, capsys):
        capsys.readouterr()
        main(["oracle", str(traced / "db.cloop"), "--mpl", "40", "--limit", "0"])
        out = capsys.readouterr().out
        assert "more" not in out


class TestDetect:
    def test_prints_detected_phases(self, traced, capsys):
        capsys.readouterr()
        code = main(
            ["detect", str(traced / "db.btrace"), "--cw", "30", "--threshold", "0.6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detector:" in out
        assert "phases over" in out

    def test_adaptive_options(self, traced, capsys):
        capsys.readouterr()
        code = main(
            [
                "detect", str(traced / "db.btrace"),
                "--cw", "30", "--trailing", "adaptive",
                "--anchor", "lnn", "--resize", "move",
                "--model", "weighted", "--analyzer", "average", "--delta", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive[lnn,move]" in out


class TestDetectCheckpoint:
    def _detect_args(self, traced):
        return ["detect", str(traced / "db.btrace"), "--cw", "30",
                "--threshold", "0.6"]

    def _phases_output(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if line.startswith("  [")]

    def test_checkpoint_then_resume_matches_full_run(self, traced, capsys, tmp_path):
        full_phases = self._phases_output(capsys, self._detect_args(traced))
        ckpt = tmp_path / "ckpt.json"
        capsys.readouterr()
        code = main(self._detect_args(traced)
                    + ["--checkpoint", str(ckpt), "--checkpoint-at", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint after" in out
        assert "resume with:" in out
        assert ckpt.exists()
        capsys.readouterr()
        code = main(["detect", str(traced / "db.btrace"), "--resume", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed at element" in out
        resumed_phases = [l for l in out.splitlines() if l.startswith("  [")]
        assert resumed_phases == full_phases

    def test_checkpoint_at_required_and_bounded(self, traced, capsys, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        args = self._detect_args(traced) + ["--checkpoint", str(ckpt)]
        assert main(args) == 1
        assert "--checkpoint-at" in capsys.readouterr().err
        assert main(args + ["--checkpoint-at", "99999999"]) == 1

    def test_resume_rejects_garbage_file(self, traced, capsys, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        assert main(self._detect_args(traced)
                    + ["--checkpoint", str(ckpt), "--checkpoint-at", "400"]) == 0
        real = json.loads(ckpt.read_text())
        no_cw = copy.deepcopy(real)
        del no_cw["config"]["cw_size"]
        bad_states = copy.deepcopy(real)
        bad_states["stream"]["states"] = "not base64!"
        bad = tmp_path / "bad.json"
        for document in ({"format": "nope"}, no_cw, bad_states):
            bad.write_text(json.dumps(document))
            capsys.readouterr()
            assert main(["detect", str(traced / "db.btrace"),
                         "--resume", str(bad)]) == 1
            assert "cannot resume" in capsys.readouterr().err

    def test_resume_and_checkpoint_mutually_exclusive(self, traced, capsys, tmp_path):
        capsys.readouterr()
        code = main(self._detect_args(traced)
                    + ["--checkpoint", str(tmp_path / "c.json"),
                       "--checkpoint-at", "400",
                       "--resume", str(tmp_path / "c.json")])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cw_required_without_resume(self, traced, capsys):
        capsys.readouterr()
        assert main(["detect", str(traced / "db.btrace")]) == 1
        assert "--cw is required" in capsys.readouterr().err


class TestBank:
    def test_bank_matches_sequential(self, traced, capsys):
        capsys.readouterr()
        code = main(["bank", str(traced / "db.btrace"), "--cw", "30",
                     "--threshold", "0.6", "--size", "6", "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bank benchmark: 6 configs" in out
        assert "results identical: True" in out
        assert "speedup:" in out


class TestScore:
    def test_score_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        # Reload DEFAULT_CACHE_DIR indirection: load_traces takes cache_dir
        # from the suite module constant, so pass scale matching fixture.
        capsys.readouterr()
        code = main(
            ["score", "db", "--scale", SCALE, "--mpl", "40", "--cw", "20",
             "--threshold", "0.6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score=" in out
        assert "anchor-corrected" in out


class TestCharacteristics:
    def test_table_printed(self, capsys):
        capsys.readouterr()
        assert main(["characteristics", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "Benchmark Characteristics" in out
        for name in ("compress", "jlex"):
            assert name in out


class TestProfile:
    def test_hot_branch_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        capsys.readouterr()
        assert main(["profile", "db", "--scale", SCALE, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "dynamic branches" in out
        assert "@" in out


class TestSweep:
    def _tiny_profile(self, monkeypatch):
        from repro.experiments import config_space

        tiny = config_space.SuiteProfile(
            name="tinycli",
            workload_scale=0.08,
            thresholds=(0.6,),
            deltas=(0.05,),
            cw_nominals=(500,),
        )
        monkeypatch.setitem(config_space.PROFILES, "tinycli", tiny)
        return tiny

    def test_parallel_sweep_writes_cache(self, capsys, tmp_path, monkeypatch):
        self._tiny_profile(monkeypatch)
        capsys.readouterr()
        code = main(
            ["sweep", "--profile", "tinycli", "--jobs", "2",
             "--benchmarks", "db", "--cache-dir", str(tmp_path), "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep 'tinycli'" in out
        assert "jobs=2" in out
        assert (tmp_path / "sweep-tinycli.jsonl").exists()

    def test_warm_rerun_is_lookup(self, capsys, tmp_path, monkeypatch):
        self._tiny_profile(monkeypatch)
        argv = ["sweep", "--profile", "tinycli", "--benchmarks", "db",
                "--cache-dir", str(tmp_path), "--quiet"]
        assert main(argv + ["--jobs", "2"]) == 0
        cache_bytes = (tmp_path / "sweep-tinycli.jsonl").read_bytes()
        capsys.readouterr()
        assert main(argv + ["--jobs", "1"]) == 0
        # Fully warm: nothing recomputed, cache untouched.
        assert (tmp_path / "sweep-tinycli.jsonl").read_bytes() == cache_bytes

    def test_sweep_writes_manifest(self, capsys, tmp_path, monkeypatch):
        self._tiny_profile(monkeypatch)
        capsys.readouterr()
        code = main(
            ["sweep", "--profile", "tinycli", "--jobs", "2",
             "--benchmarks", "db", "--cache-dir", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert "manifest:" in capsys.readouterr().out
        assert (tmp_path / "sweep-tinycli.manifest.json").exists()


class TestObs:
    def _warm_sweep(self, tmp_path, monkeypatch):
        TestSweep()._tiny_profile(monkeypatch)
        main(["sweep", "--profile", "tinycli", "--jobs", "2",
              "--benchmarks", "db", "--cache-dir", str(tmp_path), "--quiet"])
        return tmp_path / "sweep-tinycli.manifest.json"

    def test_summary_renders_manifest(self, capsys, tmp_path, monkeypatch):
        manifest_path = self._warm_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["obs", "summary", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep manifest: profile 'tinycli'" in out
        assert "worker records account for all" in out

    def test_summary_accepts_cache_path(self, capsys, tmp_path, monkeypatch):
        manifest_path = self._warm_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["obs", "summary",
                     str(tmp_path / "sweep-tinycli.jsonl")]) == 0
        assert "tinycli" in capsys.readouterr().out
        assert manifest_path.exists()

    def test_summary_missing_manifest_fails(self, capsys, tmp_path):
        capsys.readouterr()
        code = main(["obs", "summary", str(tmp_path / "absent.manifest.json")])
        assert code == 1
        assert "no run manifest" in capsys.readouterr().err

    def test_diff_of_identical_manifests(self, capsys, tmp_path, monkeypatch):
        manifest_path = self._warm_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["obs", "diff", str(manifest_path), str(manifest_path)]) == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_tail_prints_last_events(self, traced, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        main(["detect", str(traced / "db.btrace"), "--cw", "30",
              "--threshold", "0.6", "--events", str(events)])
        capsys.readouterr()
        assert main(["obs", "tail", str(events), "-n", "2", "--validate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert '"ev":"run_end"' in lines[-1]


class TestEvents:
    def test_detect_records_event_stream(self, traced, capsys, tmp_path):
        import json

        events = tmp_path / "events.jsonl"
        capsys.readouterr()
        code = main(["detect", str(traced / "db.btrace"), "--cw", "30",
                     "--threshold", "0.6", "--events", str(events)])
        assert code == 0
        assert "events:" in capsys.readouterr().out
        lines = events.read_text().splitlines()
        assert json.loads(lines[0])["ev"] == "run_begin"
        assert json.loads(lines[-1])["ev"] == "run_end"

    def test_score_records_event_stream(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        events = tmp_path / "events.jsonl"
        capsys.readouterr()
        code = main(["score", "db", "--scale", SCALE, "--mpl", "40",
                     "--cw", "20", "--threshold", "0.6",
                     "--events", str(events)])
        assert code == 0
        assert events.exists()


class TestResults:
    def _warm_store_sweep(self, tmp_path, monkeypatch):
        TestSweep()._tiny_profile(monkeypatch)
        main(["sweep", "--profile", "tinycli", "--jobs", "2",
              "--benchmarks", "db", "--cache-dir", str(tmp_path), "--quiet"])
        return tmp_path / "sweep-tinycli.sqlite"

    def test_sweep_announces_result_db(self, capsys, tmp_path, monkeypatch):
        db_path = self._warm_store_sweep(tmp_path, monkeypatch)
        assert db_path.exists()
        assert "results db:" in capsys.readouterr().out

    def test_query_best_scores(self, capsys, tmp_path, monkeypatch):
        self._warm_store_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        code = main(["results", "query", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path),
                     "--by", "family", "benchmark", "--mpl", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best_score" in out
        assert "db" in out

    def test_query_json_rows(self, capsys, tmp_path, monkeypatch):
        import json

        self._warm_store_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["results", "query", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path), "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows and all("best_score" in row for row in rows)

    def test_query_unknown_dimension_is_usage_error(self, capsys, tmp_path,
                                                    monkeypatch):
        self._warm_store_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        code = main(["results", "query", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path), "--by", "nonsense"])
        assert code == 2
        assert "unknown dimension" in capsys.readouterr().err

    def test_query_missing_db_fails_cleanly(self, capsys, tmp_path):
        capsys.readouterr()
        code = main(["results", "query", "--profile", "quick",
                     "--cache-dir", str(tmp_path)])
        assert code == 1
        assert "no result database" in capsys.readouterr().err

    def test_ingest_rebuild_round_trip(self, capsys, tmp_path, monkeypatch):
        self._warm_store_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["results", "ingest", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path), "--rebuild"]) == 0
        assert "ingested" in capsys.readouterr().out

    def test_render_matches_generate(self, capsys, tmp_path, monkeypatch):
        self._warm_store_sweep(tmp_path, monkeypatch)
        out_dir = tmp_path / "rendered"
        capsys.readouterr()
        assert main(["results", "render", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "table_2a.txt").exists()
        assert (out_dir / "figure_4.txt").exists()

    def test_runs_lists_recorded_sweeps(self, capsys, tmp_path, monkeypatch):
        import json

        self._warm_store_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["results", "runs", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        run = json.loads(lines[0])
        assert run["profile"] == "tinycli"
        assert run["jobs"] == 2

    def test_sql_read_only(self, capsys, tmp_path, monkeypatch):
        import json

        self._warm_store_sweep(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["results", "sql", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path),
                     "SELECT COUNT(*) AS n FROM record_view"]) == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["n"] > 0
        capsys.readouterr()
        code = main(["results", "sql", "--profile", "tinycli",
                     "--cache-dir", str(tmp_path),
                     "DELETE FROM records"])
        assert code != 0
