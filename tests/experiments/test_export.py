"""CSV export round-trip tests."""

import pytest

from repro.experiments.export import records_from_csv, records_to_csv
from repro.experiments.runner import SweepRecord


def record(**overrides):
    base = dict(
        benchmark="db",
        family="adaptive",
        cw_nominal=500,
        model="unweighted",
        analyzer="thr=0.6",
        anchor="rn",
        resize="slide",
        mpl_nominal=10_000,
        score=0.8125,
        correlation=0.9,
        sensitivity=0.75,
        false_positives=0.125,
        corrected_score=0.85,
        num_detected_phases=4,
        num_baseline_phases=4,
    )
    base.update(overrides)
    return SweepRecord(**base)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        records = [record(), record(benchmark="jess", score=0.5)]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        loaded = records_from_csv(path)
        assert loaded == records

    def test_types_preserved(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv([record()], path)
        (loaded,) = records_from_csv(path)
        assert isinstance(loaded.cw_nominal, int)
        assert isinstance(loaded.score, float)
        assert isinstance(loaded.benchmark, str)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        records_to_csv([], path)
        assert records_from_csv(path) == []

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            records_from_csv(path)

    def test_real_sweep_records(self, tmp_path):
        from repro.core.config import AnalyzerKind, ModelKind
        from repro.experiments.config_space import ConfigSpec, SuiteProfile
        from repro.experiments.runner import BaselineSet
        from repro.workloads import load_traces
        from tests.experiments.solo import solo_records

        profile = SuiteProfile(name="csv", workload_scale=0.08)
        branch, call_loop = load_traces("db", scale=0.08, cache_dir=tmp_path)
        baselines = BaselineSet(call_loop, profile, (1_000,), name="db")
        spec = ConfigSpec("constant", 500, ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD, 0.6)
        records = solo_records(branch, baselines, spec, profile)
        path = tmp_path / "sweep.csv"
        records_to_csv(records, path)
        assert records_from_csv(path) == records
