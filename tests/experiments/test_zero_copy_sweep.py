"""Zero-copy evaluation pipeline equivalence at the sweep level.

The acceptance bar for the mmap/sidecar/batched-scoring stack: sweep
records and the JSONL cache bytes over memory-mapped traces must be
identical to a per-spec evaluation over heap copies of the same traces.
"""

import numpy as np
import pytest

from repro.core.config import AnalyzerKind, ModelKind
from repro.experiments import runner as runner_mod
from repro.experiments.config_space import ConfigSpec, SuiteProfile
from repro.experiments.runner import BaselineSet, evaluate_bank, evaluate_spec
from repro.experiments.store import cache_line
from repro.experiments.sweep import Sweep
from repro.profiles.trace import BranchTrace
from repro.workloads import load_traces
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


def _run_sweep(cache_dir, jobs=1):
    sweep = Sweep(
        TINY, cache_dir=cache_dir, benchmarks=BENCHMARKS, mpl_nominals=MPLS,
    )
    records = sweep.ensure(SPECS, jobs=jobs)
    return records, (cache_dir / CACHE_NAME).read_bytes()


def _heap_sweep(cache_dir):
    """Records and cache bytes of a serial per-spec evaluation over heap
    copies of the cached traces (no memmap, no cached dense remap)."""
    records, lines = [], []
    for benchmark in BENCHMARKS:
        mapped, _ = load_traces(
            benchmark, scale=TINY.workload_scale, cache_dir=cache_dir
        )
        heap = BranchTrace(np.array(mapped.array), name=mapped.name)
        baselines = BaselineSet.for_benchmark(
            benchmark, TINY, MPLS, cache_dir=cache_dir
        )
        fingerprint = workload(benchmark).fingerprint(TINY.workload_scale)
        for spec in SPECS:
            for record in evaluate_spec(heap, baselines, spec, TINY):
                records.append(record)
                lines.append(cache_line(record, fingerprint))
    return records, "".join(lines).encode("utf-8")


class TestMmapSweepEquivalence:
    def test_mmap_on_off_byte_identical(self, tmp_path):
        on_records, on_cache = _run_sweep(tmp_path / "on")
        off_records, off_cache = _heap_sweep(tmp_path / "off")
        assert on_records == off_records
        assert on_cache == off_cache

    def test_parallel_mmap_matches_serial_heap(self, tmp_path):
        serial_records, serial_cache = _heap_sweep(tmp_path / "s")
        parallel_records, parallel_cache = _run_sweep(tmp_path / "p", jobs=2)
        assert parallel_records == serial_records
        assert parallel_cache == serial_cache

    def test_suite_traces_mmap_backed(self, tmp_path):
        # Warm the cache, then reload: the sweep's traces must be
        # memmap views, not heap copies.
        _run_sweep(tmp_path)
        sweep = Sweep(TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS,
                      mpl_nominals=MPLS)
        for branch_trace, _ in sweep.traces.values():
            array = branch_trace.array
            assert isinstance(array, np.memmap) or isinstance(array.base, np.memmap)

    def test_batch_scoring_matches_scalar(self, tmp_path):
        branch, call_loop = load_traces(
            "db", scale=TINY.workload_scale, cache_dir=tmp_path
        )
        baselines = BaselineSet(call_loop, TINY, MPLS, name="db")
        batched = evaluate_bank(branch, baselines, SPECS, TINY)
        scalar = [
            record
            for spec in SPECS
            for record in evaluate_spec(branch, baselines, spec, TINY)
        ]
        assert batched == scalar


class TestCacheCompat:
    def test_v1_cache_without_sidecars_regenerates(self, tmp_path):
        # A pre-sidecar (v1) trace cache has .btrace/.cloop but no
        # .bcodes: the sweep must regenerate sidecars transparently and
        # produce byte-identical sweep JSONL.
        _, reference_cache = _run_sweep(tmp_path)
        for sidecar in tmp_path.glob("*.bcodes"):
            sidecar.unlink()
        (tmp_path / CACHE_NAME).unlink()
        (tmp_path / "sweep-tiny.manifest.json").unlink()
        _, regenerated_cache = _run_sweep(tmp_path)
        assert regenerated_cache == reference_cache
        assert sorted(tmp_path.glob("*.bcodes")), "sidecars must be rebuilt"

    def test_stale_sidecar_never_poisons_records(self, tmp_path):
        _, reference_cache = _run_sweep(tmp_path)
        # Swap the two benchmarks' sidecars: both are now stale (hash
        # mismatch) and must be rebuilt, not adopted.
        sidecars = sorted(tmp_path.glob("*.bcodes"))
        assert len(sidecars) == 2
        a_bytes, b_bytes = sidecars[0].read_bytes(), sidecars[1].read_bytes()
        sidecars[0].write_bytes(b_bytes)
        sidecars[1].write_bytes(a_bytes)
        (tmp_path / CACHE_NAME).unlink()
        _, regenerated_cache = _run_sweep(tmp_path)
        assert regenerated_cache == reference_cache


class TestLazyBaselines:
    def _counting(self, monkeypatch):
        calls = []
        original = runner_mod.solve_baseline

        def counting(call_loop, mpl, name=""):
            calls.append(mpl)
            return original(call_loop, mpl, name=name)

        monkeypatch.setattr(runner_mod, "solve_baseline", counting)
        return calls

    def test_construction_solves_nothing(self, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch)
        _, call_loop = load_traces("db", scale=TINY.workload_scale, cache_dir=tmp_path)
        BaselineSet(call_loop, TINY, MPLS, name="db")
        assert calls == []

    def test_each_nominal_solved_once_on_demand(self, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch)
        _, call_loop = load_traces("db", scale=TINY.workload_scale, cache_dir=tmp_path)
        baselines = BaselineSet(call_loop, TINY, MPLS, name="db")
        baselines.states(MPLS[0])
        assert len(calls) == 1
        # states/phases/solution all share one memoized solve per MPL.
        baselines.states(MPLS[0])
        baselines.phases(MPLS[0])
        baselines.solution(MPLS[0])
        assert len(calls) == 1
        baselines.states(MPLS[1])
        assert len(calls) == 2
        assert calls == [TINY.actual(nominal) for nominal in MPLS]

    def test_solutions_mapping_view(self, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch)
        _, call_loop = load_traces("db", scale=TINY.workload_scale, cache_dir=tmp_path)
        baselines = BaselineSet(call_loop, TINY, MPLS, name="db")
        assert list(baselines.solutions) == list(MPLS)
        assert len(baselines.solutions) == len(MPLS)
        assert calls == []  # iteration/len must not solve
        solution = baselines.solutions[MPLS[0]]
        assert solution is baselines.solution(MPLS[0])
        assert len(calls) == 1

    def test_unknown_nominal_rejected(self, tmp_path):
        _, call_loop = load_traces("db", scale=TINY.workload_scale, cache_dir=tmp_path)
        baselines = BaselineSet(call_loop, TINY, MPLS, name="db")
        with pytest.raises(KeyError):
            baselines.solution(123)
        with pytest.raises(KeyError):
            baselines.solutions[123]
