"""Sweep-level equivalence: same records, byte-identical cache.

The reference for every comparison is one solo ``run_detector`` run per
grid point over a heap copy of the cached trace (no memmap, no cached
dense remap), scored per MPL with ``score_phases`` (``solo.py``), so
these tests pin the bank's routing, the banked scorer and the
mmap/sidecar stack against the simplest evaluation, at any ``jobs``,
with kernels on or off, over a fresh, pre-sidecar or stale cache.
"""

import json

import numpy as np
import pytest

from repro.core.config import AnalyzerKind, ModelKind
from repro.experiments import runner as runner_mod
from repro.experiments.config_space import QUICK, ConfigSpec, SuiteProfile, family_grid
from repro.experiments.runner import BaselineSet, evaluate_bank
from repro.experiments.store import cache_line
from repro.experiments.sweep import Sweep
from repro.profiles.trace import BranchTrace
from repro.workloads import load_traces
from repro.workloads.suite import workload
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
    ConfigSpec("constant", 5_000, ModelKind.WEIGHTED, AnalyzerKind.THRESHOLD, 0.6),
    ConfigSpec("adaptive", 5_000, ModelKind.UNWEIGHTED, AnalyzerKind.AVERAGE, 0.05),
]

MPLS = (1_000, 10_000)
BENCHMARKS = ["db", "jlex"]
CACHE_NAME = "sweep-tiny.jsonl"


def _run_sweep(cache_dir, jobs=1, kernels=True):
    sweep = Sweep(
        TINY,
        cache_dir=cache_dir,
        benchmarks=BENCHMARKS,
        mpl_nominals=MPLS,
        kernels=kernels,
    )
    records = sweep.ensure(SPECS, jobs=jobs)
    return records, (cache_dir / CACHE_NAME).read_bytes()


def _reference_sweep(cache_dir):
    """Records and cache bytes of one solo run per grid
    point over heap copies of the cached traces, in the serial sweep's
    benchmark-major, spec-order layout."""
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
            for record in solo_records(heap, baselines, spec, TINY):
                records.append(record)
                lines.append(cache_line(record, fingerprint))
    return records, "".join(lines).encode("utf-8")


class TestSweepEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mmap_bank_sweep_matches_per_spec_heap_reference(self, tmp_path, jobs):
        sweep_records, sweep_cache = _run_sweep(tmp_path / "sweep", jobs=jobs)
        reference_records, reference_cache = _reference_sweep(tmp_path / "ref")
        assert sweep_records == reference_records
        assert sweep_cache == reference_cache

    def test_suite_traces_mmap_backed(self, tmp_path):
        # Warm the cache, then reload: the sweep's traces must be
        # memmap views, not heap copies.
        _run_sweep(tmp_path)
        sweep = Sweep(TINY, cache_dir=tmp_path, benchmarks=BENCHMARKS,
                      mpl_nominals=MPLS)
        for branch_trace, _ in sweep.traces.values():
            array = branch_trace.array
            assert isinstance(array, np.memmap) or isinstance(array.base, np.memmap)

    def test_manifests_identical_modulo_timing(self, tmp_path):
        """Kernels on and off do the same work accounting."""
        _run_sweep(tmp_path / "kernels", jobs=2)
        _run_sweep(tmp_path / "fused", jobs=2, kernels=False)
        manifests = []
        for mode in ("kernels", "fused"):
            path = tmp_path / mode / "sweep-tiny.manifest.json"
            data = json.loads(path.read_text())
            # Strip run-dependent timing/identity, keep the work accounting
            # (fingerprints, grid, record counts).
            for key in ("created_at", "elapsed_seconds", "workers", "metrics",
                        "chunk_profiles", "environment"):
                data.pop(key, None)
            manifests.append(data)
        assert manifests[0] == manifests[1]

    def test_family_caches_identical_kernels_on_and_off(self, tmp_path):
        """Every NEWMA and FOCuS member rides the vectorized route; with
        ``kernels=False`` each steps.  The record caches of one crossed
        pair (kernels on at ``jobs=2``, kernels off at ``jobs=1``) are
        byte-identical; the other cells of that grid are pinned by the
        family golden in CI and each route by the oracle harness."""
        specs = family_grid(QUICK, ("newma", "focus"))
        caches = set()
        for jobs, kernels in ((2, True), (1, False)):
            cache_dir = tmp_path / f"jobs{jobs}-kernels{kernels}"
            Sweep(
                QUICK,
                cache_dir=cache_dir,
                benchmarks=BENCHMARKS,
                mpl_nominals=MPLS,
                kernels=kernels,
            ).ensure(specs, jobs=jobs)
            caches.add((cache_dir / "sweep-quick.jsonl").read_bytes())
        assert len(caches) == 1
        assert len(next(iter(caches)).splitlines()) == (
            len(specs) * len(BENCHMARKS) * len(MPLS)
        )


class TestEvaluateBank:
    def _fixtures(self, tmp_path):
        trace, call_loop = load_traces(
            BENCHMARKS[0], scale=TINY.workload_scale, cache_dir=tmp_path
        )
        return trace, BaselineSet(call_loop, TINY, MPLS, name=BENCHMARKS[0])

    def _per_spec(self, trace, baselines):
        return [
            record
            for spec in SPECS
            for record in solo_records(trace, baselines, spec, TINY)
        ]

    @pytest.mark.parametrize("bank_size", [None, 2])
    def test_banked_records_equal_per_spec_records(self, tmp_path, bank_size):
        """A ``bank_size`` smaller than the spec list still covers every
        spec in order (several bank batches)."""
        trace, baselines = self._fixtures(tmp_path)
        kwargs = {} if bank_size is None else {"bank_size": bank_size}
        banked = evaluate_bank(trace, baselines, SPECS, TINY, **kwargs)
        assert banked == self._per_spec(trace, baselines)
        assert len(banked) == len(SPECS) * len(MPLS)


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
