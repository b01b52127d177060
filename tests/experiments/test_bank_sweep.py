"""Bank-vs-per-spec sweep equivalence: same records, byte-identical cache.

The reference for every comparison is one solo ``evaluate_spec`` call
per grid point (a ``run_detector`` pass scored lane by lane with
``score_states``), so these tests pin both the bank's routing and the
batch scorer against the simplest evaluation.
"""

import json

from repro.core.config import AnalyzerKind, ModelKind
from repro.experiments.config_space import QUICK, ConfigSpec, SuiteProfile, family_grid
from repro.experiments.runner import BaselineSet, evaluate_bank, evaluate_spec
from repro.experiments.store import cache_line
from repro.experiments.sweep import Sweep
from repro.workloads.suite import load_traces, workload

TINY = SuiteProfile(
    name="tinybank",
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
CACHE_NAME = "sweep-tinybank.jsonl"


def _run_sweep(cache_dir, jobs, kernels=True):
    sweep = Sweep(
        TINY,
        cache_dir=cache_dir,
        benchmarks=BENCHMARKS,
        mpl_nominals=MPLS,
        kernels=kernels,
    )
    records = sweep.ensure(SPECS, jobs=jobs)
    return records, (cache_dir / CACHE_NAME).read_bytes()


def _per_spec_sweep(cache_dir):
    """Records and cache bytes of one ``evaluate_spec`` call per grid
    point, in the serial sweep's benchmark-major, spec-order layout."""
    records, lines = [], []
    for benchmark in BENCHMARKS:
        trace, _ = load_traces(benchmark, scale=TINY.workload_scale, cache_dir=cache_dir)
        baselines = BaselineSet.for_benchmark(benchmark, TINY, MPLS, cache_dir=cache_dir)
        fingerprint = workload(benchmark).fingerprint(TINY.workload_scale)
        for spec in SPECS:
            for record in evaluate_spec(trace, baselines, spec, TINY):
                records.append(record)
                lines.append(cache_line(record, fingerprint))
    return records, "".join(lines).encode("utf-8")


class TestBankSerialEquivalence:
    def test_cache_bytes_identical_serial_jobs(self, tmp_path):
        bank_records, bank_cache = _run_sweep(tmp_path / "bank", jobs=1)
        solo_records, solo_cache = _per_spec_sweep(tmp_path / "solo")
        assert bank_records == solo_records
        assert bank_cache == solo_cache

    def test_cache_bytes_identical_parallel_jobs(self, tmp_path):
        bank_records, bank_cache = _run_sweep(tmp_path / "bank", jobs=2)
        solo_records, solo_cache = _per_spec_sweep(tmp_path / "solo")
        assert bank_records == solo_records
        assert bank_cache == solo_cache

    def test_manifests_identical_modulo_timing(self, tmp_path):
        """Kernels on and off do the same work accounting."""
        _run_sweep(tmp_path / "kernels", jobs=2)
        _run_sweep(tmp_path / "fused", jobs=2, kernels=False)
        manifests = []
        for mode in ("kernels", "fused"):
            path = tmp_path / mode / "sweep-tinybank.manifest.json"
            data = json.loads(path.read_text())
            # Strip run-dependent timing/identity, keep the work accounting
            # (fingerprints, grid, record counts).
            for key in ("created_at", "elapsed_seconds", "workers", "metrics",
                        "chunk_profiles", "environment"):
                data.pop(key, None)
            manifests.append(data)
        assert manifests[0] == manifests[1]


class TestFamilySweep:
    def test_newma_focus_cache_identical_kernels_on_and_off(self, tmp_path):
        """NEWMA members ride the vectorized route and FOCuS the step
        loop; with ``kernels=False`` both step.  The record caches of
        all four runs (kernels on/off x ``jobs`` 1/2) are byte-identical."""
        specs = family_grid(QUICK, ("newma", "focus"))
        caches = set()
        for jobs in (1, 2):
            for kernels in (True, False):
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
        trace, _ = load_traces(
            BENCHMARKS[0], scale=TINY.workload_scale, cache_dir=tmp_path
        )
        baselines = BaselineSet.for_benchmark(
            BENCHMARKS[0], TINY, MPLS, cache_dir=tmp_path
        )
        return trace, baselines

    def _per_spec(self, trace, baselines):
        return [
            record
            for spec in SPECS
            for record in evaluate_spec(trace, baselines, spec, TINY)
        ]

    def test_banked_records_equal_serial_records(self, tmp_path):
        trace, baselines = self._fixtures(tmp_path)
        banked = evaluate_bank(trace, baselines, SPECS, TINY)
        assert banked == self._per_spec(trace, baselines)
        assert len(banked) == len(SPECS) * len(MPLS)

    def test_batching_respects_bank_size(self, tmp_path):
        """bank_size smaller than the spec list still covers every spec
        in order (multiple bank batches)."""
        trace, baselines = self._fixtures(tmp_path)
        batched = evaluate_bank(trace, baselines, SPECS, TINY, bank_size=2)
        assert batched == self._per_spec(trace, baselines)
