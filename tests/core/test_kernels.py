"""Array-native kernel routing: the selection machinery (eligibility
predicate, the ``kernels`` flag, bank partitioning) routes every
configuration — windowed, NEWMA, FOCuS, Das Pearson or Lu DYNAMO — to
its path, and bank lanes share their series.  That every route is
bit-identical to the reference ``step()`` loop is checked in
``tests/properties/test_oracle_harness.py``."""

import json

import numpy as np
import pytest

from repro.core import (
    AnalyzerKind,
    DetectorConfig,
    ModelKind,
    TrailingPolicy,
)
from repro.core import kernels as kernels_mod
from repro.core.analyzers import ThresholdAnalyzer
from repro.core.bank import DetectorBank
from repro.core.decision import build_engine, restore_engine
from repro.core.kernels import run_bank_batched, vectorized_eligible
from repro.core.runtime import DetectorRuntime
from repro.obs.bus import MemorySink
from repro.obs.trace import Tracer
from repro.profiles.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def trace():
    builder = SyntheticTraceBuilder(seed=71)
    builder.add_transition(150)
    builder.add_phase(1_100, body_size=9, noise_rate=0.03)
    builder.add_transition(120)
    builder.add_phase(900, body_size=21)
    builder.add_transition(80)
    builder.add_phase(600, body_size=5, noise_rate=0.01)
    return builder.build()[0]


class TestEligibility:
    def test_vectorized_covers_threshold_constant(self):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        assert vectorized_eligible(runtime)
        assert runtime.kernel_path() == "vectorized"

    def test_fresh_average_analyzer_is_vectorized(self, trace):
        """A fresh, unobserved Average runtime takes the vectorized
        route; observed and restored ones stay on the legacy route."""
        config = DetectorConfig(
            cw_size=20, skip_factor=5, analyzer=AnalyzerKind.AVERAGE
        )
        runtime = DetectorRuntime(config)
        assert vectorized_eligible(runtime)
        assert runtime.kernel_path() == "vectorized"
        observed = DetectorRuntime(config, observer=MemorySink())
        consumed = DetectorRuntime(config)
        consumed.advance(trace.array[:50].tolist(), bytearray(50), 0)
        restored = DetectorRuntime.restore(consumed.checkpoint())
        for engine in (observed, restored):
            assert not vectorized_eligible(engine)
            assert engine.kernel_path() == "legacy"

    def test_adaptive_trailing_is_vectorized(self):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5, trailing=TrailingPolicy.ADAPTIVE)
        )
        assert vectorized_eligible(runtime)

    def test_weighted_vectorized_for_any_geometry(self):
        fixed = DetectorRuntime(
            DetectorConfig(cw_size=30, skip_factor=30, model=ModelKind.WEIGHTED)
        )
        assert vectorized_eligible(fixed)
        offset = DetectorRuntime(
            DetectorConfig(cw_size=30, skip_factor=7, model=ModelKind.WEIGHTED)
        )
        assert vectorized_eligible(offset)

    def test_observed_runtime_ineligible(self):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5), observer=MemorySink()
        )
        assert not vectorized_eligible(runtime)
        assert runtime.kernel_path() == "legacy"

    def test_consumed_runtime_ineligible(self, trace):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        states = bytearray(10)
        runtime.advance(trace.array[:10].tolist(), states, 0)
        assert not vectorized_eligible(runtime)
        assert runtime.kernel_path() == "legacy"

    def test_kernel_entry_points_reject_ineligible(self, trace):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5, analyzer=AnalyzerKind.AVERAGE),
            observer=MemorySink(),
        )
        with pytest.raises(ValueError):
            run_bank_batched([runtime], trace)

        class CustomAnalyzer(ThresholdAnalyzer):
            pass

        custom = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5),
            analyzer=CustomAnalyzer(0.5),
        )
        with pytest.raises(ValueError):
            run_bank_batched([custom], trace)
        consumed = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        consumed.advance(trace.array[:5].tolist(), bytearray(5), 0)
        with pytest.raises(ValueError):
            run_bank_batched([consumed], trace)
        # A mixed batch is rejected before any lane runs.
        fresh = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        with pytest.raises(ValueError):
            run_bank_batched([fresh, runtime], trace)
        assert vectorized_eligible(fresh)

    def test_kernels_flag_forces_legacy(self):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        assert runtime.kernel_path(kernels=True) == "vectorized"
        assert runtime.kernel_path(kernels=False) == "legacy"


class TestBank:
    def test_mixed_bank_routes_members(self, trace, monkeypatch):
        """Fresh windowed (both analyzers, both TW policies, both
        models), NEWMA and FOCuS members run together on the vectorized
        route and observed members alone on the legacy one, by
        ``kernel_path()`` and by the ``bank.kernel`` spans' member
        counts; the four fresh NEWMA members share one distance series.
        That every member equals its reference ``step()`` run is
        checked in ``tests/properties/test_oracle_harness.py``."""
        windowed = [
            DetectorConfig(
                cw_size=40, skip_factor=8, trailing=trailing, model=model,
                analyzer=analyzer, threshold=0.5, delta=0.07,
            )
            for model in ModelKind
            for analyzer in AnalyzerKind
            for trailing in TrailingPolicy
        ]
        fresh = [
            *windowed,
            *[
                newma(cw_size=cw, stat_threshold=bar)
                for cw in (30, 120)
                for bar in (3.0, 5.0)
            ],
            DetectorConfig(family="focus", cw_size=60),
        ]
        observed = [windowed[-1], newma(cw_size=30, stat_threshold=4.0)]
        bank = DetectorBank(
            fresh + observed,
            observers=[None] * len(fresh) + [MemorySink() for _ in observed],
        )
        assert [engine.kernel_path() for engine in bank.runtimes] == (
            ["vectorized"] * len(fresh) + ["legacy"] * len(observed)
        )
        series_calls = []
        compute = kernels_mod._newma_distances

        def counting(*args, **kwargs):
            series_calls.append(args[1:])
            return compute(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "_newma_distances", counting)
        tracer = Tracer()
        bank.run(trace, tracer=tracer)
        kernel_spans = {
            span.attrs["path"]: span.attrs["members"]
            for span in tracer.spans
            if span.name == "bank.kernel"
        }
        assert kernel_spans == {"legacy": len(observed), "vectorized": len(fresh)}
        assert len(series_calls) == 1


def newma(cw_size=40, **overrides):
    return DetectorConfig(family="newma", cw_size=cw_size, **overrides)


def phase_key(phases):
    return [
        (p.detected_start, p.corrected_start, p.end, float.hex(p.mean_similarity))
        for p in phases
    ]


class TestNewmaRoute:
    def test_fresh_newma_is_vectorized(self):
        engine = build_engine(newma())
        assert vectorized_eligible(engine)
        assert engine.kernel_path() == "vectorized"

    def test_observed_restored_consumed_and_flagged_newma_are_legacy(self, trace):
        observed = build_engine(newma(), observer=MemorySink())
        consumed = build_engine(newma())
        consumed.advance(trace.array[:100].tolist(), bytearray(100), 0)
        restored = restore_engine(consumed.checkpoint())
        for engine in (observed, consumed, restored):
            assert not vectorized_eligible(engine)
            assert engine.kernel_path() == "legacy"
            with pytest.raises(ValueError):
                run_bank_batched([engine], trace)
        assert build_engine(newma()).kernel_path(kernels=False) == "legacy"

    def test_fresh_per_window_families_are_vectorized(self, trace):
        for family in ("das_pearson", "lu_dynamo"):
            config = DetectorConfig(family=family, cw_size=40)
            fresh = build_engine(config)
            assert vectorized_eligible(fresh)
            assert fresh.kernel_path() == "vectorized"
            observed = build_engine(config, observer=MemorySink())
            consumed = build_engine(config)
            consumed.advance(trace.array[:100].tolist(), bytearray(100), 0)
            restored = restore_engine(consumed.checkpoint())
            for engine in (observed, consumed, restored):
                assert not vectorized_eligible(engine), family
                assert engine.kernel_path() == "legacy", family
                with pytest.raises(ValueError):
                    run_bank_batched([engine], trace)
            assert build_engine(config).kernel_path(kernels=False) == "legacy"


def focus(cw_size=40, **overrides):
    return DetectorConfig(family="focus", cw_size=cw_size, **overrides)


class TestFocusRoute:
    def test_fresh_focus_is_vectorized(self):
        engine = build_engine(focus())
        assert vectorized_eligible(engine)
        assert engine.kernel_path() == "vectorized"

    def test_observed_restored_consumed_and_flagged_focus_are_legacy(self, trace):
        observed = build_engine(focus(), observer=MemorySink())
        consumed = build_engine(focus())
        consumed.advance(trace.array[:100].tolist(), bytearray(100), 0)
        restored = restore_engine(consumed.checkpoint())
        for engine in (observed, consumed, restored):
            assert not vectorized_eligible(engine)
            assert engine.kernel_path() == "legacy"
            with pytest.raises(ValueError):
                run_bank_batched([engine], trace)
        assert build_engine(focus()).kernel_path(kernels=False) == "legacy"

    def test_bank_shares_one_sign_table(self, trace, monkeypatch):
        """FOCuS lanes at three CWs x three bars with one skip build the
        sign table once, and each lane equals its solo step loop."""
        configs = [
            focus(cw_size=cw, stat_threshold=bar)
            for cw in (20, 60, 300)
            for bar in (8.0, 16.0, 32.0)
        ]
        bank = DetectorBank(configs)
        assert {engine.kernel_path() for engine in bank.runtimes} == {"vectorized"}
        sign_calls = []
        compute = kernels_mod._focus_signs

        def counting(*args, **kwargs):
            sign_calls.append(len(args[0]))
            return compute(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "_focus_signs", counting)
        results = bank.run(trace)
        assert sign_calls == [trace.array.size]
        for config, engine, result in zip(configs, bank.runtimes, results):
            solo = build_engine(config)
            reference = solo.run(trace, kernels=False)
            assert np.array_equal(result.states, reference.states)
            assert phase_key(result.detected_phases) == phase_key(
                reference.detected_phases
            )
            assert json.dumps(engine.checkpoint(), sort_keys=True) == json.dumps(
                solo.checkpoint(), sort_keys=True
            )
