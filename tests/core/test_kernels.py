"""Array-native kernel tests: every whole-trace route is bit-identical to
the reference ``step()`` loop, and the selection machinery (eligibility
predicate, the ``kernels`` flag, bank partitioning) routes every
configuration — windowed or NEWMA — to a correct path."""

import json

import numpy as np
import pytest

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core import kernels as kernels_mod
from repro.core.bank import DetectorBank
from repro.core.decision import build_engine, restore_engine
from repro.core.engine import run_detector
from repro.core.kernels import run_bank_batched, vectorized_eligible
from repro.core.runtime import DetectorRuntime
from repro.obs.bus import MemorySink
from repro.obs.trace import Tracer
from repro.profiles.synthetic import SyntheticTraceBuilder
from repro.profiles.trace import BranchTrace


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


def matrix_configs():
    """Every model x analyzer x trailing x anchor x resize combination,
    over two window geometries (one of them fixed-interval shaped)."""
    configs = []
    geometries = [
        dict(cw_size=60, tw_size=None, skip_factor=60),  # fixed-interval shape
        dict(cw_size=45, tw_size=90, skip_factor=7),
    ]
    for geometry in geometries:
        for model in ModelKind:
            for analyzer in AnalyzerKind:
                for trailing in TrailingPolicy:
                    for anchor in AnchorPolicy:
                        for resize in ResizePolicy:
                            configs.append(
                                DetectorConfig(
                                    trailing=trailing,
                                    anchor=anchor,
                                    resize=resize,
                                    model=model,
                                    analyzer=analyzer,
                                    threshold=0.5,
                                    delta=0.08,
                                    **geometry,
                                )
                            )
    return configs


def run_both(trace, config):
    """(default-route result + checkpoint, reference result + checkpoint).

    The default route is the vectorized kernel for Threshold configs and
    the fused loop for Average configs; the oracle is the reference
    ``step()`` loop (``fused=False``) for both.
    """
    kernel_rt = DetectorRuntime(config)
    kernel = kernel_rt.run(trace)
    reference_rt = DetectorRuntime(config)
    reference = reference_rt.run(trace, fused=False)
    return kernel, kernel_rt.checkpoint(), reference, reference_rt.checkpoint()


class TestEquivalence:
    def test_full_config_matrix_bit_identical(self, trace):
        for config in matrix_configs():
            kernel, kernel_cp, legacy, legacy_cp = run_both(trace, config)
            label = config.describe()
            assert np.array_equal(kernel.states, legacy.states), label
            assert kernel.detected_phases == legacy.detected_phases, label
            # Checkpoints serialize every piece of live state (windows,
            # counts, stats, tracker); JSON equality pins them all,
            # including float bit patterns.
            assert json.dumps(kernel_cp, sort_keys=True) == json.dumps(
                legacy_cp, sort_keys=True
            ), label

    def test_phase_means_bit_identical(self, trace):
        config = DetectorConfig(cw_size=60, skip_factor=60, threshold=0.5)
        kernel, _, legacy, _ = run_both(trace, config)
        for ours, theirs in zip(kernel.detected_phases, legacy.detected_phases):
            assert ours.mean_similarity == theirs.mean_similarity

    def test_empty_and_tiny_traces(self):
        config = DetectorConfig(cw_size=5, skip_factor=3, threshold=0.5)
        for elements in ([], [1], [1, 1, 1, 1], list(range(4))):
            tiny = BranchTrace(elements)
            kernel, kernel_cp, legacy, legacy_cp = run_both(tiny, config)
            assert np.array_equal(kernel.states, legacy.states)
            assert json.dumps(kernel_cp, sort_keys=True) == json.dumps(
                legacy_cp, sort_keys=True
            )

    def test_restored_checkpoints_continue_identically(self, trace):
        """A checkpoint taken after a kernel run restores into a runtime
        that keeps advancing exactly like its legacy twin."""
        config = DetectorConfig(
            cw_size=40, skip_factor=8, trailing=TrailingPolicy.ADAPTIVE,
            threshold=0.5,
        )
        _, kernel_cp, _, legacy_cp = run_both(trace, config)
        restored_kernel = DetectorRuntime.restore(kernel_cp)
        restored_legacy = DetectorRuntime.restore(legacy_cp)
        extra = (trace.array[:400] % 9).tolist()
        groups = [extra[i : i + 8] for i in range(0, len(extra), 8)]
        kernel_states = bytearray(len(extra))
        legacy_states = bytearray(len(extra))
        restored_kernel.advance(groups, kernel_states, 0)
        restored_legacy.advance(groups, legacy_states, 0)
        assert bytes(kernel_states) == bytes(legacy_states)
        assert json.dumps(restored_kernel.checkpoint(), sort_keys=True) == (
            json.dumps(restored_legacy.checkpoint(), sort_keys=True)
        )


class TestEligibility:
    def test_vectorized_covers_threshold_constant(self):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        assert vectorized_eligible(runtime)
        assert runtime.kernel_path() == "vectorized"

    def test_average_analyzer_runs_on_lanes(self):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5, analyzer=AnalyzerKind.AVERAGE)
        )
        assert not vectorized_eligible(runtime)
        assert runtime.kernel_path() == "legacy"

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
        runtime.advance([trace.array[:10].tolist()], states, 0)
        assert not vectorized_eligible(runtime)
        assert runtime.kernel_path() == "legacy"

    def test_kernel_entry_points_reject_ineligible(self, trace):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5, analyzer=AnalyzerKind.AVERAGE)
        )
        with pytest.raises(ValueError):
            run_bank_batched([runtime], trace)
        consumed = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        consumed.advance([trace.array[:5].tolist()], bytearray(5), 0)
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


class TestSelection:
    def test_engine_flag_on_and_off_agree(self, trace):
        config = DetectorConfig(cw_size=50, skip_factor=10, threshold=0.5)
        enabled = run_detector(trace, config, kernels=True)
        disabled = run_detector(trace, config, kernels=False)
        assert np.array_equal(enabled.states, disabled.states)
        assert enabled.detected_phases == disabled.detected_phases

    def test_observed_run_matches_kernel_run(self, trace):
        """An observer forces the fused loop; output must not change."""
        config = DetectorConfig(cw_size=50, skip_factor=10, threshold=0.5)
        observed = run_detector(trace, config, observer=MemorySink())
        kernel = run_detector(trace, config, kernels=True)
        assert np.array_equal(observed.states, kernel.states)
        assert observed.detected_phases == kernel.detected_phases


class TestBank:
    def grid(self):
        configs = []
        for model in ModelKind:
            for analyzer in AnalyzerKind:
                for trailing in TrailingPolicy:
                    configs.append(
                        DetectorConfig(
                            cw_size=40,
                            skip_factor=8,
                            trailing=trailing,
                            model=model,
                            analyzer=analyzer,
                            threshold=0.5,
                            delta=0.07,
                        )
                    )
        return configs

    def test_bank_kernels_match_bank_legacy_and_solo(self, trace):
        configs = self.grid()
        kernel_bank = DetectorBank(configs).run(trace, kernels=True)
        legacy_bank = DetectorBank(configs).run(trace, kernels=False)
        for config, ours, theirs in zip(configs, kernel_bank, legacy_bank):
            solo = DetectorRuntime(config).run(trace, fused=False)
            assert np.array_equal(ours.states, theirs.states)
            assert np.array_equal(ours.states, solo.states)
            assert ours.detected_phases == theirs.detected_phases
            assert ours.detected_phases == solo.detected_phases

    def test_observed_bank_matches_kernel_bank(self, trace):
        """Observers force every bank member onto the lockstep lanes."""
        configs = self.grid()[:4]
        sink = MemorySink()
        observed = DetectorBank(configs, observers=[sink] * len(configs)).run(trace)
        kernel = DetectorBank(configs).run(trace, kernels=True)
        for ours, theirs in zip(observed, kernel):
            assert np.array_equal(ours.states, theirs.states)
            assert ours.detected_phases == theirs.detected_phases

    def test_mixed_bank_sends_average_members_to_lanes(self, trace):
        """Average members run on the lockstep lanes, Threshold members
        on the batched vectorized route — by ``kernel_path()`` and by
        the ``bank.kernel`` spans' member counts — and every member
        still matches its reference ``step()`` run."""
        configs = self.grid()
        average = [c.analyzer is AnalyzerKind.AVERAGE for c in configs]
        bank = DetectorBank(configs)
        paths = [runtime.kernel_path() for runtime in bank.runtimes]
        assert paths == ["legacy" if avg else "vectorized" for avg in average]
        tracer = Tracer()
        results = bank.run(trace, tracer=tracer)
        kernel_spans = {
            span.attrs["path"]: span.attrs["members"]
            for span in tracer.spans
            if span.name == "bank.kernel"
        }
        assert kernel_spans == {
            "lanes": sum(average),
            "vectorized": len(configs) - sum(average),
        }
        for config, result in zip(configs, results):
            reference = DetectorRuntime(config).run(trace, fused=False)
            assert np.array_equal(result.states, reference.states)
            assert result.detected_phases == reference.detected_phases


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
        consumed.advance_flat(trace.array[:100].tolist(), bytearray(100), 0)
        restored = restore_engine(consumed.checkpoint())
        for engine in (observed, consumed, restored):
            assert not vectorized_eligible(engine)
            assert engine.kernel_path() == "legacy"
            with pytest.raises(ValueError):
                run_bank_batched([engine], trace)
        assert build_engine(newma()).kernel_path(kernels=False) == "legacy"

    def test_other_families_stay_legacy(self):
        for family in ("focus", "das_pearson", "lu_dynamo"):
            engine = build_engine(DetectorConfig(family=family, cw_size=40))
            assert engine.kernel_path() == "legacy"

    def test_mixed_bank_matches_solo_step_loops(self, trace, monkeypatch):
        """Windowed Threshold and Average members, NEWMA at two CWs x
        two bars, FOCuS and an observed NEWMA in one bank: each member
        equals its solo ``kernels=False`` run (states, phase float bits,
        checkpoint, events), and the four fresh NEWMA members share one
        distance series."""
        configs = [
            DetectorConfig(cw_size=40, skip_factor=8, threshold=0.5),
            DetectorConfig(
                cw_size=40, skip_factor=8, analyzer=AnalyzerKind.AVERAGE, delta=0.07
            ),
            *[
                newma(cw_size=cw, stat_threshold=bar)
                for cw in (30, 120)
                for bar in (3.0, 5.0)
            ],
            DetectorConfig(family="focus", cw_size=60),
            newma(cw_size=30, stat_threshold=4.0),
        ]
        sink = MemorySink()
        observers = [None] * (len(configs) - 1) + [sink]
        bank = DetectorBank(configs, observers=observers)
        assert [engine.kernel_path() for engine in bank.runtimes] == [
            "vectorized", "legacy", *["vectorized"] * 4, "legacy", "legacy",
        ]
        series_calls = []
        compute = kernels_mod._newma_distances

        def counting(*args, **kwargs):
            series_calls.append(args[1:])
            return compute(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "_newma_distances", counting)
        results = bank.run(trace)
        assert len(series_calls) == 1

        for config, observer, engine, result in zip(
            configs, observers, bank.runtimes, results
        ):
            solo_sink = MemorySink() if observer is not None else None
            solo = build_engine(config, observer=solo_sink)
            reference = solo.run(trace, kernels=False)
            label = config.describe()
            assert np.array_equal(result.states, reference.states), label
            assert phase_key(result.detected_phases) == phase_key(
                reference.detected_phases
            ), label
            assert json.dumps(engine.checkpoint(), sort_keys=True) == json.dumps(
                solo.checkpoint(), sort_keys=True
            ), label
            if observer is not None:
                assert observer.events == solo_sink.events
