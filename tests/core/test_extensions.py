"""Extension model/analyzer tests."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig, TrailingPolicy
from repro.core.extensions import (
    AsymmetricWeightedModel,
    EwmaAnalyzer,
    JaccardSetModel,
    build_extended_detector,
)
from repro.core.state import PhaseState
from repro.profiles.synthetic import SyntheticTraceBuilder
from repro.scoring import score_states

P, T = PhaseState.PHASE, PhaseState.TRANSITION


def fill(model, trailing, current):
    model.push(list(trailing) + list(current))
    return model


class TestJaccardModel:
    def test_identical_windows(self):
        model = fill(JaccardSetModel(3, 3), [1, 2, 3], [3, 2, 1])
        assert model.similarity() == pytest.approx(1.0)

    def test_partial_overlap(self):
        model = fill(JaccardSetModel(2, 2), ["a", "c"], ["a", "b"])
        # intersection {a}, union {a, b, c} -> 1/3
        assert model.similarity() == pytest.approx(1 / 3)

    def test_symmetry_penalizes_tw_only_elements(self):
        from repro.core.models import UnweightedSetModel

        asymmetric = fill(UnweightedSetModel(1, 3), ["a", "x", "y"], ["a"])
        symmetric = fill(JaccardSetModel(1, 3), ["a", "x", "y"], ["a"])
        assert asymmetric.similarity() == pytest.approx(1.0)  # CW fully covered
        assert symmetric.similarity() == pytest.approx(1 / 3)

    def test_incremental_consistency_under_sliding(self):
        model = JaccardSetModel(4, 6)
        for element in [i % 7 for i in range(300)]:
            model.push([element])
            if model.filled:
                cw = set(model.cw_counts)
                tw = set(model.tw_counts)
                expected = len(cw & tw) / len(cw | tw)
                assert model.similarity() == pytest.approx(expected)


class TestAsymmetricWeightedModel:
    def test_identical_distributions(self):
        model = fill(AsymmetricWeightedModel(4, 8), [1, 1, 2, 2] * 2, [1, 1, 2, 2])
        assert model.similarity() == pytest.approx(1.0)

    def test_ignores_tw_only_mass(self):
        # TW has huge mass on 'd' which the CW never touches.
        trailing = ["a"] * 5 + ["d"] * 95
        current = ["a"] * 10
        model = fill(AsymmetricWeightedModel(10, 100), trailing, current)
        # Restricted TW = {a: 5}; relative weights match exactly.
        assert model.similarity() == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        model = fill(AsymmetricWeightedModel(2, 2), [1, 2], [3, 4])
        assert model.similarity() == 0.0

    def test_frequency_sensitive(self):
        from repro.core.extensions import JaccardSetModel

        # Same sets, different frequencies: weighted notices, Jaccard not.
        trailing = ["a"] * 9 + ["b"]
        current = ["a"] + ["b"] * 9
        weighted = fill(AsymmetricWeightedModel(10, 10), trailing, current)
        jaccard = fill(JaccardSetModel(10, 10), trailing, current)
        assert jaccard.similarity() == pytest.approx(1.0)
        assert weighted.similarity() < 0.5


class TestEwmaAnalyzer:
    def test_entry_threshold(self):
        analyzer = EwmaAnalyzer(delta=0.05, enter_threshold=0.6)
        assert analyzer.process_value(0.59, T) is T
        assert analyzer.process_value(0.61, T) is P

    def test_forgets_old_values_under_slow_drift(self):
        fast = EwmaAnalyzer(delta=0.02, alpha=0.9)
        slow = EwmaAnalyzer(delta=0.02, alpha=0.01)
        for analyzer in (fast, slow):
            analyzer.reset_stats(0.95)
        # Slow drift downward, 0.01 per step for 15 steps.
        values = [0.95 - 0.01 * step for step in range(1, 16)]
        fast_states = []
        slow_states = []
        for value in values:
            fast_states.append(fast.process_value(value, P))
            fast.update_stats(value)
            slow_states.append(slow.process_value(value, P))
            slow.update_stats(value)
        # The fast EWMA tracks the drift and stays in phase throughout;
        # the slow one is anchored near the seed and eventually drops out.
        assert all(state is P for state in fast_states)
        assert slow_states[-1] is T

    def test_clear_resets(self):
        analyzer = EwmaAnalyzer(delta=0.5, enter_threshold=0.9)
        analyzer.reset_stats(0.95)
        analyzer.clear()
        assert analyzer.process_value(0.5, P) is T

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EwmaAnalyzer(delta=0.1, alpha=0.0)
        with pytest.raises(ValueError):
            EwmaAnalyzer(delta=2.0)


class TestExtendedDetector:
    def _trace(self):
        builder = SyntheticTraceBuilder(seed=41)
        builder.add_transition(300)
        builder.add_phase(2_500, body_size=12)
        builder.add_transition(300)
        builder.add_phase(2_500, body_size=9)
        builder.add_transition(300)
        return builder.build()

    @pytest.mark.parametrize(
        "model_cls", [JaccardSetModel, AsymmetricWeightedModel]
    )
    def test_extension_models_detect_phases(self, model_cls):
        trace, specs = self._trace()
        config = DetectorConfig(cw_size=100, threshold=0.5)
        detector = build_extended_detector(
            config, model=model_cls(config.cw_size, config.effective_tw_size)
        )
        result = detector.run(trace)
        truth = np.zeros(len(trace), dtype=bool)
        for spec in specs:
            truth[spec.start : spec.end] = True
        score = score_states(result.states, truth)
        assert score.score > 0.85, model_cls.__name__

    def test_ewma_analyzer_detects_phases(self):
        trace, specs = self._trace()
        config = DetectorConfig(cw_size=100, trailing=TrailingPolicy.ADAPTIVE)
        detector = build_extended_detector(
            config, analyzer=EwmaAnalyzer(delta=0.1, alpha=0.3, enter_threshold=0.5)
        )
        result = detector.run(trace)
        assert len(result.detected_phases) >= 2
        # Phase means come from the swapped-in analyzer's statistics.
        assert all(phase.mean_similarity > 0.5 for phase in result.detected_phases)


class TestHysteresisAnalyzer:
    def test_enter_high_leave_low(self):
        from repro.core.extensions import HysteresisAnalyzer

        analyzer = HysteresisAnalyzer(enter_threshold=0.7, exit_threshold=0.5)
        assert analyzer.process_value(0.65, T) is T      # below entry
        assert analyzer.process_value(0.72, T) is P      # enters
        assert analyzer.process_value(0.55, P) is P      # dip survives
        assert analyzer.process_value(0.45, P) is T      # below exit

    def test_validation(self):
        from repro.core.extensions import HysteresisAnalyzer

        with pytest.raises(ValueError):
            HysteresisAnalyzer(enter_threshold=0.4, exit_threshold=0.6)
        with pytest.raises(ValueError):
            HysteresisAnalyzer(enter_threshold=1.2)

    def test_rides_out_noise_dips(self):
        """Hysteresis keeps one phase where a single threshold fragments."""
        from repro.core.extensions import HysteresisAnalyzer
        from repro.core.analyzers import ThresholdAnalyzer
        from repro.core.detector import PhaseDetector
        from repro.profiles.synthetic import SyntheticTraceBuilder

        builder = SyntheticTraceBuilder(seed=43)
        builder.add_transition(200)
        builder.add_phase(3_000, body_size=10, noise_rate=0.08)
        builder.add_transition(200)
        trace, _ = builder.build()
        config = DetectorConfig(cw_size=60, threshold=0.8)

        plain = PhaseDetector(config).run(trace)
        hysteresis_detector = build_extended_detector(
            config, analyzer=HysteresisAnalyzer(enter_threshold=0.8, exit_threshold=0.55)
        )
        hysteretic = hysteresis_detector.run(trace)
        assert len(hysteretic.detected_phases) <= len(plain.detected_phases)
        assert len(hysteretic.detected_phases) >= 1
