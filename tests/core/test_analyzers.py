"""Analyzer policy tests."""

import pytest

from repro.core.analyzers import (
    AverageAnalyzer,
    PhaseStats,
    ThresholdAnalyzer,
    build_analyzer,
)
from repro.core.config import AnalyzerKind, DetectorConfig
from repro.core.state import PhaseState

P, T = PhaseState.PHASE, PhaseState.TRANSITION


class TestThresholdAnalyzer:
    def test_at_threshold_is_phase(self):
        analyzer = ThresholdAnalyzer(0.6)
        assert analyzer.process_value(0.6, T) is P
        assert analyzer.process_value(0.59, T) is T

    def test_state_independent(self):
        analyzer = ThresholdAnalyzer(0.5)
        assert analyzer.process_value(0.7, T) is P
        assert analyzer.process_value(0.7, P) is P

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            ThresholdAnalyzer(1.2)

    def test_confidence_above_threshold(self):
        analyzer = ThresholdAnalyzer(0.5)
        analyzer.reset_stats(0.8)
        analyzer.update_stats(0.9)
        assert analyzer.confidence == pytest.approx(0.35)


class TestAverageAnalyzer:
    def test_enter_uses_fixed_threshold(self):
        analyzer = AverageAnalyzer(delta=0.05, enter_threshold=0.5)
        assert analyzer.process_value(0.49, T) is T
        assert analyzer.process_value(0.51, T) is P

    def test_in_phase_adapts_to_running_average(self):
        analyzer = AverageAnalyzer(delta=0.02, enter_threshold=0.5)
        analyzer.reset_stats(0.88)
        # Running average 0.88: values >= 0.86 stay in phase.
        assert analyzer.process_value(0.86, P) is P
        assert analyzer.process_value(0.859, P) is T

    def test_average_updates_with_phase(self):
        analyzer = AverageAnalyzer(delta=0.02)
        analyzer.reset_stats(0.9)
        analyzer.update_stats(0.7)  # mean now 0.8
        assert analyzer.process_value(0.79, P) is P
        assert analyzer.process_value(0.77, P) is T

    def test_clear_resets_to_entry_mode(self):
        analyzer = AverageAnalyzer(delta=0.5, enter_threshold=0.9)
        analyzer.reset_stats(0.95)
        analyzer.clear()
        # Without stats the entry threshold applies even if state is P.
        assert analyzer.process_value(0.6, P) is T

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            AverageAnalyzer(delta=-0.1)
        with pytest.raises(ValueError):
            AverageAnalyzer(delta=0.1, enter_threshold=1.5)


class TestPhaseStats:
    def test_running_statistics(self):
        stats = PhaseStats()
        for value in (0.5, 0.7, 0.9):
            stats.add(value)
        assert stats.count == 3
        assert stats.mean == pytest.approx(0.7)

    def test_reset(self):
        stats = PhaseStats()
        stats.add(0.4)
        stats.reset()
        assert stats.count == 0
        assert stats.mean == 0.0


class TestBuildAnalyzer:
    def test_dispatch(self):
        threshold = build_analyzer(
            DetectorConfig(cw_size=4, analyzer=AnalyzerKind.THRESHOLD, threshold=0.7)
        )
        average = build_analyzer(
            DetectorConfig(cw_size=4, analyzer=AnalyzerKind.AVERAGE, delta=0.1)
        )
        assert isinstance(threshold, ThresholdAnalyzer)
        assert threshold.threshold == 0.7
        assert isinstance(average, AverageAnalyzer)
        assert average.delta == 0.1
