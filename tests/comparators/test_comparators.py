"""Related-work detector tests."""

import numpy as np
import pytest

from repro.comparators import dhodapkar_smith_config, run_dhodapkar_smith
from repro.comparators.das_pearson import pearson_correlation
from repro.core.config import DetectorConfig
from repro.core.decision import build_engine
from repro.profiles.synthetic import SyntheticTraceBuilder, make_noise_trace
from repro.profiles.trace import BranchTrace


def phased_trace(seed=0):
    builder = SyntheticTraceBuilder(seed=seed)
    builder.add_transition(600)
    builder.add_phase(4_000, body_size=10)
    builder.add_transition(600)
    builder.add_phase(4_000, body_size=40)
    builder.add_transition(600)
    return builder.build()


class TestDhodapkarSmith:
    def test_config_is_fixed_interval(self):
        config = dhodapkar_smith_config(window_size=128)
        assert config.is_fixed_interval
        assert config.threshold == 0.5
        assert config.model.value == "unweighted"

    def test_detects_long_stable_phase(self):
        trace, specs = phased_trace()
        result = run_dhodapkar_smith(trace, window_size=256)
        # The long phases should be mostly P.
        for spec in specs:
            in_phase = result.states[spec.start : spec.end].mean()
            assert in_phase > 0.5, spec


def window_states(trace, family, window, bar=None):
    """The retroactive per-window colouring: (states, statistics)."""
    config = DetectorConfig(cw_size=window, family=family, stat_threshold=bar)
    return build_engine(config).window_states(trace)


class TestLuDynamo:
    def test_stable_stream_stays_in_phase(self):
        builder = SyntheticTraceBuilder(seed=1)
        builder.add_phase(20_000, body_size=16)
        trace, _ = builder.build()
        states, _ = window_states(trace, "lu_dynamo", 512)
        # After the 7-window warmup, everything is in phase.
        warm = states[7 * 512 :]
        assert warm.mean() > 0.95

    def test_behavior_change_breaks_phase(self):
        builder = SyntheticTraceBuilder(seed=2)
        builder.add_phase(8_192, body_size=8)
        builder.add_phase(8_192, body_size=8)  # different pattern ids
        trace, _ = builder.build()
        states, _ = window_states(trace, "lu_dynamo", 512)
        boundary_region = states[8_192 - 512 : 8_192 + 2 * 512]
        assert not boundary_region.all()

    def test_window_averages_recorded(self):
        trace = make_noise_trace(length=2_048, seed=3)
        _, statistics = window_states(trace, "lu_dynamo", 256)
        # One statistic per window; the 7 history windows have none.
        assert len(statistics) == 8
        assert np.isnan(statistics[:7]).all() and np.isfinite(statistics[7])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(cw_size=0, family="lu_dynamo")


class TestDasPearson:
    def test_pearson_identical(self):
        counts = {1: 4, 2: 2, 3: 1}
        assert pearson_correlation(counts, dict(counts)) == pytest.approx(1.0)

    def test_pearson_disjoint_is_negative_or_low(self):
        left = {1: 5, 2: 5}
        right = {3: 5, 4: 5}
        assert pearson_correlation(left, right) < 0.0

    def test_pearson_degenerate_vectors(self):
        assert pearson_correlation({}, {}) == 1.0
        assert pearson_correlation({1: 2}, {1: 2}) == 1.0

    def test_stable_phase_high_correlation(self):
        # Pearson needs heterogeneous frequencies (real branch profiles
        # are skewed); a perfectly uniform synthetic phase is degenerate.
        import random

        rng = random.Random(4)
        population = list(range(10, 22))
        weights = [2 ** i for i in range(12)]
        elements = rng.choices(population, weights=weights, k=8_192)
        trace = BranchTrace(elements, name="skewed")
        states, _ = window_states(trace, "das_pearson", 512, bar=0.8)
        assert states[512:].mean() > 0.9

    def test_pattern_change_resets_target(self):
        builder = SyntheticTraceBuilder(seed=5)
        builder.add_phase(4_096, body_size=12)
        builder.add_phase(4_096, body_size=12)
        trace, _ = builder.build()
        _, correlations = window_states(trace, "das_pearson", 512, bar=0.8)
        # Correlation dips at the pattern change (window index 8).
        assert min(correlations[7:10]) < 0.8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(cw_size=0, family="das_pearson")

    def test_states_length(self):
        trace = make_noise_trace(length=1_000, seed=6)
        states, correlations = window_states(trace, "das_pearson", 300)
        assert states.shape == (1_000,)
        assert correlations.shape == (4,)  # three full windows and the tail
