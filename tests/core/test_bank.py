"""DetectorBank tests: bank members == solo runs, events and all."""

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
from repro.core.bank import DetectorBank
from repro.core.engine import run_detector
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def trace():
    builder = SyntheticTraceBuilder(seed=53)
    builder.add_transition(160)
    builder.add_phase(1_200, body_size=8, noise_rate=0.02)
    builder.add_transition(110)
    builder.add_phase(800, body_size=18)
    builder.add_transition(90)
    return builder.build()[0]


def grid_configs():
    """A mixed grid: models x analyzers x trailing, across 3 skip factors."""
    configs = []
    skips = (1, 5, 12)
    index = 0
    for model in ModelKind:
        for analyzer in AnalyzerKind:
            for trailing in TrailingPolicy:
                configs.append(
                    DetectorConfig(
                        cw_size=50,
                        skip_factor=skips[index % len(skips)],
                        trailing=trailing,
                        model=model,
                        analyzer=analyzer,
                        threshold=0.55,
                        delta=0.07,
                        anchor=AnchorPolicy.RN,
                        resize=ResizePolicy.SLIDE,
                    )
                )
                index += 1
    return configs


class TestEquivalence:
    def test_mixed_grid_matches_solo_runs(self, trace):
        configs = grid_configs()
        solo = [run_detector(trace, config) for config in configs]
        banked = DetectorBank(configs).run(trace)
        assert len(banked) == len(solo)
        for config, a, b in zip(configs, solo, banked):
            assert np.array_equal(a.states, b.states), config.describe()
            assert a.detected_phases == b.detected_phases, config.describe()
            assert b.config == config

    def test_duplicate_configs_share_a_lane(self, trace):
        config = DetectorConfig(cw_size=40, skip_factor=7, threshold=0.6)
        banked = DetectorBank([config, config, config]).run(trace)
        solo = run_detector(trace, config)
        for result in banked:
            assert np.array_equal(result.states, solo.states)
            assert result.detected_phases == solo.detected_phases

    def test_event_streams_match_solo_runs(self, trace):
        configs = grid_configs()[:4]
        solo_sinks = [MemorySink() for _ in configs]
        for config, sink in zip(configs, solo_sinks):
            run_detector(trace, config, observer=sink)
        bank_sinks = [MemorySink() for _ in configs]
        DetectorBank(configs, observers=bank_sinks).run(trace)
        for solo, banked in zip(solo_sinks, bank_sinks):
            assert banked.events == solo.events

    def test_partial_observers_allowed(self, trace):
        configs = grid_configs()[:3]
        sink = MemorySink()
        DetectorBank(configs, observers=[None, sink, None]).run(trace)
        assert sink.events[0]["ev"] == "run_begin"
        assert sink.events[-1]["ev"] == "run_end"


class TestConstruction:
    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DetectorBank([])

    def test_observer_count_mismatch_rejected(self):
        config = DetectorConfig(cw_size=40, threshold=0.6)
        with pytest.raises(ValueError, match="observers"):
            DetectorBank([config, config], observers=[MemorySink()])

    def test_len_and_configs(self):
        configs = grid_configs()
        bank = DetectorBank(configs)
        assert len(bank) == len(configs)
        assert bank.configs == configs
