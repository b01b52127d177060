"""Reference detector tests on synthetic traces with known phases."""

import numpy as np
import pytest

from repro.core import (
    AnalyzerKind,
    DetectorConfig,
    ModelKind,
    PhaseDetector,
    PhaseState,
    TrailingPolicy,
    detect,
)
from repro.profiles.synthetic import SyntheticTraceBuilder, make_noise_trace
from repro.scoring import phases_from_states, score_states


def config(**kwargs):
    defaults = dict(cw_size=100, threshold=0.6)
    defaults.update(kwargs)
    return DetectorConfig(**defaults)


class TestBasicDetection:
    def test_finds_all_phases(self, phased_truth):
        trace, specs, truth = phased_truth
        result = detect(trace, config())
        assert len(result.detected_phases) == len(specs)
        score = score_states(result.states, truth)
        assert score.sensitivity == 1.0
        assert score.false_positives == 0.0
        assert score.score > 0.9

    def test_detection_is_late_but_within_phase(self, phased_truth):
        trace, specs, truth = phased_truth
        result = detect(trace, config())
        for phase, spec in zip(result.detected_phases, specs):
            assert spec.start <= phase.detected_start < spec.end
            assert phase.corrected_start <= phase.detected_start

    def test_anchor_correction_recovers_start(self, phased_truth):
        trace, specs, truth = phased_truth
        result = detect(trace, config(trailing=TrailingPolicy.ADAPTIVE))
        for phase, spec in zip(result.detected_phases, specs):
            assert abs(phase.corrected_start - spec.start) <= 5

    def test_pure_noise_detects_nothing(self):
        trace = make_noise_trace(length=3_000, seed=3)
        result = detect(trace, config())
        assert len(result.detected_phases) == 0
        assert not result.states.any()

    def test_pure_periodic_is_one_phase(self):
        builder = SyntheticTraceBuilder(seed=4)
        builder.add_phase(5_000, body_size=12)
        trace, _ = builder.build()
        result = detect(trace, config())
        assert len(result.detected_phases) == 1
        phase = result.detected_phases[0]
        assert phase.end == len(trace)

    def test_output_one_state_per_element(self, phased_truth):
        trace, _, _ = phased_truth
        result = detect(trace, config(skip_factor=7))
        assert result.states.shape == (len(trace),)


class TestFrameworkLoop:
    def test_initial_state_transition(self):
        detector = PhaseDetector(config())
        assert detector.state is PhaseState.TRANSITION

    def test_outputs_t_until_windows_fill(self, phased_truth):
        trace, _, _ = phased_truth
        detector = PhaseDetector(config(cw_size=50))
        for index in range(99):
            state = detector.process_profile([trace[index]])
            assert state is PhaseState.TRANSITION

    def test_windows_cleared_at_phase_end(self):
        builder = SyntheticTraceBuilder(seed=5)
        builder.add_phase(800, body_size=6)
        builder.add_transition(400)
        trace, _ = builder.build()
        cfg = config(cw_size=50)
        detector = PhaseDetector(cfg)
        result = detector.run(trace)
        assert len(result.detected_phases) == 1
        end = result.detected_phases[0].end
        # After the phase ends the windows must refill before any P:
        # at least cw+tw elements of T follow the phase end.
        refill = result.states[end : end + 100]
        assert not refill.any()

    def test_finish_closes_open_phase(self):
        builder = SyntheticTraceBuilder(seed=6)
        builder.add_phase(600, body_size=5)
        trace, _ = builder.build()
        detector = PhaseDetector(config(cw_size=40))
        result = detector.run(trace)
        # The result closes the phase at the end; the detector keeps it
        # open, as the stream may go on.
        assert result.detected_phases[-1].end == len(trace)
        assert detector.state is PhaseState.PHASE

    def test_record_similarity(self, phased_truth):
        """The similarity series is what a ``similarity`` observer
        receives: one value per filled step."""
        trace, _, _ = phased_truth

        class Series:
            kinds = frozenset({"similarity"})

            def __init__(self):
                self.events = []

            def emit(self, event):
                self.events.append(event)

        series = Series()
        PhaseDetector(config(), observer=series).run(trace)
        steps = [event["step"] for event in series.events]
        values = np.array([event["value"] for event in series.events])
        assert steps[0] == 200  # the windows fill at element 200
        assert steps == sorted(set(steps)) and steps[-1] <= len(trace)
        assert ((0.0 <= values) & (values <= 1.0)).all()


class TestSkipFactor:
    @pytest.mark.parametrize("skip", [1, 3, 10, 100])
    def test_phase_found_at_any_skip(self, skip):
        builder = SyntheticTraceBuilder(seed=8)
        builder.add_transition(300)
        builder.add_phase(3_000, body_size=10)
        builder.add_transition(300)
        trace, specs = builder.build()
        result = detect(trace, config(cw_size=100, skip_factor=skip))
        assert len(result.detected_phases) >= 1
        longest = max(result.detected_phases, key=lambda p: p.length)
        spec = specs[0]
        assert longest.detected_start < spec.end
        assert longest.end > spec.start + spec.length // 2

    def test_larger_skip_coarser_states(self):
        builder = SyntheticTraceBuilder(seed=9)
        builder.add_transition(200)
        builder.add_phase(2_000, body_size=10)
        trace, specs = builder.build()
        fine = detect(trace, config(cw_size=100, skip_factor=1))
        coarse = detect(trace, config(cw_size=100, skip_factor=100))
        spec = specs[0]
        fine_start = fine.detected_phases[0].detected_start
        coarse_start = coarse.detected_phases[0].detected_start
        # Both late; the coarse detector can only react on step boundaries.
        assert fine_start >= spec.start
        assert coarse_start % 100 == 0


class TestModelsAndAnalyzers:
    @pytest.mark.parametrize("model", [ModelKind.UNWEIGHTED, ModelKind.WEIGHTED])
    @pytest.mark.parametrize(
        "trailing", [TrailingPolicy.CONSTANT, TrailingPolicy.ADAPTIVE]
    )
    def test_all_combinations_detect(self, model, trailing, phased_truth):
        trace, specs, truth = phased_truth
        result = detect(trace, config(model=model, trailing=trailing))
        score = score_states(result.states, truth)
        assert score.score > 0.85

    def test_average_analyzer_on_noisy_phase(self, noisy_phased_trace):
        trace, specs = noisy_phased_trace
        cfg = config(
            analyzer=AnalyzerKind.AVERAGE,
            delta=0.2,
            enter_threshold=0.5,
            cw_size=60,
        )
        result = detect(trace, cfg)
        truth = np.zeros(len(trace), dtype=bool)
        for spec in specs:
            truth[spec.start : spec.end] = True
        score = score_states(result.states, truth)
        assert score.correlation > 0.7


class TestConfidence:
    def test_clean_phase_high_confidence(self):
        builder = SyntheticTraceBuilder(seed=12)
        builder.add_transition(200)
        builder.add_phase(2_000, body_size=10)
        builder.add_transition(200)
        trace, _ = builder.build()
        result = detect(trace, config())
        (phase,) = result.detected_phases
        assert phase.mean_similarity > 0.9
        assert phase.confidence == phase.mean_similarity

    def test_noisy_phase_lower_confidence(self):
        clean_builder = SyntheticTraceBuilder(seed=13)
        clean_builder.add_transition(200)
        clean_builder.add_phase(2_000, body_size=10)
        clean, _ = clean_builder.build()
        noisy_builder = SyntheticTraceBuilder(seed=13)
        noisy_builder.add_transition(200)
        noisy_builder.add_phase(2_000, body_size=10, noise_rate=0.15)
        noisy, _ = noisy_builder.build()
        cfg = config(threshold=0.4)
        clean_conf = max(p.mean_similarity for p in detect(clean, cfg).detected_phases)
        noisy_conf = max(p.mean_similarity for p in detect(noisy, cfg).detected_phases)
        assert clean_conf > noisy_conf


class TestStreamingEquivalence:
    """Feeding the detector in arbitrary chunk sizes == one-shot run()."""

    @pytest.mark.parametrize("chunk", [1, 13, 500])
    def test_chunked_process_profile_matches_run(self, chunk, phased_truth):
        trace, _, _ = phased_truth
        cfg = config(cw_size=80, skip_factor=1)
        one_shot = PhaseDetector(cfg).run(trace)

        streamed = PhaseDetector(cfg)
        states = np.zeros(len(trace), dtype=bool)
        data = trace.array.tolist()
        position = 0
        # Streaming client: buffer arbitrary-size chunks, hand the
        # detector exactly skip_factor elements per call.
        buffer = []
        for start in range(0, len(data), chunk):
            buffer.extend(data[start : start + chunk])
            while len(buffer) >= cfg.skip_factor:
                group, buffer = buffer[: cfg.skip_factor], buffer[cfg.skip_factor :]
                state = streamed.process_profile(group)
                if state.is_phase():
                    states[position : position + len(group)] = True
                position += len(group)
        if buffer:
            state = streamed.process_profile(buffer)
            if state.is_phase():
                states[position:] = True
        phases = streamed.finish(len(trace))
        assert np.array_equal(states, one_shot.states)
        assert phases == one_shot.detected_phases
