"""Unified runtime tests: step/advance equivalence, StepOutcome, checkpoints.

The checkpoint contract is the strong one the docs promise: suspend a
runtime mid-trace, round-trip the checkpoint through JSON, restore, and
the continuation is *bit-identical* to never having stopped — same
per-element states, same phases, same observability event stream, and
the same end-of-run checkpoint.
"""

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
from repro.core.extensions import (
    AsymmetricWeightedModel,
    HysteresisAnalyzer,
    JaccardSetModel,
)
from repro.core.models import UnweightedSetModel
from repro.core.runtime import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    DetectorRuntime,
    StepOutcome,
    validate_checkpoint,
)
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def trace():
    builder = SyntheticTraceBuilder(seed=37)
    builder.add_transition(180)
    first = builder.add_phase(1_100, body_size=9, noise_rate=0.02)
    builder.add_transition(90)
    builder.add_phase(700, body_size=22)
    builder.add_transition(120)
    builder.add_phase(900, pattern_id=first.pattern_id, noise_rate=0.01)
    builder.add_transition(60)
    return builder.build()[0]


def combo_config(model, analyzer, trailing=TrailingPolicy.ADAPTIVE,
                 resize=ResizePolicy.SLIDE, skip=5):
    return DetectorConfig(
        cw_size=60,
        skip_factor=skip,
        trailing=trailing,
        model=model,
        analyzer=analyzer,
        threshold=0.55,
        delta=0.08,
        anchor=AnchorPolicy.RN,
        resize=resize,
    )


ALL_COMBOS = [
    (model, analyzer)
    for model in (ModelKind.UNWEIGHTED, ModelKind.WEIGHTED)
    for analyzer in (AnalyzerKind.THRESHOLD, AnalyzerKind.AVERAGE)
]


def drive_steps(runtime, trace, start=0, stop=None):
    """Feed trace[start:stop] through step(); return per-element states."""
    elements = trace.array.tolist()
    stop = len(elements) if stop is None else stop
    skip = runtime.config.skip_factor
    states = []
    for offset in range(start, stop, skip):
        outcome = runtime.step(elements[offset : offset + skip])
        states.extend([outcome.state.is_phase()] * len(elements[offset : offset + skip]))
    return states


class TestStepOutcome:
    def test_similarity_none_while_filling(self, trace):
        runtime = DetectorRuntime(combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD))
        outcome = runtime.step(trace.array[:5].tolist())
        assert isinstance(outcome, StepOutcome)
        assert outcome.similarity is None
        assert not outcome.entered
        assert outcome.closed is None

    def test_similarity_matches_emitted_decision_value(self, trace):
        """The outcome carries the exact value the decision used."""
        sink = MemorySink()
        runtime = DetectorRuntime(
            combo_config(ModelKind.WEIGHTED, AnalyzerKind.AVERAGE), observer=sink
        )
        recorded = []
        elements = trace.array.tolist()
        for start in range(0, 2_000, 5):
            outcome = runtime.step(elements[start : start + 5])
            if outcome.similarity is not None:
                recorded.append(outcome.similarity)
        decided = [e["value"] for e in sink.events if e["ev"] == "decision"]
        assert recorded == decided

    def test_entered_and_closed_flags(self, trace):
        runtime = DetectorRuntime(combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD))
        entered = closed = 0
        elements = trace.array.tolist()
        for start in range(0, len(elements), 5):
            outcome = runtime.step(elements[start : start + 5])
            entered += outcome.entered
            closed += outcome.closed is not None
        phases = runtime.finish(len(elements))
        assert entered == len(phases)
        # The final phase (if any) is closed by finish(), not a step.
        assert closed in (len(phases), len(phases) - 1)

    def test_run_records_similarity_once_per_step(self, trace):
        """Regression: record_similarity must not recompute the model's
        similarity after the step (the old detector did, which is wrong
        after a phase-entry resize and costs a second full pass)."""

        calls = {"n": 0}

        class CountingModel(UnweightedSetModel):
            def similarity(self):
                calls["n"] += 1
                return super().similarity()

        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)
        runtime = DetectorRuntime(config, model=CountingModel(config.cw_size, config.effective_tw_size))
        result = runtime.run(trace, record_similarity=True)
        filled_steps = np.count_nonzero(~np.isnan(result.similarity_values)) // config.skip_factor
        assert calls["n"] == filled_steps

    def test_recorded_similarities_are_decision_values(self, trace):
        """After a phase-entry step the TW has been resized; the recorded
        value must still be the pre-resize one the analyzer saw."""
        sink = MemorySink()
        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)
        runtime = DetectorRuntime(config, observer=sink)
        result = runtime.run(trace, record_similarity=True)
        assert result.detected_phases  # the fixture trace has phases
        decided = [e["value"] for e in sink.events if e["ev"] == "decision"]
        recorded = result.similarity_values[~np.isnan(result.similarity_values)]
        per_step = recorded[:: config.skip_factor]
        assert list(per_step) == decided


class TestPathInterleaving:
    @pytest.mark.parametrize("model,analyzer", ALL_COMBOS)
    def test_step_then_advance_matches_pure_runs(self, trace, model, analyzer):
        config = combo_config(model, analyzer)
        skip = config.skip_factor
        total = len(trace)
        cut = (total // 2 // skip) * skip

        pure = DetectorRuntime(config).run(trace)

        mixed = DetectorRuntime(config)
        head_states = drive_steps(mixed, trace, 0, cut)
        elements = trace.array.tolist()
        tail = bytearray(total - cut)
        groups = [elements[s : s + skip] for s in range(cut, total, skip)]
        mixed.advance(groups, tail, 0)
        phases = mixed.finish(total)

        states = np.array(head_states + [b != 0 for b in tail], dtype=bool)
        assert np.array_equal(states, pure.states)
        assert phases == pure.detected_phases

    def test_generic_advance_used_for_custom_components(self, trace):
        """Non-standard components must route advance() through step()."""

        class TracingModel(UnweightedSetModel):
            pass

        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)
        custom = DetectorRuntime(config, model=TracingModel(config.cw_size, config.effective_tw_size))
        assert not custom.fused_capable()
        standard = DetectorRuntime(config)
        assert standard.fused_capable()
        assert np.array_equal(
            custom.run(trace).states, standard.run(trace).states
        )

    @pytest.mark.parametrize(
        "components",
        [
            lambda: {"model": JaccardSetModel(50, 50)},
            lambda: {"model": AsymmetricWeightedModel(50, 50)},
            lambda: {"analyzer": HysteresisAnalyzer()},
        ],
        ids=["jaccard", "asymmetric", "hysteresis"],
    )
    def test_fused_run_with_custom_components_matches_reference(
        self, trace, components
    ):
        """``run(fused=True)`` cannot force the inline loop onto custom
        components: it must equal the reference ``step()`` loop."""
        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)
        reference = DetectorRuntime(config, **components()).run(trace, fused=False)
        fused = DetectorRuntime(config, **components()).run(trace, fused=True)
        assert reference.detected_phases
        assert np.array_equal(fused.states, reference.states)
        assert fused.detected_phases == reference.detected_phases


def checkpoint_matrix_config(model, analyzer, resize):
    return combo_config(model, analyzer, trailing=TrailingPolicy.ADAPTIVE,
                        resize=resize)


class TestCheckpointRestore:
    @pytest.mark.parametrize("resize", [ResizePolicy.SLIDE, ResizePolicy.MOVE])
    @pytest.mark.parametrize("model,analyzer", ALL_COMBOS)
    def test_bit_identical_continuation(self, trace, model, analyzer, resize):
        """checkpoint -> JSON -> restore mid-trace == uninterrupted run:
        same states, phases, event stream, and final checkpoint."""
        config = checkpoint_matrix_config(model, analyzer, resize)
        skip = config.skip_factor
        total = len(trace)
        # Cut inside the second phase so the checkpoint carries an open
        # phase, live analyzer statistics, and a resized TW.
        cut = (1_500 // skip) * skip

        full_sink = MemorySink()
        full = DetectorRuntime(config, observer=full_sink)
        full_states = drive_steps(full, trace)
        full_phases = full.finish(total)
        full_end = full.checkpoint()

        head_sink = MemorySink()
        head = DetectorRuntime(config, observer=head_sink)
        head_states = drive_steps(head, trace, 0, cut)
        blob = json.dumps(head.checkpoint())

        tail_sink = MemorySink()
        resumed = DetectorRuntime.restore(json.loads(blob), observer=tail_sink)
        assert resumed.consumed == cut
        tail_states = drive_steps(resumed, trace, cut)
        resumed_phases = resumed.finish(total)

        assert head_states + tail_states == full_states
        assert resumed_phases == full_phases
        assert head_sink.events + tail_sink.events == full_sink.events
        assert resumed.checkpoint() == full_end

    def test_checkpoint_equals_checkpoint_of_uninterrupted(self, trace):
        config = checkpoint_matrix_config(
            ModelKind.UNWEIGHTED, AnalyzerKind.AVERAGE, ResizePolicy.SLIDE
        )
        cut = 1_000
        a = DetectorRuntime(config)
        drive_steps(a, trace, 0, cut)
        b = DetectorRuntime.restore(a.checkpoint())
        assert b.checkpoint() == a.checkpoint()

    def test_restore_continues_on_fused_path(self, trace):
        """A restored runtime may continue via advance() too."""
        config = checkpoint_matrix_config(
            ModelKind.WEIGHTED, AnalyzerKind.THRESHOLD, ResizePolicy.MOVE
        )
        skip = config.skip_factor
        total = len(trace)
        cut = (1_500 // skip) * skip

        full = DetectorRuntime(config).run(trace)

        head = DetectorRuntime(config)
        drive_steps(head, trace, 0, cut)
        resumed = DetectorRuntime.restore(head.checkpoint())
        elements = trace.array.tolist()
        tail = bytearray(total - cut)
        groups = [elements[s : s + skip] for s in range(cut, total, skip)]
        resumed.advance(groups, tail, 0)
        phases = resumed.finish(total)
        assert phases == full.detected_phases
        assert np.array_equal(
            np.frombuffer(bytes(tail), dtype=np.uint8).astype(bool),
            full.states[cut:],
        )

    def test_json_round_trip_is_exact(self, trace):
        config = checkpoint_matrix_config(
            ModelKind.WEIGHTED, AnalyzerKind.AVERAGE, ResizePolicy.SLIDE
        )
        runtime = DetectorRuntime(config)
        drive_steps(runtime, trace, 0, 2_000)
        data = runtime.checkpoint()
        assert json.loads(json.dumps(data)) == data


class TestCheckpointValidation:
    def _checkpoint(self):
        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)
        runtime = DetectorRuntime(config)
        runtime.step([1, 2, 3, 4, 5])
        return runtime.checkpoint()

    def test_envelope_fields(self):
        data = self._checkpoint()
        assert data["format"] == CHECKPOINT_FORMAT
        assert data["version"] == CHECKPOINT_VERSION
        validate_checkpoint(data)  # must not raise

    def test_unknown_version_rejected(self):
        data = self._checkpoint()
        data["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            DetectorRuntime.restore(data)

    def test_wrong_format_rejected(self):
        data = self._checkpoint()
        data["format"] = "something-else"
        with pytest.raises(CheckpointError, match="format"):
            validate_checkpoint(data)

    def test_missing_fields_rejected(self):
        data = self._checkpoint()
        del data["cw"], data["stats"]
        with pytest.raises(CheckpointError, match="missing"):
            validate_checkpoint(data)

    def test_non_dict_rejected(self):
        with pytest.raises(CheckpointError):
            validate_checkpoint([1, 2, 3])

    def test_custom_components_cannot_checkpoint(self):
        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)

        class OtherModel(UnweightedSetModel):
            pass

        runtime = DetectorRuntime(config, model=OtherModel(config.cw_size, config.effective_tw_size))
        with pytest.raises(CheckpointError, match="standard"):
            runtime.checkpoint()


class TestObserverPlumbing:
    def test_observer_setter_reaches_model_and_tracker(self):
        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)
        runtime = DetectorRuntime(config)
        sink = MemorySink()
        runtime.observer = sink
        assert runtime.model.observer is sink
        assert runtime.tracker.observer is sink

    def test_event_stream_has_all_types(self, trace):
        sink = MemorySink()
        config = combo_config(ModelKind.UNWEIGHTED, AnalyzerKind.THRESHOLD)
        DetectorRuntime(config, observer=sink).run(trace)
        kinds = {event["ev"] for event in sink.events}
        assert {"run_begin", "similarity", "decision", "phase_enter",
                "tw_resize", "phase_exit", "window_flush", "run_end"} <= kinds
