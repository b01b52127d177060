"""Streaming detection tests: chunked input == one-shot run."""

import json
import pathlib

import numpy as np
import pytest

from repro.core.config import DetectorConfig, TrailingPolicy
from repro.core.decision import build_engine
from repro.core.detector import PhaseDetector
from repro.core.stream import StreamingDetector, detect_stream
from repro.profiles.io import write_trace_binary
from repro.profiles.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def trace():
    builder = SyntheticTraceBuilder(seed=81)
    builder.add_transition(200)
    builder.add_phase(1_500, body_size=10)
    builder.add_transition(150)
    builder.add_phase(1_200, body_size=20)
    builder.add_transition(100)
    return builder.build()[0]


def config(**kwargs):
    defaults = dict(cw_size=80, threshold=0.6)
    defaults.update(kwargs)
    return DetectorConfig(**defaults)


class TestStreamingDetector:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
    def test_matches_one_shot(self, trace, chunk):
        cfg = config()
        one_shot = PhaseDetector(cfg).run(trace)
        streaming = StreamingDetector(cfg)
        data = trace.array
        for start in range(0, len(trace), chunk):
            streaming.feed(data[start : start + chunk])
        result = streaming.finish()
        assert np.array_equal(result.states, one_shot.states)
        assert result.detected_phases == one_shot.detected_phases

    @pytest.mark.parametrize("skip", [3, 50])
    def test_matches_one_shot_with_skip(self, trace, skip):
        cfg = config(skip_factor=skip)
        one_shot = PhaseDetector(cfg).run(trace)
        streaming = StreamingDetector(cfg)
        streaming.feed(trace.array)
        result = streaming.finish()
        assert np.array_equal(result.states, one_shot.states)
        assert result.detected_phases == one_shot.detected_phases

    def test_groups_by_the_engines_skip(self, trace):
        """dhodapkar_smith's builder turns skip 1 into skip = cw; the
        stream must cut its feed on the engine's groups, not the
        config's."""
        cfg = DetectorConfig(family="dhodapkar_smith", cw_size=50)
        one_shot = build_engine(cfg).run(trace)
        streaming = StreamingDetector(cfg)
        data = trace.array
        for start in range(0, len(trace), 37):
            streaming.feed(data[start : start + 37])
        result = streaming.finish()
        assert np.array_equal(result.states, one_shot.states)
        assert result.detected_phases == one_shot.detected_phases

    def test_boundary_callbacks(self, trace):
        events = []
        streaming = StreamingDetector(
            config(), on_boundary=lambda kind, pos: events.append((kind, pos))
        )
        streaming.feed(trace.array)
        result = streaming.finish()
        starts = [pos for kind, pos in events if kind == "start"]
        ends = [pos for kind, pos in events if kind == "end"]
        assert len(starts) == len(result.detected_phases)
        assert len(ends) == len(result.detected_phases)
        for phase, start, end in zip(result.detected_phases, starts, ends):
            assert phase.detected_start == start
            assert phase.end == end

    def test_end_fires_at_stream_end_for_open_phase(self):
        builder = SyntheticTraceBuilder(seed=82)
        builder.add_phase(800, body_size=6)
        trace, _ = builder.build()
        events = []
        streaming = StreamingDetector(
            config(cw_size=40), on_boundary=lambda kind, pos: events.append((kind, pos))
        )
        streaming.feed(trace.array)
        streaming.finish()
        assert events[-1][0] == "end"
        assert events[-1][1] == len(trace)

    def test_position_tracks_consumption(self, trace):
        streaming = StreamingDetector(config(skip_factor=7))
        streaming.feed(trace.array[:100])
        # 100 elements = 14 full groups of 7 consumed; 2 buffered.
        assert streaming.position == 98
        streaming.finish()
        assert streaming.position == 100


class TestDetectStream:
    def test_from_file(self, trace, tmp_path):
        path = tmp_path / "t.btrace"
        write_trace_binary(trace, path)
        cfg = config(trailing=TrailingPolicy.ADAPTIVE)
        from_file = detect_stream(str(path), cfg, chunk_size=256)
        one_shot = PhaseDetector(cfg).run(trace)
        assert np.array_equal(from_file.states, one_shot.states)
        assert from_file.detected_phases == one_shot.detected_phases

    def test_from_iterable(self, trace):
        cfg = config()
        chunks = [trace.array[i : i + 500] for i in range(0, len(trace), 500)]
        result = detect_stream(chunks, cfg)
        one_shot = PhaseDetector(cfg).run(trace)
        assert np.array_equal(result.states, one_shot.states)

    def test_pathlib_path_source(self, trace, tmp_path):
        """Regression: a pathlib.Path source must stream identically to
        both the str path and the in-memory run (detect_stream once
        special-cased str only)."""
        path = tmp_path / "t.btrace"
        write_trace_binary(trace, path)
        cfg = config()
        assert isinstance(path, pathlib.Path)
        from_path = detect_stream(path, cfg, chunk_size=300)
        from_str = detect_stream(str(path), cfg, chunk_size=300)
        one_shot = PhaseDetector(cfg).run(trace)
        assert np.array_equal(from_path.states, one_shot.states)
        assert from_path.detected_phases == one_shot.detected_phases
        assert np.array_equal(from_path.states, from_str.states)
        assert from_path.detected_phases == from_str.detected_phases


class TestStreamCheckpoint:
    @pytest.mark.parametrize("cut", [137, 1_000, 2_600])
    def test_resume_matches_uninterrupted(self, trace, cut):
        """Checkpoint mid-stream (including with a partial group pending),
        JSON round-trip, restore, feed the rest: identical output."""
        cfg = config(skip_factor=7)
        data = trace.array

        full = StreamingDetector(cfg)
        full.feed(data)
        full_result = full.finish()

        head = StreamingDetector(cfg)
        head.feed(data[:cut])
        blob = json.dumps(head.checkpoint())

        resumed = StreamingDetector.restore(json.loads(blob))
        assert resumed.elements_fed == cut
        resumed.feed(data[cut:])
        result = resumed.finish()

        assert np.array_equal(result.states, full_result.states)
        assert result.detected_phases == full_result.detected_phases

    def test_boundary_callbacks_survive_resume(self, trace):
        cfg = config()
        data = trace.array
        full_events = []
        full = StreamingDetector(
            cfg, on_boundary=lambda kind, pos: full_events.append((kind, pos))
        )
        full.feed(data)
        full.finish()

        events = []
        head = StreamingDetector(
            cfg, on_boundary=lambda kind, pos: events.append((kind, pos))
        )
        head.feed(data[:1_500])
        resumed = StreamingDetector.restore(
            head.checkpoint(),
            on_boundary=lambda kind, pos: events.append((kind, pos)),
        )
        resumed.feed(data[1_500:])
        resumed.finish()
        assert events == full_events

    @pytest.mark.parametrize(
        "edit, match",
        [
            # each of these used to be accepted
            pytest.param(
                lambda s: s.update(position=s["position"] + 1), "position",
                id="position-past-consumed",
            ),
            pytest.param(
                lambda s: s.update(position=-1), "position", id="negative-position"
            ),
            pytest.param(
                lambda s: s.update(buffer=[0] * 50), "buffer", id="long-buffer"
            ),
            pytest.param(
                lambda s: s["buffer"].__setitem__(0, 1.5), "buffer element",
                id="float-buffer-element",
            ),
            # the version 2 fields: the stream keeps no per-element history
            pytest.param(
                lambda s: s.update(states="AA=="), r"unknown fields \['states'\]",
                id="leftover-states",
            ),
            pytest.param(
                lambda s: s.update(in_phase=False), r"unknown fields \['in_phase'\]",
                id="leftover-in-phase",
            ),
        ],
    )
    def test_impossible_stream_section_rejected(self, trace, edit, match):
        from repro.core.decision import CheckpointError

        head = StreamingDetector(config(skip_factor=3))
        head.feed(trace.array[:1_001])
        data = json.loads(json.dumps(head.checkpoint()))
        assert sorted(data["stream"]) == ["buffer", "position"]
        assert len(data["stream"]["buffer"]) == 2
        StreamingDetector.restore(json.loads(json.dumps(data)))  # restores as is
        edit(data["stream"])
        with pytest.raises(CheckpointError, match=match):
            StreamingDetector.restore(data)

    def test_missing_stream_section_rejected(self, trace):
        from repro.core.runtime import CheckpointError, DetectorRuntime

        runtime = DetectorRuntime(config())
        runtime.step(trace.array[:1].tolist())
        with pytest.raises(CheckpointError, match="stream"):
            StreamingDetector.restore(runtime.checkpoint())
