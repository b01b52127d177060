"""Event schema, JSONL round-trip, torn-write tolerance, and replay."""

import json

import pytest

from repro.core.config import (
    AnalyzerKind,
    DetectorConfig,
    ModelKind,
    TrailingPolicy,
)
from repro.core.detector import PhaseDetector
from repro.core.engine import run_detector
from repro.obs.bus import (
    EventBus,
    EventTraceError,
    JsonlSink,
    MemorySink,
    NullSink,
    read_events,
)
from repro.obs.events import (
    EVENT_TYPES,
    EventSchemaError,
    observes,
    replay_phases,
    replay_transitions,
    validate_event,
)
from repro.profiles.synthetic import make_phased_trace

TRACE, _ = make_phased_trace(
    num_phases=3, phase_length=900, transition_length=150, body_size=9, seed=5
)
CONFIG = DetectorConfig(cw_size=60, skip_factor=5, threshold=0.55,
                        trailing=TrailingPolicy.ADAPTIVE)


def run_with_memory(trace=TRACE, config=CONFIG):
    sink = MemorySink()
    result = run_detector(trace, config, observer=sink)
    return result, sink.events


class TestSchema:
    def test_every_emitted_event_validates(self):
        _, events = run_with_memory()
        assert events, "expected a non-empty event stream"
        for event in events:
            validate_event(event)

    def test_all_documented_types_are_emitted(self):
        _, events = run_with_memory()
        assert {e["ev"] for e in events} == set(EVENT_TYPES)

    def test_missing_base_field_rejected(self):
        with pytest.raises(EventSchemaError, match="missing required field"):
            validate_event({"ev": "run_end", "phases": 1, "elements": 2})

    def test_unknown_type_rejected(self):
        with pytest.raises(EventSchemaError, match="unknown event type"):
            validate_event({"ev": "nope", "step": 0})

    def test_missing_payload_field_rejected(self):
        with pytest.raises(EventSchemaError, match="missing field"):
            validate_event({"ev": "window_flush", "step": 10})

    def test_extra_field_rejected(self):
        with pytest.raises(EventSchemaError, match="undocumented"):
            validate_event(
                {"ev": "window_flush", "step": 10, "seeded": 5, "extra": 1}
            )

    def test_bool_is_not_an_int(self):
        with pytest.raises(EventSchemaError):
            validate_event({"ev": "window_flush", "step": True, "seeded": 5})

    def test_mistyped_payload_rejected(self):
        with pytest.raises(EventSchemaError):
            validate_event({"ev": "window_flush", "step": 1, "seeded": "five"})


class TestJsonlRoundTrip:
    def test_every_event_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path, validate=True) as sink:
            result = run_detector(TRACE, CONFIG, observer=sink)
        reloaded = list(read_events(path, validate=True))
        _, direct = run_with_memory()
        assert reloaded == direct
        assert sink.emitted == len(reloaded)
        assert replay_phases(reloaded) == result.detected_phases

    def test_unbuffered_sink_flushes_each_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, buffered=False)
        sink.emit({"ev": "window_flush", "step": 1, "seeded": 2})
        # Not closed, yet the event must already be on disk.
        assert list(read_events(path)) == [
            {"ev": "window_flush", "step": 1, "seeded": 2}
        ]
        sink.close()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"ev": "window_flush", "step": 1, "seeded": 2})


class TestConcurrentWriters:
    def test_interleaved_threads_write_whole_lines(self, tmp_path):
        # Many session writers sharing one sink (the serving setup):
        # lines may interleave across writers, but every line must be
        # one intact event and nothing may be lost.
        import threading

        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        per_writer = 500

        def writer(writer_id: int) -> None:
            for step in range(per_writer):
                sink.emit({
                    "ev": "window_flush",
                    "step": step,
                    "seeded": writer_id,
                })

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        events = list(read_events(path, validate=True))
        assert len(events) == 8 * per_writer
        assert sink.emitted == 8 * per_writer
        # Per-writer order is preserved even though writers interleave.
        for writer_id in range(8):
            steps = [e["step"] for e in events if e["seeded"] == writer_id]
            assert steps == list(range(per_writer))

    def test_emit_close_race_raises_cleanly(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"ev": "window_flush", "step": 1, "seeded": 2})


class TestTornWrites:
    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            result = run_detector(TRACE, CONFIG, observer=sink)
        text = path.read_text(encoding="utf-8")
        # Tear the file mid-way through its final line.
        path.write_text(text[: len(text) - 17], encoding="utf-8")
        events = list(read_events(path, validate=True))
        assert len(events) == sink.emitted - 1
        # The trace is still usable: phase_exits before the tear replay.
        assert replay_phases(events) == result.detected_phases

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"ev":"run_begin","step":0,"trace":"t","elements":1,"config":"c"}\n'
            "{torn garbage\n"
            '{"ev":"run_end","step":1,"phases":0,"elements":1}\n',
            encoding="utf-8",
        )
        with pytest.raises(EventTraceError, match="undecodable"):
            list(read_events(path))

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("[1,2,3]\nmore\n", encoding="utf-8")
        with pytest.raises(EventTraceError, match="not a JSON object"):
            list(read_events(path))


class TestReplay:
    def test_replay_matches_both_implementations(self):
        reference_sink = MemorySink()
        engine_sink = MemorySink()
        reference = PhaseDetector(CONFIG, observer=reference_sink).run(TRACE)
        engine = run_detector(TRACE, CONFIG, observer=engine_sink)
        assert replay_phases(reference_sink.events) == reference.detected_phases
        assert replay_phases(engine_sink.events) == engine.detected_phases

    def test_transitions_alternate_and_are_ordered(self):
        _, events = run_with_memory()
        edges = replay_transitions(events)
        assert edges, "expected at least one transition"
        kinds = [kind for _, kind in edges]
        assert kinds[0] == "enter"
        for previous, current in zip(kinds, kinds[1:]):
            assert previous != current, "enter/exit edges must alternate"
        steps = [step for step, _ in edges]
        assert steps == sorted(steps)


class TestSinks:
    def test_null_sink_swallows(self):
        sink = NullSink()
        sink.emit({"ev": "run_end", "step": 0, "phases": 0, "elements": 0})
        sink.close()

    def test_bus_fans_out_and_unsubscribes(self):
        bus = EventBus()
        first, second = MemorySink(), MemorySink()
        bus.subscribe(first)
        bus.subscribe(second)
        event = {"ev": "window_flush", "step": 3, "seeded": 1}
        bus.emit(event)
        bus.unsubscribe(second)
        bus.emit(event)
        assert len(first.events) == 2
        assert len(second.events) == 1

    def test_bus_kinds_are_the_union_of_its_sinks(self):
        class Declared(MemorySink):
            __slots__ = ("kinds",)

            def __init__(self, kinds):
                super().__init__()
                self.kinds = frozenset(kinds)

        bus = EventBus()
        assert bus.kinds == frozenset()
        enter, exit_ = Declared({"phase_enter"}), Declared({"phase_exit"})
        bus.subscribe(enter)
        bus.subscribe(exit_)
        assert bus.kinds == {"phase_enter", "phase_exit"}
        bus.emit({"ev": "phase_exit", "step": 1, "detected_start": 0,
                  "corrected_start": 0, "end": 1, "mean_similarity": 1.0})
        bus.emit({"ev": "window_flush", "step": 1, "seeded": 1})
        assert [e["ev"] for e in exit_.events] == ["phase_exit"]
        assert enter.events == []
        bus.subscribe(MemorySink())  # no kinds: wants every type
        assert bus.kinds is None

    def test_observes_rule(self):
        assert not observes(None, "decision")
        assert observes(MemorySink(), "decision")  # no kinds attribute
        assert not observes(NullSink(), "phase_enter")
        assert NullSink.kinds == frozenset()

    def test_null_sink_builds_no_event(self):
        """NullSink declares no kinds, so nothing is handed to it."""

        class CountingNull(NullSink):
            __slots__ = ("count",)

            def __init__(self):
                self.count = 0

            def emit(self, event):
                self.count += 1

        # skip 5 loops step(); skip 1 runs the fused loop.
        for config in (CONFIG, DetectorConfig(cw_size=60, threshold=0.55)):
            sink = CountingNull()
            result = run_detector(TRACE, config, observer=sink)
            assert sink.count == 0
            assert result.detected_phases == run_detector(TRACE, config).detected_phases

    def test_kinds_are_read_when_the_observer_is_attached(self):
        detector = PhaseDetector(CONFIG)
        sink = MemorySink()
        detector.observer = sink
        detector.run(TRACE)
        assert {"similarity", "decision"} <= {e["ev"] for e in sink.events}

    def test_bus_is_a_valid_observer(self):
        bus = EventBus()
        sink = MemorySink()
        bus.subscribe(sink)
        result = run_detector(TRACE, CONFIG, observer=bus)
        assert replay_phases(sink.events) == result.detected_phases

    def test_jsonl_lines_are_compact_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            run_detector(TRACE[:600], CONFIG, observer=sink)
        for line in path.read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            assert isinstance(event, dict)
            assert line == json.dumps(event, separators=(",", ":"))
