"""Session lifecycle and the park/rehydrate bit-identity guarantee."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.config import (
    AnalyzerKind,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.decision import CheckpointError
from repro.core.engine import run_detector
from repro.core.stream import StreamingDetector
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import make_phased_trace
from repro.serve.protocol import ProtocolError
from repro.serve.session import (
    PHASE_EVENT_KINDS,
    PhaseEventObserver,
    Session,
    SessionError,
    SessionState,
)

#: The checkpoint matrix: model x analyzer x trailing, plus both
#: resize policies on the adaptive side.
MATRIX = {
    "unweighted-threshold-constant": DetectorConfig(cw_size=200, threshold=0.6),
    "weighted-threshold-constant": DetectorConfig(
        cw_size=200, model=ModelKind.WEIGHTED, threshold=0.6
    ),
    "unweighted-average-adaptive-slide": DetectorConfig(
        cw_size=200,
        analyzer=AnalyzerKind.AVERAGE,
        trailing=TrailingPolicy.ADAPTIVE,
        resize=ResizePolicy.SLIDE,
    ),
    "weighted-threshold-adaptive-move": DetectorConfig(
        cw_size=200,
        model=ModelKind.WEIGHTED,
        trailing=TrailingPolicy.ADAPTIVE,
        resize=ResizePolicy.MOVE,
        threshold=0.6,
    ),
    "weighted-average-adaptive-move": DetectorConfig(
        cw_size=200,
        model=ModelKind.WEIGHTED,
        analyzer=AnalyzerKind.AVERAGE,
        trailing=TrailingPolicy.ADAPTIVE,
        resize=ResizePolicy.MOVE,
    ),
    "skip-factor": DetectorConfig(cw_size=120, skip_factor=5, threshold=0.6),
}


@pytest.fixture(scope="module")
def trace():
    trace, _specs = make_phased_trace(
        num_phases=3, phase_length=1_200, transition_length=150, body_size=10,
        seed=23,
    )
    return trace


def offline_stream(trace, config, length):
    """The reference byte stream: offline run over the same elements."""
    sink = MemorySink()
    run_detector(trace[:length], config, observer=sink)
    return encode(
        [e for e in sink.events if e["ev"] in PHASE_EVENT_KINDS]
    )


def encode(events):
    return b"".join(
        json.dumps(e, separators=(",", ":")).encode() + b"\n" for e in events
    )


def make_session(tmp_path, config, buffer):
    return Session(
        "s1", config, tmp_path, on_event=lambda _sid, ev: buffer.append(ev)
    )


class TestLifecycle:
    def test_states_progress(self, tmp_path, trace):
        events = []
        session = make_session(tmp_path, MATRIX["unweighted-threshold-constant"],
                               events)
        assert session.state is SessionState.OPEN
        session.feed(trace.array[:500].tolist())
        assert session.state is SessionState.ACTIVE
        assert session.park()
        assert session.state is SessionState.PARKED
        assert not session.hydrated
        assert session.spool_path.exists()
        session.rehydrate()
        assert session.state is SessionState.REHYDRATED
        session.feed(trace.array[500:900].tolist())
        assert session.state is SessionState.ACTIVE
        summary = session.close()
        assert session.state is SessionState.CLOSED
        assert summary["elements"] == 900
        assert not session.spool_path.exists()

    def test_invalid_sid_rejected(self, tmp_path):
        with pytest.raises(ProtocolError):
            Session("../evil", MATRIX["unweighted-threshold-constant"],
                    tmp_path, on_event=lambda *_: None)

    def test_feed_after_close_raises(self, tmp_path, trace):
        session = make_session(
            tmp_path, MATRIX["unweighted-threshold-constant"], [])
        session.feed(trace.array[:300].tolist())
        session.close()
        with pytest.raises(SessionError):
            session.feed([1, 2, 3])
        with pytest.raises(SessionError):
            session.close()

    def test_park_is_noop_when_parked_or_closed(self, tmp_path, trace):
        session = make_session(
            tmp_path, MATRIX["unweighted-threshold-constant"], [])
        session.feed(trace.array[:300].tolist())
        assert session.park()
        assert not session.park()     # already parked
        session.close()
        assert not session.park()     # closed

    def test_kill_records_prekill_state(self, tmp_path, trace):
        session = make_session(
            tmp_path, MATRIX["unweighted-threshold-constant"], [])
        session.feed(trace.array[:400].tolist())
        session.park()
        session.kill()
        record = session.record()
        assert record["killed"] is True
        assert record["state"] == "closed"
        assert record["state_at_end"] == "parked"
        assert not session.spool_path.exists()
        session.kill()  # idempotent

    def test_record_counts(self, tmp_path, trace):
        events = []
        session = make_session(
            tmp_path, MATRIX["unweighted-threshold-constant"], events)
        session.feed(trace.array[:2000].tolist())
        session.park()
        session.feed(trace.array[2000:4000].tolist())
        session.close()
        record = session.record()
        assert record["events_in"] == 4000
        assert record["chunks_in"] == 2
        assert record["parks"] == 1
        assert record["rehydrations"] == 1
        assert record["events_out"] == len(events)
        assert record["phases"] == sum(
            1 for e in events if e["ev"] == "phase_exit")
        assert record["phases"] >= 1


class TestPhaseEventObserver:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="decisions"):
            PhaseEventObserver(lambda event: None, kinds=("phase_enter", "decisions"))

    def test_known_kinds_and_none_are_accepted(self):
        assert PhaseEventObserver(lambda event: None).kinds == set(PHASE_EVENT_KINDS)
        assert PhaseEventObserver(lambda event: None, kinds=None).kinds is None


class TestParkRehydrateIdentity:
    """Parked/rehydrated streams are byte-identical to uninterrupted runs."""

    @pytest.mark.parametrize("label", sorted(MATRIX))
    def test_single_park_identity(self, tmp_path, trace, label):
        config = MATRIX[label]
        length = 3_000
        events = []
        session = make_session(tmp_path, config, events)
        arr = trace.array[:length]
        session.feed(arr[:1_234].tolist())
        assert session.park()
        session.feed(arr[1_234:2_500].tolist())   # implicit rehydrate
        session.feed(arr[2_500:].tolist())
        session.close()
        assert encode(events) == offline_stream(trace, config, length)

    @pytest.mark.parametrize("label", ["weighted-average-adaptive-move",
                                       "skip-factor"])
    def test_every_chunk_boundary_parks(self, tmp_path, trace, label):
        # Park between *every* chunk, with chunk sizes that tear steps.
        config = MATRIX[label]
        length = 2_400
        events = []
        session = make_session(tmp_path, config, events)
        arr = trace.array[:length]
        position = 0
        for size in (7, 333, 98, 1_001, 500, 461):
            session.feed(arr[position : position + size].tolist())
            position += size
            session.park()
        session.feed(arr[position:].tolist())
        session.close()
        assert encode(events) == offline_stream(trace, config, length)

    def test_park_close_identity(self, tmp_path, trace):
        # Closing a parked session still flushes the final phase.
        config = MATRIX["unweighted-threshold-constant"]
        length = 2_000
        events = []
        session = make_session(tmp_path, config, events)
        session.feed(trace.array[:length].tolist())
        session.park()
        session.close()
        assert encode(events) == offline_stream(trace, config, length)

    def test_spool_file_is_valid_checkpoint_json(self, tmp_path, trace):
        session = make_session(
            tmp_path, MATRIX["unweighted-threshold-constant"], [])
        session.feed(trace.array[:1_000].tolist())
        session.park()
        data = json.loads(session.spool_path.read_text())
        assert data["format"] == "repro-detector-checkpoint"
        assert data["version"] == 3
        assert sorted(data["stream"]) == ["buffer", "position"]

    def test_spool_size_does_not_grow_with_the_stream(self, tmp_path):
        """The spool file keeps no per-element history: on a phase-free
        stream a short and a long session's checkpoints differ only in
        the digits of their two position counters (``consumed`` and
        ``stream.position``)."""
        config = MATRIX["unweighted-threshold-constant"]
        sizes = []
        for length in (2_450, 16_180):
            session = make_session(tmp_path / str(length), config, [])
            # Seven-digit elements that never repeat: no phase opens, and
            # the windows hold the same number of digits either way.
            session.feed(list(range(1_000_000, 1_000_000 + length)))
            session.park()
            text = session.spool_path.read_text()
            assert json.loads(text)["phases"] == []
            sizes.append(len(text) - 2 * len(str(length)))
        assert sizes[0] == sizes[1]


def spool_bytes(config, elements):
    """The bytes a park must leave: the checkpoint of a detector fed the
    same elements uninterrupted, as compact JSON plus a newline."""
    detector = StreamingDetector(config)
    detector.feed(elements)
    text = json.dumps(detector.checkpoint(), separators=(",", ":")) + "\n"
    return text.encode("utf-8")


class TestSpoolContract:
    """A park is one in-place write of ``<sid>.ckpt.json``; a rehydrate
    one read of it."""

    def test_park_leaves_only_the_checkpoint_bytes(self, tmp_path, trace):
        config = MATRIX["weighted-threshold-constant"]
        elements = trace.array[:1_500].tolist()
        session = make_session(tmp_path, config, [])
        session.feed(elements[:700])
        session.park()
        session.feed(elements[700:])
        session.park()
        assert [path.name for path in tmp_path.iterdir()] == ["s1.ckpt.json"]
        assert session.spool_path.read_bytes() == spool_bytes(config, elements)

    def test_park_overwrites_the_same_file(self, tmp_path, trace):
        # In place: no fresh inode per park, as a tmp file renamed over
        # the old checkpoint would make.
        session = make_session(
            tmp_path, MATRIX["unweighted-threshold-constant"], [])
        session.feed(trace.array[:500].tolist())
        session.park()
        inode = session.spool_path.stat().st_ino
        session.feed(trace.array[500:900].tolist())
        session.park()
        assert session.spool_path.stat().st_ino == inode

    def test_shorter_checkpoint_leaves_no_stale_tail(self, tmp_path, trace):
        # Deep in the first phase the Adaptive TW holds ~1,100 elements;
        # the exit at step 1,357 flushes it, so the second checkpoint is
        # a tenth the size of the first.
        config = MATRIX["unweighted-average-adaptive-slide"]
        elements = trace.array[:1_400].tolist()
        events = []
        session = make_session(tmp_path, config, events)
        session.feed(elements[:1_300])
        session.park()
        long_size = session.spool_path.stat().st_size
        session.feed(elements[1_300:])
        session.park()
        assert [e["ev"] for e in events] == ["phase_enter", "phase_exit"]
        assert session.spool_path.stat().st_size * 4 < long_size
        assert session.spool_path.read_bytes() == spool_bytes(config, elements)
        session.close()
        assert encode(events) == offline_stream(trace, config, 1_400)

    def test_park_makes_a_missing_spool_directory(self, tmp_path, trace):
        config = MATRIX["unweighted-threshold-constant"]
        spool = tmp_path / "not" / "yet"
        session = Session("s1", config, spool, on_event=lambda *_: None)
        session.feed(trace.array[:600].tolist())
        assert session.park()
        assert session.spool_path.parent == spool
        session.feed(trace.array[600:1_200].tolist())
        shutil.rmtree(tmp_path / "not")   # removed while the session is resident
        assert session.park()
        assert session.spool_path.read_bytes() == spool_bytes(
            config, trace.array[:1_200].tolist())

    def test_close_and_kill_remove_the_file(self, tmp_path, trace):
        config = MATRIX["unweighted-threshold-constant"]
        closed = Session("closed", config, tmp_path, on_event=lambda *_: None)
        killed = Session("killed", config, tmp_path, on_event=lambda *_: None)
        for session in (closed, killed):
            session.feed(trace.array[:600].tolist())
            session.park()
        assert len(list(tmp_path.iterdir())) == 2
        closed.close()
        killed.kill()
        assert list(tmp_path.iterdir()) == []


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes()[2:])


class TestUnreadableSpool:
    """A damaged spool file fails rehydration with a typed error."""

    @pytest.mark.parametrize("damage", [_truncate, Path.unlink, _not_utf8],
                             ids=["torn", "missing", "not-utf8"])
    def test_rehydrate_raises_checkpoint_error(self, tmp_path, trace, damage):
        session = make_session(
            tmp_path, MATRIX["weighted-average-adaptive-move"], [])
        session.feed(trace.array[:900].tolist())
        session.park()
        damage(session.spool_path)
        with pytest.raises(CheckpointError, match="s1.ckpt.json"):
            session.feed(trace.array[900:1_000].tolist())
        assert session.state is SessionState.PARKED
