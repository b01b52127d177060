"""Session lifecycle and the park/rehydrate bit-identity guarantee."""

from __future__ import annotations

import json
import re
import shutil
import struct
import zlib
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
from repro.serve.spool import MAGIC, PREFIX, decode_record, encode_record

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

    def test_spool_file_is_a_checkpoint_record(self, tmp_path, trace):
        session = make_session(
            tmp_path, MATRIX["unweighted-threshold-constant"], [])
        session.feed(trace.array[:1_003].tolist())
        checkpoint = session._detector.checkpoint()
        session.park()
        data = session.spool_path.read_bytes()
        magic, head_size, payload_size, crc, width = PREFIX.unpack_from(data)
        assert magic == MAGIC == b"RPSPOOL2"
        assert width == 4  # every suite element fits an int32
        assert payload_size == len(data) - PREFIX.size
        assert crc == zlib.crc32(data[PREFIX.size:])
        header = json.loads(data[PREFIX.size : PREFIX.size + head_size])
        assert header["format"] == "repro-detector-checkpoint"
        assert header["version"] == 3
        engine, stream = checkpoint["engine"], checkpoint["stream"]
        # Each packed list leaves its length in the header ...
        assert header["engine"] == {**engine, "cw": 200, "tw": 200}
        assert header["stream"] == {"position": 1_003, "buffer": 0}
        assert stream["buffer"] == []
        # ... and its elements in the body, as int32 in PACKED order.
        body = data[PREFIX.size + head_size :]
        packed = engine["cw"] + engine["tw"]
        assert body == struct.pack(f"<{len(packed)}i", *packed)
        assert decode_record(data) == checkpoint

    def test_spool_size_does_not_grow_with_the_stream(self, tmp_path):
        """The spool file keeps no per-element history: on a phase-free
        stream a short and a long session's records differ only in the
        digits of their two position counters (``consumed`` and
        ``stream.position``)."""
        config = MATRIX["unweighted-threshold-constant"]
        sizes = []
        for length in (2_450, 16_180):
            session = make_session(tmp_path / str(length), config, [])
            # Elements that never repeat: no phase opens, and the windows
            # hold as many elements either way.
            session.feed(list(range(1_000_000, 1_000_000 + length)))
            session.park()
            data = session.spool_path.read_bytes()
            assert decode_record(data)["phases"] == []
            sizes.append(len(data) - 2 * len(str(length)))
        assert sizes[0] == sizes[1]


def spool_bytes(config, elements):
    """The bytes a park must leave: the record of the checkpoint of a
    detector fed the same elements uninterrupted."""
    detector = StreamingDetector(config)
    detector.feed(elements)
    return encode_record(detector.checkpoint())


class TestSpoolContract:
    """A park is one in-place write of the record to ``<sid>.ckpt``,
    truncated to its length; a rehydrate one read of it."""

    def test_park_leaves_only_the_checkpoint_bytes(self, tmp_path, trace):
        config = MATRIX["weighted-threshold-constant"]
        elements = trace.array[:1_500].tolist()
        session = make_session(tmp_path, config, [])
        session.feed(elements[:700])
        session.park()
        session.feed(elements[700:])
        session.park()
        assert [path.name for path in tmp_path.iterdir()] == ["s1.ckpt"]
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


def _repack(path, edit):
    """Rewrite ``path``'s record with ``edit(header, body)`` applied and
    a prefix whose lengths and CRC match the edited payload."""
    data = path.read_bytes()
    _, head_size, _, _, width = PREFIX.unpack_from(data)
    head = data[PREFIX.size : PREFIX.size + head_size]
    head, body = edit(head, data[PREFIX.size + head_size :])
    payload = head + body
    path.write_bytes(
        PREFIX.pack(MAGIC, len(head), len(payload), zlib.crc32(payload), width)
        + payload
    )


def _width(width):
    """Set the prefix's packed-element width (outside the CRC)."""
    def damage(path):
        data = path.read_bytes()
        path.write_bytes(data[:24] + struct.pack("<I", width) + data[28:])
    return damage


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _not_utf8(path):
    _repack(path, lambda head, body: (b"\xff\xfe" + head[2:], body))


def _bad_magic(path):
    path.write_bytes(b"RPSPOOL0" + path.read_bytes()[8:])


def _cut_short(path):
    path.write_bytes(path.read_bytes()[:-8])


def _stale_tail(path):
    # What a crash between the write and the ftruncate leaves after a
    # longer record.
    path.write_bytes(path.read_bytes() + bytes(16))


def _flipped_payload_byte(path):
    data = bytearray(path.read_bytes())
    data[-5] ^= 0x01
    path.write_bytes(bytes(data))


def _count_past_body(path):
    def edit(head, body):
        header = json.loads(head)
        header["engine"]["tw"] += 1
        return json.dumps(header, separators=(",", ":")).encode(), body
    _repack(path, edit)


def _ragged_body(path):
    _repack(path, lambda head, body: (head, body[:-3]))


def _huge_int_header(path):
    # Past Python's 4,300-digit limit, json.loads raises ValueError.
    huge = b'"consumed":' + b"9" * 5_000
    _repack(path, lambda head, body: (re.sub(rb'"consumed":\d+', huge, head), body))


#: Each damage and the guard that must catch it.
DAMAGE = {
    "torn": (_truncate, "payload bytes, its prefix says"),
    "missing": (Path.unlink, "No such file"),
    "not-utf8": (_not_utf8, "header is not JSON.*utf-8"),
    "bad-magic": (_bad_magic, "magic"),
    "cut-short": (_cut_short, "payload bytes, its prefix says"),
    "stale-tail": (_stale_tail, "payload bytes, its prefix says"),
    "flipped-payload-byte": (_flipped_payload_byte, "CRC-32"),
    "count-past-body": (_count_past_body, "packed elements, its body holds"),
    "ragged-body": (_ragged_body, "not a whole number of 4-byte elements"),
    "odd-width": (_width(2), "width 2 is not 4 or 8"),
    "wide-width": (_width(8), "packed elements, its body holds"),
    "huge-int-header": (_huge_int_header, "header is not JSON.*4300 digits"),
}


class TestUnreadableSpool:
    """A damaged spool file fails rehydration with a typed error naming
    the file and the guard that caught it."""

    @pytest.mark.parametrize("damage,reason", DAMAGE.values(), ids=DAMAGE.keys())
    def test_rehydrate_raises_checkpoint_error(self, tmp_path, trace, damage, reason):
        session = make_session(
            tmp_path, MATRIX["weighted-average-adaptive-move"], [])
        session.feed(trace.array[:900].tolist())
        session.park()
        damage(session.spool_path)
        with pytest.raises(CheckpointError, match=f"s1\\.ckpt: .*{reason}"):
            session.feed(trace.array[900:1_000].tolist())
        assert session.state is SessionState.PARKED


class TestRecord:
    """The record codec on its own (every family's checkpoints cross it
    in the oracle harness)."""

    def test_round_trip_leaves_the_checkpoint_alone(self, trace):
        detector = StreamingDetector(MATRIX["skip-factor"])
        detector.feed(trace.array[:1_002].tolist())
        checkpoint = detector.checkpoint()
        text = json.dumps(checkpoint)
        assert decode_record(encode_record(checkpoint)) == checkpoint
        assert json.dumps(checkpoint) == text
        assert checkpoint["stream"]["buffer"] == trace.array[1_000:1_002].tolist()

    def test_int64_bounds(self):
        checkpoint = {"engine": {"buffer": [-(2**63), 2**63 - 1]}}
        assert decode_record(encode_record(checkpoint)) == checkpoint
        for value in (2**63, -(2**63) - 1):
            with pytest.raises(OverflowError):
                encode_record({"engine": {"buffer": [value]}})

    @pytest.mark.parametrize("values,width", [
        ([], 4),
        ([-(2**31), 2**31 - 1], 4),
        ([-(2**31) - 1], 8),
        ([0, 2**31], 8),
    ])
    def test_width_is_the_narrowest_that_fits(self, values, width):
        checkpoint = {"engine": {"cw": [7], "tw": values}}
        data = encode_record(checkpoint)
        _, head_size, _, _, packed_width = PREFIX.unpack_from(data)
        assert packed_width == width
        assert len(data) == PREFIX.size + head_size + width * (1 + len(values))
        assert decode_record(data) == checkpoint

    @pytest.mark.parametrize("count", [-1, True, 1.0, "1", None])
    def test_rejects_a_header_count_that_is_not_a_length(self, count):
        head = json.dumps({"stream": {"buffer": count}}).encode()
        payload = head + bytes(8)
        data = PREFIX.pack(MAGIC, len(head), len(payload), zlib.crc32(payload), 8)
        with pytest.raises(CheckpointError, match="stream.buffer"):
            decode_record(data + payload)

    @pytest.mark.parametrize("data", [b"", b"RPSPOOL1", bytes(PREFIX.size)])
    def test_rejects_a_short_or_blank_prefix(self, data):
        with pytest.raises(CheckpointError):
            decode_record(data)
