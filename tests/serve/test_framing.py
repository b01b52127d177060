"""Hostile framing: the connection protocol under arbitrary byte cuts.

The server applies every whole line the moment a read completes it, so
a line may arrive in any number of reads.  These tests drive
``_Connection.data_received`` through a fake transport (no sockets, no
event loop) with valid lines, blank lines, garbage, non-UTF-8 bytes and
over-long lines cut at random offsets, and one real socket fed one byte
at a time.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.engine import run_detector
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import make_phased_trace
from repro.serve import protocol
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.server import PhaseServer, _Connection
from repro.serve.session import PHASE_EVENT_KINDS

CONFIG = {"cw_size": 20, "threshold": 0.6}
SIDS = ("a", "b")

#: Elements with repeats, so a 20-element window finds phases.
ELEMENTS = [list(range(8)) * 6, list(range(100, 130)) + list(range(6)) * 5]


class FakeTransport:
    """Records what the protocol writes and whether it asked to close."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False
        self.reading = True

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.written += data

    def close(self) -> None:
        self.closed = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def _line(message) -> bytes:
    return protocol.encode_message(message)


#: Line kinds and their bytes.  A ``FATAL`` line breaks the connection:
#: one ``error`` with a null sid, then a close.
VALID = {
    "ping": _line({"op": "ping"}),
    **{f"open-{sid}": _line({"op": "open", "sid": sid, "config": CONFIG})
       for sid in SIDS},
    **{f"events-{sid}-{i}": _line({"op": "events", "sid": sid, "elements": chunk})
       for sid in SIDS for i, chunk in enumerate(ELEMENTS)},
    **{f"close-{sid}": _line({"op": "close", "sid": sid}) for sid in SIDS},
    "events-ghost": _line({"op": "events", "sid": "ghost", "elements": [1]}),
    "blank": b"\n",
    "spaces": b"  \t\r\n",
}
FATAL = {
    "garbage": b"this is not json\n",
    "not-utf8": b'{"op":"ping","x":"\xff\xfe"}\n',
    "not-an-object": b"[1,2,3]\n",
    "unknown-op": _line({"op": "launch"}),
    "over-long": b'{"op":"ping","pad":"' + b" " * MAX_LINE_BYTES + b'"}\n',
}


def expected_replies(kinds):
    """The ``(op, sid)`` of each reply the lines must get, events
    excluded, in line order; stops at the first breaking line."""
    opened = set()
    replies = []
    for kind in kinds:
        if kind in FATAL:
            replies.append(("error", None))
            break
        if kind in ("blank", "spaces"):
            continue
        if kind == "ping":
            replies.append(("pong", None))
            continue
        verb, sid = kind.split("-")[:2]
        if verb == "open":
            replies.append(("error" if sid in opened else "opened", sid))
            opened.add(sid)
        elif sid not in opened:
            replies.append(("error", sid))
        elif verb == "close":
            replies.append(("closed", sid))
            opened.discard(sid)
    return replies


def drive(stream: bytes, cuts):
    """Feed ``stream`` to a fresh connection in the pieces ``cuts``
    makes; returns the reply lines and the transport."""
    server = PhaseServer()
    try:
        connection = _Connection(server)
        transport = FakeTransport()
        connection.connection_made(transport)
        bounds = [0, *cuts, len(stream)]
        for start, end in zip(bounds, bounds[1:]):
            if transport.closed:
                break
            connection.data_received(stream[start:end])
            assert len(connection.tail) <= MAX_LINE_BYTES
        connection.connection_lost(None)
    finally:
        server.close()
    return bytes(transport.written).splitlines(keepends=True), transport


KINDS = sorted(VALID) + sorted(FATAL)


@st.composite
def streams(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=12))
    lines = [VALID.get(kind) or FATAL[kind] for kind in kinds]
    stream = b"".join(lines)
    ends = [sum(map(len, lines[: i + 1])) for i in range(len(lines))]
    # Anywhere, or within a few bytes of a newline, where a 4 MiB line
    # is cut so that all but its end waits for the next read.
    cut = st.one_of(
        st.integers(min_value=1, max_value=len(stream)),
        st.sampled_from(ends).flatmap(lambda end: st.integers(end - 24, end)),
    )
    cuts = sorted(draw(st.sets(cut, max_size=12)))
    return kinds, stream, [c for c in cuts if 0 < c < len(stream)]


class TestHostileFraming:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(streams())
    def test_any_cut_gives_the_whole_stream_replies(self, case):
        kinds, stream, cuts = case
        lines, transport = drive(stream, cuts)
        replies = [protocol.decode_message(line) for line in lines]
        assert [(r["op"], r.get("sid")) for r in replies if r["op"] != "event"] \
            == expected_replies(kinds)
        breaks = any(kind in FATAL for kind in kinds)
        assert transport.closed is breaks
        if breaks:
            assert replies[-1]["op"] == "error"
            assert replies[-1]["sid"] is None
        # Where the reads cut the stream changes nothing, events included.
        whole, _ = drive(stream, [])
        assert lines == whole

    def test_an_over_long_tail_is_refused_before_its_newline(self):
        connection = _Connection(PhaseServer())
        try:
            transport = FakeTransport()
            connection.connection_made(transport)
            connection.data_received(VALID["ping"] + b"x" * MAX_LINE_BYTES)
            assert len(connection.tail) == MAX_LINE_BYTES
            assert not transport.closed
            connection.data_received(b"x")
            assert connection.tail == b""
            assert transport.closed
            connection.data_received(VALID["ping"])  # ignored from now on
        finally:
            connection.server.close()
        assert [protocol.decode_message(line)["op"] for line in
                bytes(transport.written).splitlines()] == ["pong", "error"]

    def test_write_pressure_pauses_reading(self):
        connection = _Connection(PhaseServer())
        try:
            transport = FakeTransport()
            connection.connection_made(transport)
            connection.pause_writing()
            assert not transport.reading
            connection.resume_writing()
            assert transport.reading
        finally:
            connection.server.close()


@pytest.fixture(scope="module")
def trace():
    trace, _specs = make_phased_trace(
        num_phases=2, phase_length=400, transition_length=80, body_size=9,
        seed=5,
    )
    return trace


class TestOneByteReads:
    def test_a_session_sent_byte_by_byte_streams_as_offline(self, trace):
        config = DetectorConfig(cw_size=100, threshold=0.6)
        elements = trace.array[:900].tolist()

        async def run():
            server = PhaseServer()
            await server.start(port=0)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            stream = _line({"op": "open", "sid": "s", "config": config.to_dict()})
            for start in range(0, len(elements), 128):
                stream += _line({"op": "events", "sid": "s",
                                 "elements": elements[start : start + 128]})
            stream += _line({"op": "close", "sid": "s"})
            for index in range(len(stream)):
                writer.write(stream[index : index + 1])
                await asyncio.sleep(0)  # let the server read each byte alone
            lines = []
            while not lines or b'"closed"' not in lines[-1]:
                lines.append(await asyncio.wait_for(reader.readline(), timeout=10))
            writer.close()
            await writer.wait_closed()
            await server.drain()
            server.close()
            return lines

        lines = asyncio.run(run())
        sink = MemorySink()
        run_detector(trace[:900], config, observer=sink)
        offline = b"".join(
            _line(protocol.event_message("s", event))
            for event in sink.events if event["ev"] in PHASE_EVENT_KINDS
        )
        assert json.loads(lines[0])["op"] == "opened"
        assert json.loads(lines[-1]) == {
            "op": "closed", "sid": "s", "elements": 900,
            "phases": offline.count(b'"phase_exit"'),
        }
        assert offline and b"".join(lines[1:-1]) == offline
