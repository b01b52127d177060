"""The wire: ServeClient against a live PhaseServer over localhost TCP."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import DetectorConfig
from repro.core.engine import run_detector
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import make_phased_trace
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import PhaseServer
from repro.serve.session import PHASE_EVENT_KINDS, SessionState

CONFIG = DetectorConfig(cw_size=200, threshold=0.6)


@pytest.fixture(scope="module")
def trace():
    trace, _specs = make_phased_trace(
        num_phases=2, phase_length=1_000, transition_length=150, body_size=9,
        seed=77,
    )
    return trace


def encode(events):
    return b"".join(
        json.dumps(e, separators=(",", ":")).encode() + b"\n" for e in events
    )


def offline_stream(trace, config, length):
    sink = MemorySink()
    run_detector(trace[:length], config, observer=sink)
    return encode([e for e in sink.events if e["ev"] in PHASE_EVENT_KINDS])


class TestWire:
    def test_multiplexed_round_trip(self, trace):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.ping()
            length = 1_800
            elements = trace.array[:length].tolist()
            sids = [f"wire{i}" for i in range(5)]
            for sid in sids:
                await client.open(sid, CONFIG)
            # Interleave chunks across the sessions on one socket.
            for start in range(0, length, 200):
                for sid in sids:
                    await client.send(sid, elements[start : start + 200])
            summaries = {}
            for sid in sids:
                summaries[sid] = await client.close_session(sid)
            streams = {sid: client.events_for(sid) for sid in sids}
            await client.aclose()
            await server.drain()
            server.close()
            return summaries, streams

        summaries, streams = asyncio.run(run())
        reference = offline_stream(trace, CONFIG, 1_800)
        for sid, events in streams.items():
            assert encode(events) == reference
            assert summaries[sid]["elements"] == 1_800

    def test_protocol_errors_reported(self):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # Unknown session: polite error, connection stays up.
            writer.write(protocol.encode_message(
                {"op": "events", "sid": "ghost", "elements": [1]}))
            await writer.drain()
            first = protocol.decode_message(await reader.readline())
            # Malformed line: error, then the server closes the wire.
            writer.write(b"this is not json\n")
            await writer.drain()
            second = protocol.decode_message(await reader.readline())
            tail = await reader.read()
            writer.close()
            await writer.wait_closed()
            await server.drain()
            server.close()
            return first, second, tail

        first, second, tail = asyncio.run(run())
        assert first["op"] == "error"
        assert "ghost" in first["error"]
        assert second["op"] == "error"
        assert tail == b""  # server hung up after the malformed line

    def test_client_open_error_raises(self):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.open("dup", CONFIG)
            with pytest.raises(ServeError):
                await client.open("dup", CONFIG)
            await client.close_session("dup")
            await client.aclose()
            await server.drain()
            server.close()

        asyncio.run(run())

    def test_dropped_connection_kills_sessions(self, trace):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.open("doomed", CONFIG)
            await client.send("doomed", trace.array[:600].tolist())
            await asyncio.sleep(0.05)  # let the server consume the chunk
            await client.aclose()      # vanish without closing the session
            await asyncio.sleep(0.05)
            manifest = await server.drain()
            server.close()
            return manifest

        manifest = asyncio.run(run())
        (record,) = manifest["sessions"]
        assert record["sid"] == "doomed"
        assert record["killed"] is True
        assert record["events_in"] == 600

    def test_foreign_sid_rejected(self, trace):
        # A connection may only feed sessions it opened.
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            owner = await ServeClient.connect("127.0.0.1", server.port)
            intruder = await ServeClient.connect("127.0.0.1", server.port)
            await owner.open("mine", CONFIG)
            with pytest.raises(ServeError):
                await intruder.close_session("mine")
            await owner.close_session("mine")
            await owner.aclose()
            await intruder.aclose()
            await server.drain()
            server.close()

        asyncio.run(run())


#: Hostile ``events`` lines: an int past Python's 4,300-digit limit
#: (``json.loads`` raises a plain ValueError) and one past int64.
HOSTILE_LINES = {
    "digits": b'{"op":"events","sid":"hostile","elements":[' + b"9" * 5_000 + b"]}\n",
    "int64": b'{"op":"events","sid":"hostile","elements":[1,%d]}\n' % (1 << 70),
}


class TestHostileIntegers:
    @pytest.mark.parametrize("kind", sorted(HOSTILE_LINES))
    def test_error_reply_and_bystander_unmoved(self, trace, kind):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            bystander = await ServeClient.connect("127.0.0.1", server.port)
            elements = trace.array[:1_800].tolist()
            await bystander.open("bystander", CONFIG)
            await bystander.send("bystander", elements[:900])
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(protocol.encode_message(
                {"op": "open", "sid": "hostile", "config": {"cw_size": 200}}))
            writer.write(HOSTILE_LINES[kind])
            await writer.drain()
            # A server that serves the line never replies: time out.
            opened, reply = [
                protocol.decode_message(
                    await asyncio.wait_for(reader.readline(), timeout=10))
                for _ in range(2)
            ]
            tail = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            await bystander.send("bystander", elements[900:])
            summary = await bystander.close_session("bystander")
            streamed = bystander.events_for("bystander")
            await bystander.aclose()
            manifest = await server.drain()
            server.close()
            return opened, reply, tail, summary, streamed, manifest

        opened, reply, tail, summary, streamed, manifest = asyncio.run(run())
        assert opened["op"] == "opened"
        assert reply["op"] == "error"
        assert ("not valid JSON" if kind == "digits" else "signed 64-bit") in reply["error"]
        assert tail == b""  # the server hung up after the bad line
        assert summary["elements"] == 1_800
        assert encode(streamed) == offline_stream(trace, CONFIG, 1_800)
        records = {r["sid"]: r for r in manifest["sessions"]}
        assert records["hostile"]["killed"] is True
        assert records["hostile"]["events_in"] == 0
        assert records["bystander"]["state"] == "closed"


class TestUnreadableSpool:
    """A parked session whose spool file is torn or gone fails alone."""

    @pytest.mark.parametrize("damage", ["truncated", "deleted"])
    def test_only_that_session_fails(self, trace, tmp_path, damage):
        async def run():
            server = PhaseServer(spool_dir=tmp_path, max_resident=1)
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            elements = trace.array[:1_800].tolist()
            await client.open("victim", CONFIG)
            await client.send("victim", elements[:600])
            await client.ping()
            await server._lanes["victim"].queue.join()
            await client.open("bystander", CONFIG)  # parks the victim
            victim = server._lanes["victim"].session
            assert victim.state is SessionState.PARKED
            if damage == "truncated":
                data = victim.spool_path.read_bytes()
                victim.spool_path.write_bytes(data[: len(data) // 2])
            else:
                victim.spool_path.unlink()
            for start in range(0, 1_800, 300):
                await client.send("bystander", elements[start : start + 300])
                if start == 600:
                    await client.send("victim", elements[600:900])
            with pytest.raises(ServeError, match="victim.ckpt"):
                await client.close_session("victim")
            summary = await client.close_session("bystander")
            streamed = client.events_for("bystander")
            errors = client.errors
            await client.aclose()
            manifest = await server.drain()
            server.close()
            return summary, streamed, errors, manifest

        summary, streamed, errors, manifest = asyncio.run(run())
        assert summary["elements"] == 1_800
        assert encode(streamed) == offline_stream(trace, CONFIG, 1_800)
        assert [e["sid"] for e in errors] == ["victim"]
        records = {r["sid"]: r for r in manifest["sessions"]}
        assert records["victim"]["killed"] is True
        assert records["bystander"]["state"] == "closed"
        assert manifest["metrics"]["counters"]["serve.sessions_failed"] == 1
