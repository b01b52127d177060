"""The wire: ServeClient against a live PhaseServer over localhost TCP."""

from __future__ import annotations

import asyncio
import json
import socket
import time

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.engine import run_detector
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import make_phased_trace
from repro.profiles.trace import BranchTrace
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import DRAIN_GRACE_S, PhaseServer
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
            # Lines are applied in arrival order: the pong comes after
            # the chunk was fed.
            await client.ping()
            await client.open("bystander", CONFIG)  # parks the victim
            victim = server._sessions["victim"]
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


def offline_all(config, elements):
    """Every event an ``events="all"`` server serves for ``elements``."""
    sink = MemorySink()
    run_detector(BranchTrace(np.asarray(elements, dtype=np.int64)), config,
                 observer=sink)
    return [e for e in sink.events if e["ev"] not in ("run_begin", "run_end")]


async def until(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


async def stall(server, chunks):
    """Connect a raw client socket that streams ``chunks`` to session
    ``slow`` and never reads, one chunk per server read until the
    server stops reading it.  Returns the socket and the server's
    connection."""
    loop = asyncio.get_running_loop()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await loop.sock_connect(sock, ("127.0.0.1", server.port))
    await loop.sock_sendall(sock, protocol.encode_message(
        {"op": "open", "sid": "slow", "config": CONFIG.to_dict()}))
    await until(lambda: any("slow" in c.owned for c in server._connections))
    (slow,) = [c for c in server._connections if "slow" in c.owned]
    # Keep the kernel from absorbing the stream on the server side.
    slow.transport.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    session = server._sessions["slow"]
    for chunk in chunks:
        await loop.sock_sendall(sock, protocol.encode_message(
            {"op": "events", "sid": "slow", "elements": chunk}))
        fed = session.events_in + len(chunk)
        await until(lambda: session.events_in == fed
                    or not slow.transport.is_reading())
    return sock, slow


class TestSlowReader:
    """Backpressure is the transport's: a client that stops reading
    stops being read, and holds back no one else."""

    def test_paused_reader_holds_back_only_itself(self, trace):
        elements = trace.array.tolist() * 4
        chunks = [elements[start : start + 250]
                  for start in range(0, len(elements), 250)]

        async def run():
            server = PhaseServer(events="all")
            await server.start(port=0)
            loop = asyncio.get_running_loop()
            sock, slow = await stall(server, chunks)
            await loop.sock_sendall(
                sock, protocol.encode_message({"op": "close", "sid": "slow"}))
            paused = not slow.transport.is_reading()
            buffered = slow.transport.get_write_buffer_size()

            bystander = await ServeClient.connect("127.0.0.1", server.port)
            await bystander.open("bystander", CONFIG)
            for chunk in chunks[:10]:
                await bystander.send("bystander", chunk)
            await bystander.close_session("bystander")
            streamed = bystander.events_for("bystander")
            still = (not slow.transport.is_reading(),
                     slow.transport.get_write_buffer_size())

            received = b""
            while b'"closed"' not in received:
                received += await asyncio.wait_for(
                    loop.sock_recv(sock, 1 << 16), timeout=10)
            sock.close()
            lines = received.splitlines(keepends=True)
            await bystander.aclose()
            await server.drain()
            server.close()
            return paused, buffered, still, streamed, lines

        paused, buffered, still, streamed, lines = asyncio.run(run())
        served = b"".join(lines[1:-1])
        assert paused
        # One read's output past the 64 KiB high-water mark, far less
        # than the stream the client has asked for.
        assert 64 * 1024 <= buffered < 256 * 1024 < len(served) // 4
        # Still paused, and nothing more was read or buffered meanwhile.
        assert still[0] and still[1] <= buffered
        assert encode(streamed) == encode(offline_all(CONFIG, elements[:2_500]))
        assert served == b"".join(
            protocol.encode_message(protocol.event_message("slow", event))
            for event in offline_all(CONFIG, elements))
        assert json.loads(lines[0])["op"] == "opened"
        assert json.loads(lines[-1])["elements"] == len(elements)

    def test_drain_parks_a_paused_readers_session(self, trace):
        chunks = [trace.array[start : start + 250].tolist()
                  for start in range(0, 2_250, 250)] * 4

        async def run():
            server = PhaseServer(events="all")
            await server.start(port=0)
            sock, slow = await stall(server, chunks)
            paused = not slow.transport.is_reading()
            started = time.monotonic()
            manifest = await asyncio.wait_for(server.drain(), timeout=10)
            took = time.monotonic() - started
            sock.close()
            server.close()
            return paused, took, manifest

        paused, took, manifest = asyncio.run(run())
        assert paused
        assert took < DRAIN_GRACE_S + 2
        (record,) = manifest["sessions"]
        assert record["state"] == "parked" and not record["killed"]
