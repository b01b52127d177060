"""PhaseServer: multiplexing, flush ordering, eviction, drain, manifests."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import DetectorConfig, ModelKind, TrailingPolicy
from repro.core.engine import run_detector
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import make_phased_trace
from repro.serve.server import PhaseServer
from repro.serve.session import PHASE_EVENT_KINDS, SessionError, SessionState

CONFIG = DetectorConfig(cw_size=200, threshold=0.6)
CONFIG_B = DetectorConfig(
    cw_size=200, model=ModelKind.WEIGHTED,
    trailing=TrailingPolicy.ADAPTIVE, threshold=0.6,
)


@pytest.fixture(scope="module")
def trace():
    trace, _specs = make_phased_trace(
        num_phases=3, phase_length=1_000, transition_length=150, body_size=9,
        seed=31,
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


async def stream_session(server, sid, config, elements, chunk=300, buffer=None):
    buffer = [] if buffer is None else buffer
    await server.open_session(
        sid, config, on_event=lambda _sid, ev, _b=buffer: _b.append(ev))
    for start in range(0, len(elements), chunk):
        await server.feed(sid, elements[start : start + chunk])
    summary = await server.close_session(sid)
    return buffer, summary


async def stream_interleaved(server, streams, elements):
    """Open every ``sid -> (config, chunk, buffer)`` stream, then feed
    them one chunk each per round, then close them all: the sessions are
    open together, whatever the server does with each message."""
    for sid, (config, _chunk, buffer) in streams.items():
        await server.open_session(
            sid, config, on_event=lambda _sid, ev, _b=buffer: _b.append(ev))
    start = dict.fromkeys(streams, 0)
    while any(offset < len(elements) for offset in start.values()):
        for sid, (_config, chunk, _buffer) in streams.items():
            if start[sid] < len(elements):
                await server.feed(sid, elements[start[sid] : start[sid] + chunk])
                start[sid] += chunk
    for sid in streams:
        await server.close_session(sid)


class TestServing:
    def test_many_sessions_match_offline(self, trace):
        async def run():
            server = PhaseServer(max_resident=64)
            try:
                length = 2_500
                elements = trace.array[:length].tolist()
                streams = {
                    f"s{index:02d}": (CONFIG if index % 2 == 0 else CONFIG_B,
                                      101 + 13 * index, [])
                    for index in range(24)
                }
                await stream_interleaved(server, streams, elements)
                await server.drain()
            finally:
                server.close()
            for config, _chunk, events in streams.values():
                assert encode(events) == offline_stream(trace, config, length)

        asyncio.run(run())

    def test_eviction_mid_trace_is_invisible(self, trace, tmp_path):
        async def run():
            # Two resident slots, eight sessions: constant parking churn.
            server = PhaseServer(spool_dir=tmp_path, max_resident=2)
            length = 2_000
            elements = trace.array[:length].tolist()
            buffers = {f"s{i}": [] for i in range(8)}
            await stream_interleaved(
                server,
                {sid: (CONFIG, 257, buffer) for sid, buffer in buffers.items()},
                elements,
            )
            parked = server.metrics.counter("serve.sessions_parked").value
            manifest = await server.drain()
            server.close()
            return buffers, parked, manifest

        buffers, parked, manifest = asyncio.run(run())
        assert parked > 0, "max_resident=2 with 8 sessions must park"
        reference = offline_stream(trace, CONFIG, 2_000)
        for events in buffers.values():
            assert encode(events) == reference
        assert all(r["state"] == "closed" for r in manifest["sessions"])

    def test_backpressure_blocks_producer_without_loss(self, trace):
        async def run():
            server = PhaseServer(max_resident=8)
            served = []
            slow = asyncio.Event()

            async def flush():
                # A slow consumer: every chunk takes a while to flush.
                await asyncio.sleep(0.002)
                slow.set()

            sid = "slow1"
            await server.open_session(
                sid, CONFIG,
                on_event=lambda _sid, ev: served.append(ev), flush=flush)
            elements = trace.array[:2_200].tolist()
            fed = 0
            for start in range(0, len(elements), 100):
                await server.feed(sid, elements[start : start + 100])
                fed += 1
            assert fed == 22
            await server.close_session(sid)
            await server.drain()
            server.close()
            assert slow.is_set()
            return served

        served = asyncio.run(run())
        # No drops, no reorders: byte-identical to the offline run.
        assert encode(served) == offline_stream(trace, CONFIG, 2_200)

    def test_feed_waits_for_a_blocked_flush_in_order(self, trace):
        async def run():
            server = PhaseServer()
            served = []
            blocked = asyncio.Event()
            release = asyncio.Event()

            async def flush():
                blocked.set()
                await release.wait()

            await server.open_session(
                "s", CONFIG, on_event=lambda _sid, ev: served.append(ev),
                flush=flush)
            session = server._sessions["s"]
            elements = trace.array[:2_000].tolist()

            async def producer():
                for start in range(0, len(elements), 200):
                    await server.feed("s", elements[start : start + 200])

            task = asyncio.ensure_future(producer())
            await asyncio.wait_for(blocked.wait(), timeout=10)
            await asyncio.sleep(0.01)
            # The first chunk is applied and its feed waits in flush:
            # nothing after it has been applied.
            assert not task.done()
            assert session.events_in == 200
            release.set()
            await asyncio.wait_for(task, timeout=10)
            assert session.events_in == 2_000
            await server.close_session("s")
            await server.drain()
            server.close()
            return served

        served = asyncio.run(run())
        assert encode(served) == offline_stream(trace, CONFIG, 2_000)


class TestLifecycleManagement:
    def test_duplicate_and_unknown_sids(self):
        async def run():
            server = PhaseServer()
            await server.open_session("dup", CONFIG)
            with pytest.raises(SessionError):
                await server.open_session("dup", CONFIG)
            with pytest.raises(SessionError):
                await server.feed("ghost", [1])
            with pytest.raises(SessionError):
                await server.close_session("ghost")
            await server.close_session("dup")
            await server.drain()
            server.close()

        asyncio.run(run())

    def test_killed_session_manifest_records_final_state(self, trace):
        async def run():
            server = PhaseServer()
            await server.open_session("victim", CONFIG)
            await server.feed("victim", trace.array[:600].tolist())
            server.kill_session("victim")
            manifest = await server.drain()
            server.close()
            return manifest

        manifest = asyncio.run(run())
        (record,) = manifest["sessions"]
        assert record["sid"] == "victim"
        assert record["killed"] is True
        assert record["state"] == "closed"
        assert record["state_at_end"] == "active"
        assert record["events_in"] == 600
        assert manifest["metrics"]["counters"]["serve.sessions_killed"] == 1

    def test_failed_session_reports_and_recovers(self, trace):
        async def run():
            server = PhaseServer()
            # Force a worker failure: drop the detector with no spool
            # file behind it, so the rehydrate on next feed blows up.
            await server.open_session("bad", CONFIG)
            server._sessions["bad"]._detector = None
            # The failing chunk raises; later messages name the failure.
            with pytest.raises(SessionError):
                await server.feed("bad", [1, 2, 3])
            with pytest.raises(SessionError, match="bad failed"):
                await server.feed("bad", [1, 2, 3])
            # The server still serves other sessions.
            buffer, summary = await stream_session(
                server, "good", CONFIG, trace.array[:1_000].tolist())
            manifest = await server.drain()
            server.close()
            return summary, manifest

        summary, manifest = asyncio.run(run())
        assert summary["elements"] == 1_000
        states = {r["sid"]: r for r in manifest["sessions"]}
        assert states["bad"]["killed"] is True
        assert states["good"]["state"] == "closed"
        assert manifest["metrics"]["counters"]["serve.sessions_failed"] == 1

    def test_unreadable_spool_fails_its_chunk(self, trace, tmp_path):
        """In process, the chunk that finds a parked session's spool
        file gone raises the failure naming the file, after awaiting the
        session's flush; the close after it names the failure again."""
        async def run():
            server = PhaseServer(spool_dir=tmp_path, max_resident=1)
            flushes = []

            async def flush():
                flushes.append(len(flushes))

            await server.open_session("victim", CONFIG, flush=flush)
            await server.feed("victim", trace.array[:600].tolist())
            await server.open_session("bystander", CONFIG)  # parks the victim
            victim = server._sessions["victim"]
            assert victim.state is SessionState.PARKED
            victim.spool_path.unlink()
            with pytest.raises(SessionError, match="victim.ckpt"):
                await server.feed("victim", trace.array[600:900].tolist())
            with pytest.raises(SessionError, match="victim failed"):
                await server.close_session("victim")
            await server.close_session("bystander")
            manifest = await server.drain()
            server.close()
            return flushes, manifest

        flushes, manifest = asyncio.run(run())
        assert flushes == [0, 1]
        assert manifest["metrics"]["counters"]["serve.sessions_failed"] == 1

    def test_idle_sessions_park(self, trace):
        async def run():
            server = PhaseServer(idle_timeout=0.03, idle_poll=0.01)
            await server.open_session("idler", CONFIG)
            await server.feed("idler", trace.array[:500].tolist())
            await asyncio.sleep(0.15)
            assert server.resident_count == 0
            session = server._sessions["idler"]
            assert session.state is SessionState.PARKED
            # The next feed rehydrates transparently.
            await server.feed("idler", trace.array[500:1_000].tolist())
            summary = await server.close_session("idler")
            await server.drain()
            server.close()
            return summary

        summary = asyncio.run(run())
        assert summary["elements"] == 1_000

    def test_drain_parks_open_sessions_and_refuses_new(self, trace):
        async def run():
            server = PhaseServer()
            buffer = []
            await server.open_session(
                "open1", CONFIG,
                on_event=lambda _sid, ev: buffer.append(ev))
            await server.feed("open1", trace.array[:700].tolist())
            manifest = await server.drain()
            with pytest.raises(SessionError):
                await server.open_session("late", CONFIG)
            spool = server.spool_dir / "open1.ckpt"
            spooled = spool.exists()
            manifest_file = server.spool_dir / "serve.manifest.json"
            on_disk = json.loads(manifest_file.read_text())
            server.close()
            return manifest, spooled, on_disk

        manifest, spooled, on_disk = asyncio.run(run())
        (record,) = manifest["sessions"]
        assert record["state"] == "parked"
        assert record["killed"] is False
        assert spooled, "drain must park the still-open session to spool"
        assert on_disk["kind"] == "serve-run"
        assert on_disk["sessions"] == manifest["sessions"]
