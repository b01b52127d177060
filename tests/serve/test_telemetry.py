"""Serve-side live telemetry: stats/healthz verbs, histograms, the
flight recorder, and session-lifecycle spans."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import DetectorConfig
from repro.obs.console import top_frame
from repro.obs.timeseries import read_flight_record
from repro.obs.trace import Tracer
from repro.serve.client import ServeClient
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import PhaseServer

CONFIG = DetectorConfig(cw_size=100, threshold=0.6)


async def feed_sessions(client, sids, chunks=4, chunk_len=150):
    for sid in sids:
        await client.open(sid, CONFIG)
    for _ in range(chunks):
        for sid in sids:
            await client.send(sid, list(range(chunk_len)))
    return chunks * chunk_len


class TestStatsVerb:
    def test_stats_reply_shape_and_census(self):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            fed = await feed_sessions(client, ["t1", "t2"])
            await client.close_session("t1")
            stats = await client.stats()
            await client.aclose()
            await server.drain()
            server.close()
            return stats, fed

        stats, fed = asyncio.run(run())
        assert stats["op"] == "stats"
        assert stats["protocol"] == PROTOCOL_VERSION
        assert stats["uptime"] > 0
        assert stats["sessions"] == {"open": 1, "resident": 1, "parked": 0}
        metrics = stats["metrics"]
        assert metrics["counters"]["serve.events_in"] == 2 * fed
        assert metrics["counters"]["serve.sessions_opened"] == 2
        # feed latency is a histogram snapshot: percentiles derivable.
        feed_hist = metrics["histograms"]["serve.feed_seconds"]
        assert feed_hist["count"] == 8
        assert sum(feed_hist["buckets"].values()) == 8
        # The runtime histogram rode through the session pass-through.
        assert metrics["histograms"]["runtime.advance_seconds"]["count"] > 0

    def test_park_and_rehydrate_histograms(self):
        async def run():
            server = PhaseServer(max_resident=1)
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await feed_sessions(client, ["p1", "p2"])  # every chunk swaps
            await client.close_session("p1")
            await client.close_session("p2")
            stats = await client.stats()
            await client.aclose()
            await server.drain()
            server.close()
            return stats

        stats = asyncio.run(run())
        counters = stats["metrics"]["counters"]
        histograms = stats["metrics"]["histograms"]
        assert counters["serve.sessions_parked"] > 0
        # One observation per real park; drain's no-op parks add none.
        assert (histograms["serve.park_seconds"]["count"]
                == counters["serve.sessions_parked"])
        assert (histograms["serve.rehydrate_seconds"]["count"]
                == counters["serve.sessions_rehydrated"])
        frame = top_frame(stats)
        assert "serve.park_seconds: n=" in frame
        assert "serve.rehydrate_seconds: n=" in frame

    def test_stats_includes_flight_tail_when_recording(self):
        async def run():
            server = PhaseServer(flight_interval=0.02)
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await feed_sessions(client, ["f1"])
            await asyncio.sleep(0.08)
            stats = await client.stats()
            await client.aclose()
            await server.drain()
            server.close()
            return stats

        stats = asyncio.run(run())
        flight = stats["flight"]
        assert len(flight) >= 2
        assert [s["seq"] for s in flight] == sorted(s["seq"] for s in flight)
        assert "deltas" in flight[0] and "snapshot" in flight[0]

    def test_stats_without_recorder_has_empty_flight(self):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            stats = await client.stats()
            await client.aclose()
            await server.drain()
            server.close()
            return stats

        assert asyncio.run(run())["flight"] == []


class TestHealthzVerb:
    def test_healthz_ok_and_census(self):
        async def run():
            server = PhaseServer(max_resident=1)
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await feed_sessions(client, ["h1", "h2"])  # h1 parks (LRU)
            healthz = await client.healthz()
            await client.aclose()
            await server.drain()
            server.close()
            return healthz

        healthz = asyncio.run(run())
        assert healthz["op"] == "healthz"
        assert healthz["status"] == "ok"
        assert healthz["draining"] is False
        assert healthz["sessions"] == 2
        assert healthz["resident"] == 1
        assert healthz["parked"] == 1

    def test_healthz_reports_draining(self):
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            server._draining = True
            payload = server.healthz_payload()
            server._draining = False
            await server.drain()
            server.close()
            return payload

        payload = asyncio.run(run())
        assert payload["status"] == "draining"
        assert payload["draining"] is True


class TestFlightRecorder:
    def test_spool_delta_sum_matches_events_in(self, tmp_path):
        spool = tmp_path / "flight.jsonl"

        async def run():
            server = PhaseServer(flight_record=spool, flight_interval=0.02)
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            fed = await feed_sessions(client, ["d1", "d2"], chunks=6)
            await asyncio.sleep(0.06)
            await client.aclose()
            await server.drain()
            events_in = server.metrics.counter("serve.events_in").value
            server.close()
            return fed, events_in

        fed, events_in = asyncio.run(run())
        assert events_in == 2 * fed
        header, samples = read_flight_record(spool)
        assert header["interval"] == 0.02
        delta_sum = sum(
            s["deltas"].get("serve.events_in", 0) for s in samples
        )
        # drain() takes a final sample, so the record is complete.
        assert delta_sum == events_in

    def test_manifest_points_at_flight_record(self, tmp_path):
        spool = tmp_path / "flight.jsonl"

        async def run():
            server = PhaseServer(flight_record=spool)
            await server.start(port=0)
            manifest = await server.drain()
            server.close()
            return manifest

        manifest = asyncio.run(run())
        assert manifest["flight_record"] == str(spool)


class TestServeSpans:
    def test_session_lifecycle_spans(self):
        tracer = Tracer()

        async def run():
            server = PhaseServer(max_resident=1, tracer=tracer)
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await feed_sessions(client, ["s1", "s2"])  # s1 parks, rehydrates
            await client.send("s1", list(range(100)))  # forces rehydrate
            await client.close_session("s1")
            await client.close_session("s2")
            await client.aclose()
            await server.drain()
            server.close()

        asyncio.run(run())
        names = {span.name for span in tracer.spans}
        assert {"serve.open", "serve.feed", "serve.park",
                "serve.rehydrate", "serve.close"} <= names
        feed_spans = [s for s in tracer.spans if s.name == "serve.feed"]
        assert all(s.attrs.get("sid") in ("s1", "s2") for s in feed_spans)
        rehydrate = [s for s in tracer.spans if s.name == "serve.rehydrate"]
        assert any(s.attrs.get("sid") == "s1" for s in rehydrate)

    def test_no_tracer_means_no_spans_and_same_results(self):
        async def run():
            server = PhaseServer()
            assert server.tracer is None
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await feed_sessions(client, ["z1"])
            summary = await client.close_session("z1")
            await client.aclose()
            await server.drain()
            server.close()
            return summary

        assert asyncio.run(run())["elements"] == 600


class TestV1Compatibility:
    def test_v1_message_set_still_works(self):
        """A client speaking only the v1 verbs interoperates unchanged."""
        async def run():
            server = PhaseServer()
            await server.start(port=0)
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.ping()
            await client.open("v1", CONFIG)
            await client.send("v1", list(range(300)))
            summary = await client.close_session("v1")
            await client.aclose()
            await server.drain()
            server.close()
            return summary

        assert asyncio.run(run())["elements"] == 300
