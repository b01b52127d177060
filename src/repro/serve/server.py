"""The streaming phase-detection server.

:class:`PhaseServer` multiplexes many concurrent trace-event sessions
over one asyncio event loop.  Each session gets:

- a bounded :class:`asyncio.Queue` — the **backpressure** boundary: a
  producer (`feed`, or the TCP reader) blocks when the queue is full,
  which for a socket client means the server simply stops reading, and
  TCP flow control pushes back to the sender.  Events are never dropped
  and never reordered;
- a worker task that drains the queue, drives the session's
  :class:`~repro.core.stream.StreamingDetector`, and flushes served
  events to the session's transport.

Elastic eviction: at most ``max_resident`` sessions keep detector state
in memory.  Hydrating one more parks the least-recently-active resident
session to the disk spool through the versioned checkpoint schema; the
parked session's next event rehydrates it bit-identically.  An optional
idle sweeper parks sessions that have gone quiet, whatever the resident
count.  Both policies are invisible in the served event stream — only
latency changes.

The same engine serves two transports:

- **in-process** — :meth:`open_session` / :meth:`feed` /
  :meth:`close_session` with an ``on_event`` callback (what the load
  generator and the tests drive);
- **TCP** — :meth:`start` accepts newline-delimited JSON connections
  speaking :mod:`repro.serve.protocol`, any number of sessions per
  connection.

Shutdown is a graceful drain: :meth:`drain` stops intake, lets every
queue empty, parks still-open sessions (no server reads their spool
files back), kills what cannot park, and writes a ``serve-run``
manifest with one record per session plus the server's metrics — see
``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import logging
import tempfile
import time
from collections import OrderedDict
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import DetectorConfig
from repro.obs.manifest import environment_info, write_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import FlightRecorder
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.serve.session import Session, SessionError, SessionState

__all__ = ["PhaseServer", "SERVE_MANIFEST_KIND"]

logger = logging.getLogger("repro.serve")

SERVE_MANIFEST_KIND = "serve-run"

#: Default bound of each session's inbound chunk queue.
DEFAULT_QUEUE_SIZE = 8

#: Wire-config defaults: every ``DetectorConfig`` field except the
#: required ``cw_size``, so clients may send partial config dicts
#: (e.g. only ``cw_size`` and ``"family": "newma"``).
_CONFIG_DEFAULTS = {
    key: value
    for key, value in DetectorConfig(cw_size=1).to_dict().items()
    if key != "cw_size"
}


def _config_from_wire(data: Dict[str, object]) -> DetectorConfig:
    """Parse an ``open`` message's config, filling omitted fields with
    the :class:`DetectorConfig` defaults; unknown keys are an error."""
    if not isinstance(data, dict):
        raise TypeError("config must be an object")
    unknown = set(data) - set(_CONFIG_DEFAULTS) - {"cw_size"}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return DetectorConfig.from_dict({**_CONFIG_DEFAULTS, **data})


async def _reply(writer: asyncio.StreamWriter, message: Dict[str, object]) -> None:
    writer.write(protocol.encode_message(message))
    await writer.drain()


class _Lane:
    """One session's serving machinery: queue, worker, transport hooks."""

    __slots__ = ("session", "queue", "worker", "on_event", "flush")

    def __init__(self, session: Session, queue_size: int) -> None:
        self.session = session
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.worker: Optional[asyncio.Task] = None
        self.on_event: Optional[Callable[[str, Dict[str, object]], None]] = None
        self.flush: Optional[Callable[[], "asyncio.Future"]] = None


class PhaseServer:
    """A multiplexing, elastically evicting phase-detection server.

    Args:
        spool_dir: where parked session checkpoints (and the final
            manifest) live.  Defaults to a private temporary directory
            that lives as long as the server object.
        max_resident: most sessions allowed to keep detector state in
            memory at once; the LRU excess parks to the spool.
        queue_size: per-session inbound queue bound (chunks, not
            elements) — the backpressure knob.
        idle_timeout: park sessions idle longer than this many seconds
            (``None`` disables the sweeper).
        events: ``"phase"`` serves phase boundaries only (the wire
            default); ``"all"`` serves the full event taxonomy.
        sample_latency: record per-chunk service latencies (seconds from
            enqueue to processed) in :attr:`latency_samples`.
        flight_record: spool interval metrics samples to this JSONL
            flight-record file (``docs/formats.md#flight-record-jsonl``).
        flight_interval: seconds between flight-recorder samples; set it
            (or ``flight_record``) to enable the recorder — the ``stats``
            verb then serves the ring-buffer tail.
        tracer: an optional :class:`repro.obs.trace.Tracer`; when set,
            session lifecycle steps (open/feed/park/rehydrate/close)
            record spans.  ``None`` (the default) costs one branch.
    """

    def __init__(
        self,
        spool_dir: Optional[Path] = None,
        max_resident: int = 1024,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        idle_timeout: Optional[float] = None,
        idle_poll: float = 0.05,
        events: str = "phase",
        name: str = "serve",
        sample_latency: bool = False,
        flight_record: Optional[Path] = None,
        flight_interval: Optional[float] = None,
        tracer=None,
    ) -> None:
        if max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        if queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        self._tmp = None
        if spool_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            spool_dir = Path(self._tmp.name)
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
        self.queue_size = queue_size
        self.idle_timeout = idle_timeout
        self.idle_poll = idle_poll
        self.events = events
        self.name = name
        self.metrics = MetricsRegistry()
        self.latency_samples: List[float] = [] if sample_latency else None  # type: ignore[assignment]
        self.tracer = tracer
        self.flight: Optional[FlightRecorder] = None
        if flight_record is not None or flight_interval is not None:
            self.flight = FlightRecorder(
                self.metrics,
                interval=flight_interval if flight_interval is not None else 1.0,
                spool_path=flight_record,
            )
        self._lanes: "OrderedDict[str, _Lane]" = OrderedDict()
        self._records: List[Dict[str, object]] = []  # finished sessions
        self._failures: Dict[str, str] = {}  # sid -> why its session failed
        self._resident: "OrderedDict[str, Session]" = OrderedDict()
        self._draining = False
        self._started = time.perf_counter()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._flight_task: Optional[asyncio.Task] = None
        self._connections: set = set()

    def _span(self, name: str, **attrs):
        """A lifecycle span when a tracer is attached, else a no-op —
        the serve-side form of the zero-cost-when-off rule."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    # -- session bookkeeping ---------------------------------------------------

    @property
    def session_count(self) -> int:
        """Sessions currently open (not yet closed or killed)."""
        return len(self._lanes)

    @property
    def resident_count(self) -> int:
        """Sessions whose detector state is currently in memory."""
        return len(self._resident)

    @property
    def parked_count(self) -> int:
        """Open sessions currently checkpointed to the spool."""
        return sum(
            1 for lane in self._lanes.values()
            if lane.session.state is SessionState.PARKED
        )

    def _park(self, session: Session) -> bool:
        """Park one session, with the counter, histogram and (optional)
        span; ``False`` when it holds nothing to park."""
        if not session.hydrated:
            return False
        with self._span("serve.park", sid=session.sid), \
                self.metrics.time_histogram("serve.park_seconds"):
            session.park()
        self.metrics.counter("serve.sessions_parked").inc()
        return True

    def _hydrate(self, session: Session) -> None:
        """Make ``session`` resident, parking LRU sessions over the cap.

        Runs synchronously on the event loop between awaits, so no other
        session can be mid-feed while residency changes hands.
        """
        sid = session.sid
        if sid in self._resident:
            self._resident.move_to_end(sid)
            return
        while len(self._resident) >= self.max_resident:
            cold_sid, cold = next(iter(self._resident.items()))
            del self._resident[cold_sid]
            self._park(cold)
        if not session.hydrated:
            with self._span("serve.rehydrate", sid=sid), \
                    self.metrics.time_histogram("serve.rehydrate_seconds"):
                session.rehydrate()
            self.metrics.counter("serve.sessions_rehydrated").inc()
        self._resident[sid] = session
        high_water = self.metrics.gauge("serve.resident_high_water")
        if len(self._resident) > high_water.value:
            high_water.set(len(self._resident))

    def _discard(self, session: Session) -> None:
        self._resident.pop(session.sid, None)

    def _finish_lane(self, lane: _Lane) -> None:
        self._discard(lane.session)
        self._records.append(lane.session.record())
        self._lanes.pop(lane.session.sid, None)

    # -- the in-process API ----------------------------------------------------

    async def open_session(
        self,
        sid: str,
        config: DetectorConfig,
        on_event: Optional[Callable[[str, Dict[str, object]], None]] = None,
        flush: Optional[Callable[[], "asyncio.Future"]] = None,
    ) -> Session:
        """Open a session and start its worker.

        ``on_event(sid, event)`` receives each served detector event
        synchronously from the worker; ``flush`` (a coroutine function)
        is awaited after every processed chunk — the TCP front end uses
        it to write-and-drain buffered wire lines.
        """
        if self._draining:
            raise SessionError("server is draining; not accepting sessions")
        if sid in self._lanes:
            raise SessionError(f"session {sid} is already open")
        self._failures.pop(sid, None)
        session = Session(
            sid,
            config,
            self.spool_dir,
            on_event=on_event if on_event is not None else (lambda _sid, _ev: None),
            events=self.events,
            metrics=self.metrics,
        )
        lane = _Lane(session, self.queue_size)
        lane.on_event = on_event
        lane.flush = flush
        self._lanes[sid] = lane
        with self._span("serve.open", sid=sid):
            self._hydrate(session)
        self.metrics.counter("serve.sessions_opened").inc()
        lane.worker = asyncio.ensure_future(self._worker(lane))
        self._ensure_sweeper()
        self._ensure_flight()
        return session

    async def feed(self, sid: str, elements: Sequence[int]) -> None:
        """Enqueue one chunk for ``sid`` (blocks when its queue is full)."""
        lane = self._lane(sid)
        await lane.queue.put(("events", list(elements), time.perf_counter()))

    async def close_session(self, sid: str) -> Dict[str, object]:
        """Finish ``sid`` after its queued chunks; return its summary."""
        lane = self._lane(sid)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await lane.queue.put(("close", future, time.perf_counter()))
        return await future

    def _lane(self, sid: str) -> _Lane:
        lane = self._lanes.get(sid)
        if lane is None:
            failure = self._failures.get(sid)
            raise SessionError(f"no open session {sid}" if failure is None
                               else f"session {sid} failed: {failure}")
        return lane

    async def _worker(self, lane: _Lane) -> None:
        """Drain one session's queue until it closes or fails."""
        session = lane.session
        queue = lane.queue
        while True:
            kind, payload, enqueued = await queue.get()
            try:
                if kind == "events":
                    self._hydrate(session)
                    with self._span("serve.feed", sid=session.sid,
                                    elements=len(payload)), \
                            self.metrics.time_histogram("serve.feed_seconds"):
                        session.feed(payload)
                    self.metrics.counter("serve.events_in").inc(len(payload))
                    self.metrics.counter("serve.chunks_in").inc()
                    if self.latency_samples is not None:
                        self.latency_samples.append(
                            time.perf_counter() - enqueued
                        )
                    if lane.flush is not None:
                        await lane.flush()
                else:  # close
                    self._hydrate(session)
                    with self._span("serve.close", sid=session.sid):
                        summary = session.close()
                    self.metrics.counter("serve.sessions_closed").inc()
                    self._finish_lane(lane)
                    if lane.flush is not None:
                        await lane.flush()
                    payload.set_result(summary)
                    return
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 - reported to the client
                failure = self._failures[session.sid] = str(error)
                logger.warning("session %s failed: %s", session.sid, error)
                session.kill()
                self.metrics.counter("serve.sessions_failed").inc()
                self._finish_lane(lane)
                if kind == "close" and not payload.done():
                    payload.set_exception(SessionError(failure))
                # Discard anything still queued so queue.join() (drain)
                # cannot wait on chunks nobody will ever process.
                while not queue.empty():
                    dead_kind, dead_payload, _ = queue.get_nowait()
                    if dead_kind == "close" and not dead_payload.done():
                        dead_payload.set_exception(SessionError(failure))
                    queue.task_done()
                return
            finally:
                queue.task_done()

    def kill_session(self, sid: str) -> None:
        """Terminate a session immediately (dropped connection, abort).

        Pending queued chunks are discarded; the manifest records the
        session as killed in the state it was in.
        """
        lane = self._lanes.get(sid)
        if lane is None:
            return
        if lane.worker is not None:
            lane.worker.cancel()
        lane.session.kill()
        self.metrics.counter("serve.sessions_killed").inc()
        self._finish_lane(lane)

    # -- idle sweeping ---------------------------------------------------------

    def _ensure_sweeper(self) -> None:
        if self.idle_timeout is None:
            return
        if self._sweeper is None or self._sweeper.done():
            self._sweeper = asyncio.ensure_future(self._sweep_idle())

    async def _sweep_idle(self) -> None:
        while not self._draining:
            await asyncio.sleep(self.idle_poll)
            now = time.monotonic()
            for sid in list(self._resident):
                session = self._resident.get(sid)
                if session is None or session.closed:
                    continue
                lane = self._lanes.get(sid)
                busy = lane is not None and not lane.queue.empty()
                if not busy and session.idle_seconds(now) >= self.idle_timeout:
                    del self._resident[sid]
                    if self._park(session):
                        self.metrics.counter("serve.sessions_idle_parked").inc()

    # -- the flight recorder -----------------------------------------------------

    def _ensure_flight(self) -> None:
        if self.flight is None:
            return
        if self._flight_task is None or self._flight_task.done():
            self._flight_task = asyncio.ensure_future(self._flight_loop())

    async def _flight_loop(self) -> None:
        assert self.flight is not None
        while not self._draining:
            await asyncio.sleep(self.flight.interval)
            if self._draining:
                return
            self.flight.sample()

    # -- live telemetry ----------------------------------------------------------

    def stats_payload(self, tail: int = 12) -> Dict[str, object]:
        """The ``stats`` reply: census, snapshot, flight-record tail."""
        return protocol.stats_message(
            uptime=time.perf_counter() - self._started,
            sessions={
                "open": self.session_count,
                "resident": self.resident_count,
                "parked": self.parked_count,
            },
            metrics=self.metrics.snapshot(),
            flight=self.flight.tail(tail) if self.flight is not None else [],
        )

    def healthz_payload(self) -> Dict[str, object]:
        """The ``healthz`` reply: drain state + session census."""
        return protocol.healthz_message(
            draining=self._draining,
            sessions=self.session_count,
            resident=self.resident_count,
            parked=self.parked_count,
            uptime=time.perf_counter() - self._started,
        )

    # -- the TCP front end -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.AbstractServer:
        """Accept wire-protocol connections; returns the asyncio server.

        ``port=0`` binds an ephemeral port — read it back from
        ``server.sockets[0].getsockname()``.
        """
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port, limit=protocol.MAX_LINE_BYTES
        )
        self._ensure_sweeper()
        self._ensure_flight()
        return self._tcp_server

    @property
    def port(self) -> Optional[int]:
        if self._tcp_server is None or not self._tcp_server.sockets:
            return None
        return self._tcp_server.sockets[0].getsockname()[1]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One NDJSON connection; any number of multiplexed sessions.

        Messages are processed strictly in arrival order.  ``feed``
        awaits the session queue, so a full queue stops this reader —
        that is the wire form of backpressure.
        """
        owned: List[str] = []
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await _reply(writer, protocol.error_message(None, "line too long"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode_message(line)
                    op = protocol.validate_client_message(message)
                except ProtocolError as error:
                    await _reply(writer, protocol.error_message(None, str(error)))
                    break
                if not await self._dispatch(op, message, writer, owned):
                    break
        except (ConnectionResetError, asyncio.CancelledError):
            # A drain cancels open connections; exit cleanly so the
            # asyncio stream wrapper sees a finished task, not a
            # cancelled one.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            # A dropped connection kills its unfinished sessions; the
            # manifest records the state each one died in.  During a
            # graceful drain the server parks them instead.
            if not self._draining:
                for sid in owned:
                    if sid in self._lanes:
                        self.kill_session(sid)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self,
        op: str,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        owned: List[str],
    ) -> bool:
        """Apply one validated client message; False closes the connection."""
        if op == "ping":
            await _reply(writer, {"op": "pong"})
            return True
        if op == "stats":
            await _reply(writer, self.stats_payload())
            return True
        if op == "healthz":
            await _reply(writer, self.healthz_payload())
            return True
        sid: str = message["sid"]  # type: ignore[assignment]
        if op == "open":
            try:
                config = _config_from_wire(message["config"])  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError) as bad:
                await _reply(writer, protocol.error_message(sid, f"bad config: {bad}"))
                return True
            lane_out: List[bytes] = []

            def on_event(session_id: str, event: Dict[str, object],
                         _out=lane_out) -> None:
                _out.append(protocol.encode_message(
                    protocol.event_message(session_id, event)))

            async def flush(_out=lane_out) -> None:
                if _out:
                    writer.write(b"".join(_out))
                    _out.clear()
                    await writer.drain()

            try:
                await self.open_session(sid, config, on_event=on_event,
                                        flush=flush)
            except (SessionError, ProtocolError, ValueError) as error:
                await _reply(writer, protocol.error_message(sid, str(error)))
                return True
            owned.append(sid)
            await _reply(writer, protocol.opened_message(sid))
            return True
        if sid not in owned:
            await _reply(writer, protocol.error_message(sid, f"no open session {sid}"))
            return True
        if op == "events":
            try:
                await self.feed(sid, message["elements"])  # type: ignore[arg-type]
            except SessionError as error:
                await _reply(writer, protocol.error_message(sid, str(error)))
            return True
        # close
        try:
            summary = await self.close_session(sid)
        except SessionError as error:
            await _reply(writer, protocol.error_message(sid, str(error)))
            return True
        owned.remove(sid)
        await _reply(writer, protocol.closed_message(
            sid, int(summary["elements"]), int(summary["phases"])))
        return True

    # -- shutdown --------------------------------------------------------------

    async def drain(self, manifest_path: Optional[Path] = None) -> Dict[str, object]:
        """Gracefully shut down: drain queues, park survivors, manifest.

        Stops accepting new sessions and connections, waits for every
        queued chunk to be processed, parks still-open sessions to the
        spool (they could be resumed by a future worker), and writes the
        ``serve-run`` manifest.  Returns the manifest dict.
        """
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._flight_task is not None:
            self._flight_task.cancel()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        for lane in list(self._lanes.values()):
            await lane.queue.join()
        for sid, lane in list(self._lanes.items()):
            if lane.worker is not None:
                lane.worker.cancel()
            session = lane.session
            self._discard(session)
            if not session.closed:
                if session.hydrated or session.state is SessionState.PARKED:
                    self._park(session)
                else:
                    session.kill()
            self._records.append(session.record())
            del self._lanes[sid]
        if self.flight is not None:
            # One final sample so the spooled deltas sum to the final
            # counters exactly; then stop spooling.
            self.flight.close(final_sample=True)
        manifest = self.manifest()
        path = manifest_path if manifest_path is not None else (
            self.spool_dir / f"{self.name}.manifest.json"
        )
        write_manifest(manifest, path)
        return manifest

    def manifest(self) -> Dict[str, object]:
        """The ``serve-run`` manifest: per-session records + metrics."""
        from datetime import datetime, timezone

        records = list(self._records)
        records += [lane.session.record() for lane in self._lanes.values()]
        flight_record = (
            str(self.flight.spool_path)
            if self.flight is not None and self.flight.spool_path is not None
            else None
        )
        return {
            "version": 1,
            "kind": SERVE_MANIFEST_KIND,
            "flight_record": flight_record,
            "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "name": self.name,
            "elapsed_seconds": round(time.perf_counter() - self._started, 6),
            "max_resident": self.max_resident,
            "queue_size": self.queue_size,
            "idle_timeout": self.idle_timeout,
            "sessions": records,
            "metrics": self.metrics.snapshot(),
            "environment": environment_info(),
        }

    def close(self) -> None:
        """Release the private spool directory, if the server owns one."""
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
