"""The streaming phase-detection server.

:class:`PhaseServer` multiplexes many concurrent trace-event sessions
over one asyncio event loop.  Every message is applied synchronously,
in arrival order, as soon as it is whole, so nothing waits in a queue
and no session is ever mid-step while another runs.  The same engine
serves two transports:

- **in-process** — :meth:`open_session` / :meth:`feed` /
  :meth:`close_session` with an ``on_event`` callback (what the load
  generator and the tests drive); each call then awaits the session's
  ``flush``;
- **TCP** — :meth:`start` accepts newline-delimited JSON connections
  speaking :mod:`repro.serve.protocol`, any number of sessions per
  connection, one :class:`asyncio.Protocol` each.  The replies and
  served events of one socket read go out in one ``transport.write``.

Backpressure is the transport's flow control: while a connection's
write buffer is over its high-water mark the server does not read that
connection, and TCP pushes back to the sender.  Events are never
dropped and never reordered.

Elastic eviction: at most ``max_resident`` sessions keep detector state
in memory.  Hydrating one more parks the least-recently-active resident
session to the disk spool through the versioned checkpoint schema; the
parked session's next event rehydrates it bit-identically.  An optional
idle sweeper parks sessions that have gone quiet, whatever the resident
count.  Both policies are invisible in the served event stream — only
latency changes.

Shutdown is a graceful drain: :meth:`drain` stops intake, closes the
connections, parks still-open sessions (no server reads their spool
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
from repro.serve.protocol import MAX_LINE_BYTES, ProtocolError
from repro.serve.session import Session, SessionError, SessionState

__all__ = ["PhaseServer", "SERVE_MANIFEST_KIND"]

logger = logging.getLogger("repro.serve")

SERVE_MANIFEST_KIND = "serve-run"

#: Seconds a drain lets each connection write out what it holds before
#: aborting it (a client that stopped reading never takes it all).
DRAIN_GRACE_S = 1.0

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
    try:
        unknown = set(data) - set(_CONFIG_DEFAULTS) - {"cw_size"}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return DetectorConfig.from_dict({**_CONFIG_DEFAULTS, **data})
    except (KeyError, TypeError, ValueError) as bad:
        raise ValueError(f"bad config: {bad}") from None


class PhaseServer:
    """A multiplexing, elastically evicting phase-detection server.

    Args:
        spool_dir: where parked session checkpoints (and the final
            manifest) live.  Defaults to a private temporary directory
            that lives as long as the server object.
        max_resident: most sessions allowed to keep detector state in
            memory at once; the LRU excess parks to the spool.
        idle_timeout: park sessions idle longer than this many seconds
            (``None`` disables the sweeper).
        events: ``"phase"`` serves phase boundaries only (the wire
            default); ``"all"`` serves the full event taxonomy.
        sample_latency: record per-chunk service latencies (seconds from
            the start of the chunk's handling to processed) in
            :attr:`latency_samples`.
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
        self._tmp = None
        if spool_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            spool_dir = Path(self._tmp.name)
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
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
        self._sessions: Dict[str, Session] = {}  # open sessions
        self._flushes: Dict[str, Callable[[], "asyncio.Future"]] = {}
        self._records: List[Dict[str, object]] = []  # finished sessions
        self._failures: Dict[str, str] = {}  # sid -> why its session failed
        self._resident: "OrderedDict[str, Session]" = OrderedDict()
        self._draining = False
        self._started = time.perf_counter()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._flight_task: Optional[asyncio.Task] = None
        self._connections: "set[_Connection]" = set()

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
        return len(self._sessions)

    @property
    def resident_count(self) -> int:
        """Sessions whose detector state is currently in memory."""
        return len(self._resident)

    @property
    def parked_count(self) -> int:
        """Open sessions currently checkpointed to the spool."""
        return sum(
            1 for session in self._sessions.values()
            if session.state is SessionState.PARKED
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
        """Make ``session`` resident, parking LRU sessions over the cap."""
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

    def _finish(self, session: Session) -> None:
        sid = session.sid
        self._resident.pop(sid, None)
        self._records.append(session.record())
        del self._sessions[sid]
        self._flushes.pop(sid, None)

    def _session(self, sid: str) -> Session:
        session = self._sessions.get(sid)
        if session is None:
            failure = self._failures.get(sid)
            raise SessionError(f"no open session {sid}" if failure is None
                               else f"session {sid} failed: {failure}")
        return session

    def _fail(self, session: Session, error: Exception) -> str:
        """Kill a session whose step raised and remember why; return the
        reason, which the failing message and every later one for the
        sid get as an ``error`` reply."""
        failure = self._failures[session.sid] = str(error)
        logger.warning("session %s failed: %s", session.sid, error)
        session.kill()
        self.metrics.counter("serve.sessions_failed").inc()
        self._finish(session)
        return failure

    # -- the synchronous core: one message, applied now ---------------------------

    def _open(self, sid: str, config: DetectorConfig, on_event) -> Session:
        if self._draining:
            raise SessionError("server is draining; not accepting sessions")
        if sid in self._sessions:
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
        self._sessions[sid] = session
        with self._span("serve.open", sid=sid):
            self._hydrate(session)
        self.metrics.counter("serve.sessions_opened").inc()
        self._ensure_sweeper()
        self._ensure_flight()
        return session

    def _feed(self, sid: str, elements: Sequence[int]) -> None:
        """Feed one chunk.  A step that raises fails the session and
        raises :class:`SessionError` with the reason, so the failing
        chunk itself gets the ``error``; later messages get it too."""
        session = self._session(sid)
        started = time.perf_counter()
        try:
            self._hydrate(session)
            with self._span("serve.feed", sid=sid, elements=len(elements)), \
                    self.metrics.time_histogram("serve.feed_seconds"):
                session.feed(elements)
        except Exception as error:  # noqa: BLE001 - reported to the client
            raise SessionError(self._fail(session, error)) from error
        self.metrics.counter("serve.events_in").inc(len(elements))
        self.metrics.counter("serve.chunks_in").inc()
        if self.latency_samples is not None:
            self.latency_samples.append(time.perf_counter() - started)

    def _close(self, sid: str) -> Dict[str, object]:
        session = self._session(sid)
        try:
            self._hydrate(session)
            with self._span("serve.close", sid=sid):
                summary = session.close()
        except Exception as error:  # noqa: BLE001 - reported to the client
            raise SessionError(self._fail(session, error)) from error
        self.metrics.counter("serve.sessions_closed").inc()
        self._finish(session)
        return summary

    # -- the in-process API ----------------------------------------------------

    async def open_session(
        self,
        sid: str,
        config: DetectorConfig,
        on_event: Optional[Callable[[str, Dict[str, object]], None]] = None,
        flush: Optional[Callable[[], "asyncio.Future"]] = None,
    ) -> Session:
        """Open a session.

        ``on_event(sid, event)`` receives each served detector event
        synchronously while a chunk is fed; ``flush`` (a coroutine
        function) is awaited after every chunk and after the close, so
        a slow flush holds back its own caller.
        """
        session = self._open(sid, config, on_event)
        if flush is not None:
            self._flushes[sid] = flush
        return session

    async def feed(self, sid: str, elements: Sequence[int]) -> None:
        """Feed one chunk to ``sid`` now, then await its ``flush``.

        Raises :class:`SessionError` for an unknown or failed session,
        and for the chunk whose step fails it (after the flush)."""
        flush = self._flushes.get(sid)
        try:
            self._feed(sid, elements)
        finally:
            if flush is not None:
                await flush()

    async def close_session(self, sid: str) -> Dict[str, object]:
        """Finish ``sid`` and await its ``flush``; return its summary."""
        flush = self._flushes.get(sid)
        summary = self._close(sid)
        if flush is not None:
            await flush()
        return summary

    def kill_session(self, sid: str) -> None:
        """Terminate a session immediately (dropped connection, abort);
        the manifest records it as killed in the state it was in."""
        session = self._sessions.get(sid)
        if session is None:
            return
        session.kill()
        self.metrics.counter("serve.sessions_killed").inc()
        self._finish(session)

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
                session = self._resident[sid]
                if session.idle_seconds(now) >= self.idle_timeout:
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
        self._tcp_server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port
        )
        self._ensure_sweeper()
        self._ensure_flight()
        return self._tcp_server

    @property
    def port(self) -> Optional[int]:
        if self._tcp_server is None or not self._tcp_server.sockets:
            return None
        return self._tcp_server.sockets[0].getsockname()[1]

    # -- shutdown --------------------------------------------------------------

    async def drain(self, manifest_path: Optional[Path] = None) -> Dict[str, object]:
        """Gracefully shut down: close connections, park survivors, manifest.

        Stops accepting new sessions and connections, closes every
        connection (each gets :data:`DRAIN_GRACE_S` to write out what it
        holds, then is aborted), parks still-open sessions to the spool
        (they could be resumed by a future worker), and writes the
        ``serve-run`` manifest.  Returns the manifest dict.
        """
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._flight_task is not None:
            self._flight_task.cancel()
        connections = list(self._connections)
        for connection in connections:
            connection.transport.close()
        if connections:
            waits = [asyncio.ensure_future(c.lost.wait()) for c in connections]
            await asyncio.wait(waits, timeout=DRAIN_GRACE_S)
            for connection in connections:
                if not connection.lost.is_set():
                    connection.transport.abort()
            await asyncio.gather(*waits)
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        for session in list(self._sessions.values()):
            self._resident.pop(session.sid, None)
            if not session.closed:
                if session.hydrated or session.state is SessionState.PARKED:
                    self._park(session)
                else:
                    session.kill()
            self._records.append(session.record())
        self._sessions.clear()
        self._flushes.clear()
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
        records += [session.record() for session in self._sessions.values()]
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


class _Connection(asyncio.Protocol):
    """One NDJSON connection; any number of multiplexed sessions.

    :meth:`data_received` frames whole lines out of each read and
    applies them in arrival order; a partial last line waits in
    :attr:`tail` for the next read, and is never allowed past
    :data:`~repro.serve.protocol.MAX_LINE_BYTES`.  A line that does not
    decode or validate gets one ``error`` reply, and the connection
    closes.  Replies and served events are collected in :attr:`out` and
    written once per read.
    """

    def __init__(self, server: PhaseServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.owned: Dict[str, Session] = {}
        self.tail = bytearray()
        self.out: List[bytes] = []
        self.closing = False
        self.lost = asyncio.Event()

    # -- asyncio callbacks -----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return
        tail = self.tail
        start = 0
        end = data.find(b"\n")
        while end >= 0:
            if tail:
                if len(tail) + end > MAX_LINE_BYTES:
                    self._refuse(f"line exceeds {MAX_LINE_BYTES} bytes")
                    break
                tail += data[:end]
                line = bytes(tail)
                tail.clear()
            else:
                line = data[start:end]
            if not self._apply(line):
                break
            start = end + 1
            end = data.find(b"\n", start)
        else:
            if len(tail) + len(data) - start > MAX_LINE_BYTES:
                self._refuse(f"line exceeds {MAX_LINE_BYTES} bytes")
            else:
                tail += data[start:]
        self._write()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        server = self.server
        server._connections.discard(self)
        # A dropped connection kills its unfinished sessions; the
        # manifest records the state each one died in.  During a
        # graceful drain the server parks them instead.
        if not server._draining:
            for sid, session in self.owned.items():
                if server._sessions.get(sid) is session:
                    server.kill_session(sid)
        self.lost.set()

    # -- applying lines ----------------------------------------------------------

    def _write(self) -> None:
        if self.out:
            self.transport.write(b"".join(self.out))
            self.out.clear()
        if self.closing:
            self.transport.close()

    def _reply(self, message: Dict[str, object]) -> None:
        self.out.append(protocol.encode_message(message))

    def _event(self, sid: str, event: Dict[str, object]) -> None:
        self.out.append(protocol.encode_message(protocol.event_message(sid, event)))

    def _refuse(self, error: str) -> None:
        """Answer a line that breaks the framing or the protocol with one
        ``error``, then close: nothing after it on this connection is
        applied."""
        self._reply(protocol.error_message(None, error))
        self.tail.clear()
        self.closing = True

    def _apply(self, line: bytes) -> bool:
        """Apply one wire line; ``False`` once the connection refuses."""
        if not line or line.isspace():
            return True
        try:
            message = protocol.decode_message(line)
            op = protocol.validate_client_message(message)
        except ProtocolError as error:
            self._refuse(str(error))
            return False
        reply = self._answer(op, message)
        if reply is not None:
            self._reply(reply)
        return True

    def _answer(self, op: str, message: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Apply one valid message; return its reply, if it has one."""
        server = self.server
        if op == "ping":
            return {"op": "pong"}
        if op == "stats":
            return server.stats_payload()
        if op == "healthz":
            return server.healthz_payload()
        sid: str = message["sid"]  # type: ignore[assignment]
        try:
            if op == "open":
                config = _config_from_wire(message["config"])  # type: ignore[arg-type]
                self.owned[sid] = server._open(sid, config, self._event)
                return protocol.opened_message(sid)
            if sid not in self.owned:
                raise SessionError(f"no open session {sid}")
            if op == "events":
                server._feed(sid, message["elements"])  # type: ignore[arg-type]
                return None
            summary = server._close(sid)
        except ValueError as error:  # a bad config or a SessionError
            return protocol.error_message(sid, str(error))
        del self.owned[sid]
        return protocol.closed_message(
            sid, int(summary["elements"]), int(summary["phases"]))
