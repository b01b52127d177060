"""One serving session: a detector lane with an elastic lifecycle.

A :class:`Session` wraps a
:class:`~repro.core.stream.StreamingDetector` — the chunk-buffering
front over the unified :class:`~repro.core.runtime.DetectorRuntime` —
and carries it through the serving state machine::

    open ──feed──> active ──park──> parked
                     ^                 │
                     │feed        feed │ (rehydrate)
                     │                 v
                   active <──feed── rehydrated
                     │
                   close/kill
                     v
                   closed

Parking serializes the detector through the one versioned ``checkpoint()``
schema (see ``docs/formats.md``) to a spool file and drops the
in-memory state; the next event rehydrates it with **bit-identical
continuation** — the event stream the client sees is byte-for-byte the
stream of an uninterrupted run.  That property is what lets one worker
hold far more sessions than fit in RAM: the
:class:`~repro.serve.server.PhaseServer` parks cold sessions under an
LRU/memory-pressure policy and this class makes the round-trip exact.

Phase boundary events flow out through a :class:`PhaseEventObserver`
attached to the runtime — by default only ``phase_enter`` and
``phase_exit`` (the serving payload); ``events="all"`` forwards the
full per-step taxonomy.  The observer declares its event types as
``kinds``, and the runtime builds only those: a phase-only session's
detector loop constructs no per-step ``similarity`` / ``decision``
events, so it advances as fast as an unobserved one.
"""

from __future__ import annotations

import os
import time
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.config import DetectorConfig
from repro.core.decision import CheckpointError
from repro.core.stream import StreamingDetector
from repro.obs.events import EVENT_TYPES
from repro.serve.protocol import validate_sid
from repro.serve.spool import decode_record, encode_record

__all__ = [
    "PHASE_EVENT_KINDS",
    "PhaseEventObserver",
    "Session",
    "SessionError",
    "SessionState",
]

#: The event types served to clients by default: the phase boundaries.
PHASE_EVENT_KINDS: Tuple[str, ...] = ("phase_enter", "phase_exit")


class SessionState(str, Enum):
    """Where a session is in its lifecycle (see module docstring)."""

    OPEN = "open"                # created, no events yet
    ACTIVE = "active"            # hydrated and fed
    PARKED = "parked"            # checkpointed to spool, no memory state
    REHYDRATED = "rehydrated"    # restored from spool, not yet fed again
    CLOSED = "closed"            # finished (or killed) — terminal


class SessionError(ValueError):
    """Raised for operations a session's state does not allow."""


class PhaseEventObserver:
    """Observer that forwards a subset of detector events to a callback.

    ``kinds=None`` forwards everything; the default serving subset is
    :data:`PHASE_EVENT_KINDS`.  ``kinds`` is the observer's declaration
    to the detector (see :func:`repro.obs.events.observes`), which
    builds and hands it only those event types, so :meth:`emit` filters
    nothing itself.  A name outside :data:`~repro.obs.events.EVENT_TYPES`
    — a typo that would silently drop events — raises
    :class:`ValueError`.  The callback is synchronous and runs inside
    the detector's feed path, so it must only buffer.
    """

    __slots__ = ("on_event", "kinds")

    def __init__(
        self,
        on_event: Callable[[Dict[str, object]], None],
        kinds: Optional[Iterable[str]] = PHASE_EVENT_KINDS,
    ) -> None:
        self.on_event = on_event
        if kinds is not None:
            kinds = frozenset(kinds)
            unknown = sorted(kinds - EVENT_TYPES.keys())
            if unknown:
                raise ValueError(
                    f"unknown event kinds {unknown}; "
                    f"expected names from {sorted(EVENT_TYPES)}"
                )
        self.kinds = kinds

    def emit(self, event: Dict[str, object]) -> None:
        self.on_event(event)

    def close(self) -> None:
        pass


class Session:
    """One client session: sid + config + elastic detector lane.

    Args:
        sid: the session id (validated; it names the spool file).
        config: the detector parameterization for this session.
        spool_dir: directory for park checkpoints.
        on_event: ``(sid, event)`` callback for served detector events.
        events: ``"phase"`` (default) serves only phase boundaries;
            ``"all"`` serves the full event taxonomy.
        metrics: optional metrics registry shared with the server; it
            rides down to the detector runtime so per-chunk advance
            times land in the ``runtime.advance_seconds`` histogram.
    """

    def __init__(
        self,
        sid: str,
        config: DetectorConfig,
        spool_dir: Path,
        on_event: Callable[[str, Dict[str, object]], None],
        events: str = "phase",
        metrics=None,
    ) -> None:
        self.sid = validate_sid(sid)
        self.config = config
        self.spool_dir = Path(spool_dir)
        self.spool_path = self.spool_dir / f"{self.sid}.ckpt"
        self.on_event = on_event
        self.metrics = metrics
        if events not in ("phase", "all"):
            raise ValueError(f"events must be 'phase' or 'all', got {events!r}")
        self._kinds = PHASE_EVENT_KINDS if events == "phase" else None
        self._observer = PhaseEventObserver(self._forward, self._kinds)
        self._detector: Optional[StreamingDetector] = StreamingDetector(
            config, observer=self._observer, metrics=metrics
        )
        self.state = SessionState.OPEN
        self.killed = False
        self.last_active = time.monotonic()
        # Lifetime counters (the manifest record).
        self.events_in = 0
        self.chunks_in = 0
        self.events_out = 0
        self.parks = 0
        self.rehydrations = 0
        self.phases = 0

    # -- event plumbing --------------------------------------------------------

    def _forward(self, event: Dict[str, object]) -> None:
        self.events_out += 1
        if event["ev"] == "phase_exit":
            self.phases += 1
        self.on_event(self.sid, event)

    # -- state views -----------------------------------------------------------

    @property
    def hydrated(self) -> bool:
        """True while the detector state is resident in memory."""
        return self._detector is not None

    @property
    def closed(self) -> bool:
        return self.state is SessionState.CLOSED

    def idle_seconds(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) - self.last_active

    # -- the lifecycle ---------------------------------------------------------

    def feed(self, elements: Sequence[int]) -> None:
        """Consume one chunk of profile elements (rehydrating if parked)."""
        if self.closed:
            raise SessionError(f"session {self.sid} is closed")
        if self._detector is None:
            self.rehydrate()
        self._detector.feed(elements)
        self.events_in += len(elements)
        self.chunks_in += 1
        self.state = SessionState.ACTIVE
        self.last_active = time.monotonic()

    def park(self) -> bool:
        """Checkpoint to the spool and drop the in-memory detector.

        The checkpoint is packed as one spool record
        (:mod:`repro.serve.spool`), written over the session's previous
        one from offset 0, and the file is truncated to the record's
        length (see ``docs/formats.md`` for what a crash leaves).
        Returns ``False`` (a no-op) when there is nothing to park — the
        session is already parked or closed.
        """
        if self._detector is None or self.closed:
            return False
        record = encode_record(self._detector.checkpoint())
        try:
            fd = os.open(self.spool_path, os.O_WRONLY | os.O_CREAT, 0o666)
        except FileNotFoundError:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.spool_path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(record)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(record))
        finally:
            os.close(fd)
        self._detector = None
        self.state = SessionState.PARKED
        self.parks += 1
        return True

    def rehydrate(self) -> None:
        """Restore the detector from the spool, bit-identically.

        A missing spool file, or a record that
        :func:`~repro.serve.spool.decode_record` rejects, raises
        :class:`~repro.core.decision.CheckpointError` naming the file.
        """
        if self.closed:
            raise SessionError(f"session {self.sid} is closed")
        if self._detector is not None:
            return
        path = self.spool_path
        try:
            with open(path, "rb") as spool:
                data = decode_record(spool.read())
        except (OSError, CheckpointError) as error:
            raise CheckpointError(f"unreadable spool file {path}: {error}") from error
        self._detector = StreamingDetector.restore(
            data, observer=self._observer, metrics=self.metrics
        )
        self.state = SessionState.REHYDRATED
        self.rehydrations += 1
        self.last_active = time.monotonic()

    def close(self) -> Dict[str, object]:
        """Finish the stream (flushing any partial step) and summarize.

        A parked session is rehydrated first so its final phase — if one
        is still open — closes and emits exactly as an uninterrupted run
        would.
        """
        if self.closed:
            raise SessionError(f"session {self.sid} is already closed")
        if self._detector is None:
            self.rehydrate()
        result = self._detector.finish()
        summary: Dict[str, object] = {
            "elements": self.events_in,
            "phases": len(result.detected_phases),
        }
        self._detector = None
        self.state = SessionState.CLOSED
        self.spool_path.unlink(missing_ok=True)
        return summary

    def kill(self) -> None:
        """Terminate without finishing (a dropped connection, a drain kill).

        The open phase, if any, never closes — exactly what a crashed
        online client would observe.  The manifest record keeps the
        pre-kill state under ``state_at_end`` and flags ``killed``.
        """
        if self.closed:
            return
        self._state_at_kill = self.state
        self.killed = True
        self._detector = None
        self.state = SessionState.CLOSED
        self.spool_path.unlink(missing_ok=True)

    # -- accounting ------------------------------------------------------------

    def record(self) -> Dict[str, object]:
        """This session's manifest record (JSON-safe)."""
        state_at_end = getattr(self, "_state_at_kill", self.state)
        return {
            "sid": self.sid,
            "state": self.state.value,
            "state_at_end": state_at_end.value,
            "killed": self.killed,
            "config": self.config.describe(),
            "events_in": self.events_in,
            "chunks_in": self.chunks_in,
            "events_out": self.events_out,
            "phases": self.phases,
            "parks": self.parks,
            "rehydrations": self.rehydrations,
        }
