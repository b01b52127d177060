"""The event bus and its sinks.

An *observer* is anything with an ``emit(event: dict)`` method.  The
instrumented entry points (``run_detector``, ``PhaseDetector``) accept
one directly — a single sink is the common case and costs no fan-out
indirection — or an :class:`EventBus` when several sinks should see the
same stream.

An observer may also carry ``kinds``: a frozenset of
:data:`~repro.obs.events.EVENT_TYPES` names, or ``None`` (the same as
no attribute) for every type.  The emitting code builds only the
declared types (:func:`~repro.obs.events.observes`), reading the
per-step ones once, when the observer is attached.

Sinks:

- :class:`NullSink` — drops everything; the explicit-object form of the
  default ``observer=None``.  It declares no kinds, so it costs what
  ``None`` costs: the emitting code builds no event.
- :class:`MemorySink` — buffers events in a list (tests, ad-hoc
  analysis).
- :class:`JsonlSink` — appends one compact JSON object per line; the
  on-disk trace format ``repro obs tail`` reads.

:func:`read_events` loads a JSONL trace back, tolerating a torn final
line (a crashed or killed writer), so a partial trace is still usable
up to its last complete event.
"""

from __future__ import annotations

import io
import json
import os
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Union

from repro.obs.events import EventSchemaError, observes, validate_event

PathLike = Union[str, os.PathLike]

__all__ = [
    "EventBus",
    "EventTraceError",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "read_events",
]


class EventTraceError(ValueError):
    """Raised when an on-disk event trace is malformed mid-file."""


class NullSink:
    """Swallows every event.  Exists so 'no observability' is spellable
    as an object; it declares no kinds, so no event is even built for
    it — the same cost as ``observer=None``."""

    __slots__ = ()

    kinds: FrozenSet[str] = frozenset()

    def emit(self, event: Dict[str, object]) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Buffers events in :attr:`events` (primarily for tests)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def emit(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def clear(self) -> None:
        self.events.clear()


class JsonlSink:
    """Append events to ``path``, one compact JSON object per line.

    Args:
        path: the trace file to create (parent directories are made).
        validate: check each event against the schema before writing
            (useful in tests; off by default on the hot path).
        buffered: keep Python-level buffering (default).  Pass ``False``
            to flush after every event — slower, but a crash tears at
            most one line, which :func:`read_events` tolerates anyway.

    Usable as a context manager.

    Thread-safety: :meth:`emit` serializes each event *outside* the
    lock, then takes an internal lock for the single ``write()`` call —
    concurrent session writers (e.g. several serving sessions sharing
    one sink) interleave whole lines, never fragments of two events.
    Ordering across writers is whatever the lock arbitration yields;
    within one writer it is emission order.
    """

    def __init__(self, path: PathLike, validate: bool = False, buffered: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._validate = validate
        self._buffered = buffered
        self._handle: Optional[io.TextIOBase] = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()
        self.emitted = 0

    def emit(self, event: Dict[str, object]) -> None:
        if self._validate:
            validate_event(event)
        line = json.dumps(event, separators=(",", ":")) + "\n"
        with self._lock:
            if self._handle is None:
                raise ValueError(f"JsonlSink({self.path}) is closed")
            self._handle.write(line)
            if not self._buffered:
                self._handle.flush()
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventBus:
    """Fan one event stream out to several sinks.

    The bus itself satisfies the observer protocol, so it plugs into
    the same ``observer=`` parameter a bare sink does.  Its
    :attr:`kinds` is the union of its sinks' kinds, and each event goes
    only to the sinks that declared its type.  An engine reads
    ``kinds`` when the bus is attached, so subscribe the sinks first.
    """

    def __init__(self) -> None:
        self._sinks: List = []

    @property
    def kinds(self) -> Optional[FrozenSet[str]]:
        """The union of the sinks' kinds; ``None`` when any sink wants
        every type (an empty bus wants none)."""
        union: FrozenSet[str] = frozenset()
        for sink in self._sinks:
            kinds = getattr(sink, "kinds", None)
            if kinds is None:
                return None
            union |= kinds
        return union

    def subscribe(self, sink) -> None:
        self._sinks.append(sink)

    def unsubscribe(self, sink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> List:
        return list(self._sinks)

    def emit(self, event: Dict[str, object]) -> None:
        kind = event["ev"]
        for sink in self._sinks:
            if observes(sink, kind):
                sink.emit(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def read_events(
    path: PathLike, validate: bool = False
) -> Iterator[Dict[str, object]]:
    """Stream events back from a JSONL trace.

    A torn *final* line (interrupted writer) is silently dropped;
    undecodable content anywhere else raises :class:`EventTraceError`,
    as does a schema violation when ``validate`` is set.
    """
    path = Path(path)
    pending: Optional[str] = None  # last seen undecodable line
    pending_number = 0
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if pending is not None:
                # An undecodable line followed by more content is
                # corruption, not a torn tail.
                raise EventTraceError(
                    f"{path}:{pending_number}: undecodable event line"
                )
            try:
                event = json.loads(stripped)
            except json.JSONDecodeError:
                pending = stripped
                pending_number = number
                continue
            if not isinstance(event, dict):
                raise EventTraceError(
                    f"{path}:{number}: event is not a JSON object"
                )
            if validate:
                try:
                    validate_event(event)
                except EventSchemaError as exc:
                    raise EventTraceError(f"{path}:{number}: {exc}") from None
            yield event
