"""The serving wire protocol: newline-delimited JSON messages.

One TCP connection carries any number of *sessions* (session
multiplexing): every message names its session with a ``sid``, so a
client can interleave traffic for thousands of detectors over one
socket.  Each line is one compact JSON object; the full message
catalog, framing rules, and limits are documented in
``docs/serving.md``.

Client → server operations (``op`` field):

- ``open``    — ``{"op": "open", "sid", "config": {DetectorConfig}}``
- ``events``  — ``{"op": "events", "sid", "elements": [int, ...]}``
- ``close``   — ``{"op": "close", "sid"}``
- ``ping``    — ``{"op": "ping"}``
- ``stats``   — ``{"op": "stats"}`` (protocol ≥ 2): live telemetry
- ``healthz`` — ``{"op": "healthz"}`` (protocol ≥ 2): liveness + drain

Server → client operations:

- ``opened`` — ``{"op": "opened", "sid", "protocol": 2}``
- ``event``  — ``{"op": "event", "sid", "event": {...}}`` where
  ``event`` is a :mod:`repro.obs` schema event (``phase_enter`` /
  ``phase_exit`` by default) exactly as the detector emitted it;
- ``closed`` — ``{"op": "closed", "sid", "elements", "phases"}``
- ``error``  — ``{"op": "error", "sid" | null, "error": str}``
- ``pong``   — ``{"op": "pong"}``
- ``stats``  — ``{"op": "stats", "protocol", "uptime", "sessions",
  "metrics", "flight"}`` — the current metrics snapshot plus the
  flight-recorder ring tail (empty when no recorder runs);
- ``healthz`` — ``{"op": "healthz", "status", "draining", "sessions",
  "resident", "parked", "uptime"}``

Version 2 is a superset of version 1: every v1 message is valid and
means the same thing, so v1 clients interoperate unchanged (they just
never ask for ``stats``/``healthz``).

Session ids are restricted to ``[A-Za-z0-9._-]`` (64 chars max, no
leading dot) — they name spool files on the server, so the character
set is a security boundary, not a style choice.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Union

__all__ = [
    "ELEMENT_MAX",
    "ELEMENT_MIN",
    "MAX_ELEMENTS_PER_MESSAGE",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "closed_message",
    "error_message",
    "event_message",
    "healthz_message",
    "opened_message",
    "stats_message",
    "validate_client_message",
    "validate_sid",
]

#: Version of the wire protocol (bump on any incompatible change).
#: v2 added the ``stats`` and ``healthz`` verbs; v1 traffic is a strict
#: subset and keeps working.
PROTOCOL_VERSION = 2

#: Longest accepted line, in bytes (also the asyncio reader limit).
MAX_LINE_BYTES = 1 << 22

#: Most elements one ``events`` message may carry.
MAX_ELEMENTS_PER_MESSAGE = 1 << 16

#: Profile elements are signed 64-bit (``docs/formats.md``).
ELEMENT_MIN = -(1 << 63)
ELEMENT_MAX = (1 << 63) - 1

#: Valid session ids: filesystem-safe, no leading dot, bounded length.
SID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

#: Client operations and their required payload fields.
CLIENT_OPS = {
    "open": ("sid", "config"),
    "events": ("sid", "elements"),
    "close": ("sid",),
    "ping": (),
    "stats": (),
    "healthz": (),
}


class ProtocolError(ValueError):
    """Raised for malformed or out-of-contract wire messages."""


def validate_sid(sid: object) -> str:
    """Check a session id; return it. Raise :class:`ProtocolError`.

    The sid names a spool file on the server, so anything outside the
    ``[A-Za-z0-9._-]`` alphabet (or with a leading dot) is rejected
    before it ever reaches a path join.
    """
    if not isinstance(sid, str) or not SID_PATTERN.fullmatch(sid):
        raise ProtocolError(f"invalid session id {sid!r}")
    return sid


def encode_message(message: Dict[str, object]) -> bytes:
    """One message as a compact JSON line (UTF-8, trailing newline)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: Union[bytes, str]) -> Dict[str, object]:
    """Parse one wire line; raise :class:`ProtocolError` if malformed."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"line is not UTF-8: {error}") from None
    try:
        message = json.loads(line)
    except ValueError as error:  # not JSON, or an int past Python's digit limit
        raise ProtocolError(f"line is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    return message


def validate_client_message(message: Dict[str, object]) -> str:
    """Check a client message's shape; return its ``op``.

    Raises :class:`ProtocolError` naming the first violation: unknown
    op, missing field, bad sid, or an ``elements`` payload that is not
    a bounded list of signed 64-bit integers.
    """
    op = message.get("op")
    if op not in CLIENT_OPS:
        raise ProtocolError(f"unknown op {op!r}")
    for field in CLIENT_OPS[op]:
        if field not in message:
            raise ProtocolError(f"{op} message missing field {field!r}")
    if "sid" in CLIENT_OPS[op]:
        validate_sid(message["sid"])
    if op == "open" and not isinstance(message["config"], dict):
        raise ProtocolError("open message 'config' must be an object")
    if op == "events":
        elements = message["elements"]
        if not isinstance(elements, list):
            raise ProtocolError("events message 'elements' must be a list")
        if len(elements) > MAX_ELEMENTS_PER_MESSAGE:
            raise ProtocolError(
                f"events message carries {len(elements)} elements "
                f"(limit {MAX_ELEMENTS_PER_MESSAGE})"
            )
        # JSON decodes no int subclass but bool, so one exact type test
        # per element rejects bools, floats, strings and nulls alike.
        for value in elements:
            if type(value) is not int:
                raise ProtocolError(
                    f"events message element {value!r} is not an integer"
                )
        if elements and (min(elements) < ELEMENT_MIN or max(elements) > ELEMENT_MAX):
            raise ProtocolError(
                "events message carries an element outside the signed 64-bit range"
            )
    return op  # type: ignore[return-value]


# -- server-side message builders ---------------------------------------------


def opened_message(sid: str) -> Dict[str, object]:
    return {"op": "opened", "sid": sid, "protocol": PROTOCOL_VERSION}


def event_message(sid: str, event: Dict[str, object]) -> Dict[str, object]:
    return {"op": "event", "sid": sid, "event": event}


def closed_message(sid: str, elements: int, phases: int) -> Dict[str, object]:
    return {"op": "closed", "sid": sid, "elements": elements, "phases": phases}


def error_message(sid: Optional[str], error: str) -> Dict[str, object]:
    return {"op": "error", "sid": sid, "error": error}


def stats_message(
    uptime: float,
    sessions: Dict[str, int],
    metrics: Dict[str, object],
    flight: List[Dict[str, object]],
) -> Dict[str, object]:
    """The ``stats`` reply: snapshot + flight-recorder ring tail."""
    return {
        "op": "stats",
        "protocol": PROTOCOL_VERSION,
        "uptime": round(uptime, 6),
        "sessions": sessions,
        "metrics": metrics,
        "flight": flight,
    }


def healthz_message(
    draining: bool,
    sessions: int,
    resident: int,
    parked: int,
    uptime: float,
) -> Dict[str, object]:
    """The ``healthz`` reply: liveness, drain state, session census."""
    return {
        "op": "healthz",
        "status": "draining" if draining else "ok",
        "draining": draining,
        "sessions": sessions,
        "resident": resident,
        "parked": parked,
        "uptime": round(uptime, 6),
    }


def encode_events(sid: str, events: List[Dict[str, object]]) -> bytes:
    """Encode a batch of detector events as consecutive wire lines."""
    return b"".join(encode_message(event_message(sid, event)) for event in events)
