"""Streaming phase-detection service.

The paper's setting is *online*: the detector decides P/T while the
program runs.  :mod:`repro.serve` is the deployment shape of that
contract — a long-running asyncio server that multiplexes many
concurrent trace-event sessions, routes each one to its own
:class:`~repro.core.stream.StreamingDetector` lane (the chunked front
over the unified :class:`~repro.core.runtime.DetectorRuntime`), and
pushes phase boundary events — in the :mod:`repro.obs` event schema —
back to the client as they are detected.

Layers, bottom up:

- :mod:`repro.serve.protocol` — the newline-delimited JSON wire
  protocol and its validation;
- :mod:`repro.serve.spool` — the spool record a parked session's
  checkpoint is packed into: int64 element lists behind a JSON header,
  guarded by a length and a CRC-32;
- :mod:`repro.serve.session` — one session's lifecycle (open → active
  → parked → rehydrated → closed) around the versioned detector
  checkpoint, with park/rehydrate to a disk spool;
- :mod:`repro.serve.server` — :class:`PhaseServer`: bounded per-session
  queues with backpressure, LRU elastic eviction of cold sessions,
  idle parking, graceful drain, a serve-run manifest, and the TCP
  front end (the same engine also drives purely in-process);
- :mod:`repro.serve.client` — :class:`ServeClient`, the asyncio wire
  client;
- :mod:`repro.serve.loadgen` — the seeded load generator behind
  ``repro serve-bench`` and the throughput row in
  ``benchmarks/check_regression.py``.

The serving guarantee is bit-identity: the phase event stream a session
receives over the wire is byte-for-byte the stream an offline
:func:`~repro.core.engine.run_detector` call over the same elements
emits — including sessions that were parked to disk and rehydrated
mid-trace.  See ``docs/serving.md``.
"""

from repro.serve.client import ServeClient
from repro.serve.loadgen import (
    LoadResult,
    SessionSpec,
    run_load,
    serve_bench,
    suite_session_specs,
    synthetic_session_specs,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    validate_client_message,
)
from repro.serve.server import PhaseServer
from repro.serve.session import Session, SessionError, SessionState

__all__ = [
    "LoadResult",
    "PROTOCOL_VERSION",
    "PhaseServer",
    "ProtocolError",
    "ServeClient",
    "Session",
    "SessionError",
    "SessionSpec",
    "SessionState",
    "decode_message",
    "encode_message",
    "run_load",
    "serve_bench",
    "suite_session_specs",
    "synthetic_session_specs",
    "validate_client_message",
]
