"""The seeded load generator behind ``repro serve-bench``.

It replays suite (or synthetic) workloads as many interleaved serving
sessions and verifies the serving guarantee end to end: for every
session, the phase event stream that came out of the server is
byte-compared against an offline :func:`~repro.core.engine.run_detector`
run over the same elements.  Sessions are generated by cycling a small
``workload × config`` matrix, so verification needs only one offline
reference run per distinct (elements, config) group no matter how many
thousands of sessions replay it.

Everything is seeded: the interleaving order and the per-chunk size
jitter come from one :class:`numpy.random.Generator`, so a run is
reproducible from ``(specs, chunk, seed)`` alone.

Entry points:

- :func:`suite_session_specs` / :func:`synthetic_session_specs` — build
  the session population;
- :func:`run_load` — drive a :class:`~repro.serve.server.PhaseServer`
  (in-process or over TCP) and return a :class:`LoadResult`;
- :func:`serve_bench` — the full benchmark: a main throughput run plus
  a small forced-eviction run that proves park/rehydrate mid-trace is
  invisible in the served stream.  This is what the ``repro
  serve-bench`` CLI verb and the ``benchmarks/check_regression.py``
  serve row call.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DetectorConfig, ModelKind, TrailingPolicy
from repro.core.engine import run_detector
from repro.obs.bus import MemorySink
from repro.profiles.synthetic import SyntheticTraceBuilder
from repro.profiles.trace import BranchTrace
from repro.serve.server import PhaseServer
from repro.serve.session import PHASE_EVENT_KINDS

__all__ = [
    "BENCH_CONFIGS",
    "LoadResult",
    "SessionSpec",
    "run_load",
    "serve_bench",
    "suite_session_specs",
    "synthetic_session_specs",
]

#: The detector parameterizations cycled across generated sessions —
#: the same model x trailing-policy matrix the perf suite pins.
BENCH_CONFIGS: Dict[str, DetectorConfig] = {
    "unweighted-constant": DetectorConfig(cw_size=250, threshold=0.6),
    "unweighted-adaptive": DetectorConfig(
        cw_size=250, trailing=TrailingPolicy.ADAPTIVE, threshold=0.6
    ),
    "weighted-constant": DetectorConfig(
        cw_size=250, model=ModelKind.WEIGHTED, threshold=0.6
    ),
    "weighted-adaptive": DetectorConfig(
        cw_size=250,
        model=ModelKind.WEIGHTED,
        trailing=TrailingPolicy.ADAPTIVE,
        threshold=0.6,
    ),
}


@dataclass
class SessionSpec:
    """One generated session: its id, its elements, its config.

    ``group`` names the (elements, config) equivalence class — sessions
    in the same group must serve byte-identical phase streams, so the
    verifier computes one offline reference per group.
    """

    sid: str
    elements: np.ndarray
    config: DetectorConfig
    group: str

    def __len__(self) -> int:
        return int(self.elements.size)


@dataclass
class LoadResult:
    """What one :func:`run_load` run produced and measured."""

    sessions: int
    elements: int
    chunks: int
    phase_events: int
    elapsed_seconds: float
    events_per_sec: float
    latency_p50_ms: Optional[float] = None
    latency_p99_ms: Optional[float] = None
    parks: int = 0
    rehydrations: int = 0
    resident_high_water: int = 0
    verified: Optional[bool] = None
    mismatched: List[str] = field(default_factory=list)
    #: Served phase events per session (obs-schema dicts, in order).
    events_by_sid: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """The JSON-safe row (drops the per-session event buffers)."""
        return {
            "sessions": self.sessions,
            "elements": self.elements,
            "chunks": self.chunks,
            "phase_events": self.phase_events,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "events_per_sec": round(self.events_per_sec, 2),
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "parks": self.parks,
            "rehydrations": self.rehydrations,
            "resident_high_water": self.resident_high_water,
            "verified": self.verified,
            "mismatched": list(self.mismatched),
        }


# -- session populations -------------------------------------------------------


def _config_cycle(family: str = "windowed") -> List[Tuple[str, DetectorConfig]]:
    """The config matrix sessions cycle through.

    The windowed default is the perf suite's model x trailing matrix
    (:data:`BENCH_CONFIGS`); any other registered family cycles two
    variants of its registry default — the stock bar and a tighter one —
    scaled to the same ``cw_size`` the windowed matrix uses.
    """
    if family == "windowed":
        return list(BENCH_CONFIGS.items())
    from dataclasses import replace

    from repro.comparators import engine_family

    spec = engine_family(family)
    base = replace(spec.default_config(), cw_size=250)
    built = spec.build(base)
    bar = getattr(built, "stat_threshold", None)
    variants = [(f"{family}-default", base)]
    if bar is not None:
        variants.append(
            (f"{family}-tight", replace(base, stat_threshold=bar * 0.75))
        )
    return variants


def _make_specs(
    sources: List[Tuple[str, np.ndarray]],
    sessions: int,
    prefix: str,
    family: str = "windowed",
) -> List[SessionSpec]:
    configs = _config_cycle(family)
    specs: List[SessionSpec] = []
    for index in range(sessions):
        source_name, elements = sources[index % len(sources)]
        config_name, config = configs[(index // len(sources)) % len(configs)]
        group = f"{source_name}/{config_name}/{elements.size}"
        specs.append(
            SessionSpec(
                sid=f"{prefix}-{index:05d}",
                elements=elements,
                config=config,
                group=group,
            )
        )
    return specs


def synthetic_session_specs(
    sessions: int,
    elements_per_session: int = 2000,
    seed: int = 17,
    prefix: str = "syn",
    family: str = "windowed",
) -> List[SessionSpec]:
    """Generate sessions over a small family of synthetic phased traces.

    Four distinct traces (seeded off ``seed``) are cycled against the
    :data:`BENCH_CONFIGS` matrix; the population is fully deterministic.
    """
    sources: List[Tuple[str, np.ndarray]] = []
    for offset in range(4):
        builder = SyntheticTraceBuilder(
            seed=seed + offset, name=f"serve-syn-{offset}"
        )
        produced = 0
        while produced < elements_per_session:
            transition = 120 + 40 * offset
            phase = 900 + 150 * offset
            builder.add_transition(transition)
            builder.add_phase(phase, body_size=8 + 2 * offset)
            produced += transition + phase
        trace, _ = builder.build()
        elements = trace.array[:elements_per_session].copy()
        elements.setflags(write=False)
        sources.append((f"syn{offset}", elements))
    return _make_specs(sources, sessions, prefix, family=family)


def suite_session_specs(
    sessions: int,
    elements_per_session: int = 2000,
    scale: float = 0.3,
    cache_dir: Optional[Path] = None,
    names: Optional[List[str]] = None,
    prefix: str = "suite",
    family: str = "windowed",
) -> List[SessionSpec]:
    """Generate sessions replaying the benchmark suite's branch traces.

    Each session streams the first ``elements_per_session`` elements of
    one suite workload (cached via
    :func:`repro.workloads.suite.load_traces`), cycled against the
    :data:`BENCH_CONFIGS` matrix.
    """
    from repro.workloads.suite import load_suite

    traces = load_suite(scale=scale, cache_dir=cache_dir, names=names)
    sources: List[Tuple[str, np.ndarray]] = []
    for name, (branch_trace, _call_loop) in traces.items():
        elements = np.asarray(branch_trace.array[:elements_per_session])
        sources.append((name, elements))
    return _make_specs(sources, sessions, prefix, family=family)


# -- the offline reference and the byte comparison -----------------------------


def _encode_stream(events: Sequence[Dict[str, object]]) -> bytes:
    """A phase event stream as canonical compact-JSON lines."""
    return b"".join(
        json.dumps(event, separators=(",", ":")).encode("utf-8") + b"\n"
        for event in events
    )


def _offline_phase_stream(spec: SessionSpec) -> bytes:
    """The reference stream: offline run_detector over the same elements."""
    sink = MemorySink()
    run_detector(
        BranchTrace(spec.elements, name=spec.group), spec.config, observer=sink
    )
    phases = [event for event in sink.events if event["ev"] in PHASE_EVENT_KINDS]
    return _encode_stream(phases)


def verify_sessions(
    specs: Sequence[SessionSpec],
    events_by_sid: Dict[str, List[Dict[str, object]]],
) -> List[str]:
    """Byte-compare every session's served stream to its offline twin.

    Returns the sids that mismatched (empty means fully verified).  One
    offline reference is computed per spec ``group``.
    """
    references: Dict[str, bytes] = {}
    mismatched: List[str] = []
    for spec in specs:
        reference = references.get(spec.group)
        if reference is None:
            reference = _offline_phase_stream(spec)
            references[spec.group] = reference
        served = _encode_stream(events_by_sid.get(spec.sid, []))
        if served != reference:
            mismatched.append(spec.sid)
    return mismatched


# -- driving the server --------------------------------------------------------


async def run_load(
    server: PhaseServer,
    specs: Sequence[SessionSpec],
    chunk: int = 256,
    seed: int = 17,
    transport: str = "local",
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    connections: int = 8,
    verify: bool = True,
) -> LoadResult:
    """Replay ``specs`` against ``server`` as interleaved sessions.

    Every round feeds one chunk to each still-open session in a seeded
    shuffled order, with seeded chunk-size jitter (so sub-``skipFactor``
    buffering is exercised); a session whose elements are exhausted is
    closed in place.  ``transport="local"`` drives the in-process API;
    ``"tcp"`` multiplexes the sessions over ``connections`` wire
    connections to ``host:port`` (the server must already be started).

    With ``verify`` the served phase streams are byte-compared against
    offline references (see :func:`verify_sessions`).
    """
    if transport not in ("local", "tcp"):
        raise ValueError(f"transport must be 'local' or 'tcp', got {transport!r}")
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    rng = np.random.default_rng(seed)
    events_by_sid: Dict[str, List[Dict[str, object]]] = {
        spec.sid: [] for spec in specs
    }
    started = time.perf_counter()

    if transport == "local":
        for spec in specs:
            buffer = events_by_sid[spec.sid]
            await server.open_session(
                spec.sid,
                spec.config,
                on_event=lambda _sid, event, _buf=buffer: _buf.append(event),
            )

        async def feed(spec: SessionSpec, elements: List[int]) -> None:
            await server.feed(spec.sid, elements)

        async def close(spec: SessionSpec) -> None:
            await server.close_session(spec.sid)

        clients = []
    else:
        from repro.serve.client import ServeClient

        if port is None:
            port = server.port
        if port is None:
            raise ValueError("tcp transport needs a started server or a port")
        clients = [
            await ServeClient.connect(host, port)
            for _ in range(max(1, min(connections, len(specs))))
        ]
        client_of: Dict[str, object] = {}
        for index, spec in enumerate(specs):
            client = clients[index % len(clients)]
            client_of[spec.sid] = client
            buffer = events_by_sid[spec.sid]
            await client.open(
                spec.sid,
                spec.config,
                on_event=lambda event, _buf=buffer: _buf.append(event),
            )

        async def feed(spec: SessionSpec, elements: List[int]) -> None:
            await client_of[spec.sid].send(spec.sid, elements)

        async def close(spec: SessionSpec) -> None:
            await client_of[spec.sid].close_session(spec.sid)

    chunks = 0
    position = {spec.sid: 0 for spec in specs}
    active: List[SessionSpec] = list(specs)
    jitter = max(1, chunk // 4)
    while active:
        order = rng.permutation(len(active))
        survivors: List[SessionSpec] = []
        for index in order:
            spec = active[index]
            start = position[spec.sid]
            size = int(chunk + rng.integers(0, jitter))
            piece = spec.elements[start : start + size]
            await feed(spec, piece.tolist())
            chunks += 1
            position[spec.sid] = start + int(piece.size)
            if position[spec.sid] >= spec.elements.size:
                await close(spec)
            else:
                survivors.append(spec)
        active = survivors

    elapsed = time.perf_counter() - started
    for client in clients:
        await client.aclose()

    total_elements = int(sum(spec.elements.size for spec in specs))
    phase_events = sum(len(events) for events in events_by_sid.values())
    samples = server.latency_samples
    latency_p50 = latency_p99 = None
    if samples:
        latency_p50 = round(float(np.percentile(samples, 50)) * 1e3, 3)
        latency_p99 = round(float(np.percentile(samples, 99)) * 1e3, 3)
    mismatched: List[str] = []
    verified: Optional[bool] = None
    if verify:
        mismatched = verify_sessions(specs, events_by_sid)
        verified = not mismatched
    return LoadResult(
        sessions=len(specs),
        elements=total_elements,
        chunks=chunks,
        phase_events=phase_events,
        elapsed_seconds=elapsed,
        events_per_sec=(total_elements / elapsed) if elapsed > 0 else 0.0,
        latency_p50_ms=latency_p50,
        latency_p99_ms=latency_p99,
        parks=server.metrics.counter("serve.sessions_parked").value,
        rehydrations=server.metrics.counter("serve.sessions_rehydrated").value,
        resident_high_water=int(
            server.metrics.gauge("serve.resident_high_water").value
        ),
        verified=verified,
        mismatched=mismatched,
        events_by_sid=events_by_sid,
    )


# -- the benchmark entry point -------------------------------------------------


def serve_bench(
    sessions: int = 1000,
    elements_per_session: int = 2000,
    chunk: int = 256,
    source: str = "suite",
    scale: float = 0.3,
    cache_dir: Optional[Path] = None,
    max_resident: Optional[int] = None,
    seed: int = 17,
    transport: str = "local",
    connections: int = 8,
    verify: bool = True,
    park_sessions: int = 64,
    park_max_resident: int = 8,
    spool_dir: Optional[Path] = None,
    manifest_path: Optional[Path] = None,
    flight_record: Optional[Path] = None,
    flight_interval: float = 0.25,
    family: str = "windowed",
) -> Dict[str, object]:
    """Run the serving benchmark; return its JSON-safe result row.

    ``family`` selects the detector family the generated sessions run
    (see :func:`_config_cycle`); the offline verification path builds
    the same family, so the served-vs-offline byte comparison — and the
    parked run's park/rehydrate bit-identity proof — applies to every
    registered family.

    Two runs:

    - **main** — ``sessions`` concurrent sessions replaying ``source``
      workloads (``"suite"`` or ``"synthetic"``), measuring end-to-end
      events/sec and per-chunk service latency, optionally verifying
      every served stream against the offline path;
    - **parked** — a small run with ``max_resident`` clamped to
      ``park_max_resident`` so sessions are forcibly parked to disk and
      rehydrated mid-trace; its streams are *always* verified — this is
      the bit-identity proof for elastic eviction.

    Pass ``park_sessions=0`` to skip the parked run.  With
    ``flight_record`` the main run's server spools interval metrics
    samples to that JSONL flight record (every ``flight_interval``
    seconds) — summed per-interval ``serve.events_in`` deltas in a
    complete record equal the run's final counter.
    """
    if source == "suite":
        specs = suite_session_specs(
            sessions,
            elements_per_session=elements_per_session,
            scale=scale,
            cache_dir=cache_dir,
            family=family,
        )
    elif source == "synthetic":
        specs = synthetic_session_specs(
            sessions,
            elements_per_session=elements_per_session,
            seed=seed,
            family=family,
        )
    else:
        raise ValueError(f"source must be 'suite' or 'synthetic', got {source!r}")

    async def _main_run() -> Tuple[LoadResult, Dict[str, object]]:
        server = PhaseServer(
            spool_dir=spool_dir,
            max_resident=max_resident if max_resident is not None else sessions,
            name="serve-bench",
            sample_latency=True,
            flight_record=flight_record,
            flight_interval=flight_interval if flight_record is not None else None,
        )
        try:
            if transport == "tcp":
                await server.start(host="127.0.0.1", port=0)
            result = await run_load(
                server,
                specs,
                chunk=chunk,
                seed=seed,
                transport=transport,
                connections=connections,
                verify=verify,
            )
            manifest = await server.drain(manifest_path)
        finally:
            server.close()
        return result, manifest

    async def _parked_run() -> LoadResult:
        park_specs = [
            SessionSpec(
                sid=f"park-{spec.sid}",
                elements=spec.elements,
                config=spec.config,
                group=spec.group,
            )
            for spec in specs[:park_sessions]
        ]
        server = PhaseServer(
            max_resident=park_max_resident,
            name="serve-bench-park",
            sample_latency=False,
        )
        try:
            result = await run_load(
                server, park_specs, chunk=chunk, seed=seed + 1, verify=True
            )
            await server.drain()
        finally:
            server.close()
        return result

    main_result, manifest = asyncio.run(_main_run())
    row: Dict[str, object] = {
        "source": source,
        "family": family,
        "transport": transport,
        "chunk": chunk,
        "seed": seed,
        "elements_per_session": elements_per_session,
        "main": main_result.summary(),
        "manifest_sessions": len(manifest["sessions"]),
    }
    if flight_record is not None:
        row["flight_record"] = str(flight_record)
    if park_sessions > 0:
        parked = asyncio.run(_parked_run())
        row["parked"] = parked.summary()
    return row
