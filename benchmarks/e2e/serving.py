"""The serve workloads: ``serve-steady`` and ``serve-park``.

A ``repro serve`` process, pinned to the last CPU, is fed by the
open-loop generator in this process (:mod:`openloop`), pinned to the
first, over :data:`CONNECTIONS` TCP connections.  Sessions replay the
eight suite traces (scale 0.3, tiled to the session length) against
``loadgen.BENCH_CONFIGS``.

- ``serve-steady``: 384 sessions at 100k events/s, with more resident
  slots than sessions, so nothing parks.  The server's work is NDJSON
  decode, detector advance and event encode, at about 40% of its
  capacity, below the knee where p99 swings.
- ``serve-park``: 224 sessions at 25k events/s with ``--max-resident
  32`` and round-robin feeding, so almost every chunk parks one session
  to the checkpoint spool and rehydrates another.  That is about a
  quarter of the server's capacity with parking: at half of it, stretches
  in which the host ran other tenants on the server's CPU queued chunks
  for tens to hundreds of milliseconds and moved the p50 several-fold.

Session lengths follow ``--seconds``: the schedule fills the run.  Every
served stream is byte-compared with offline ``run_detector``
(``loadgen.verify_sessions``).  A run whose p99 exceeds 50 ms, whose
generator ran more than 5 ms late at p99, or whose last ``closed`` came
more than 1 s after the last scheduled send is reported as overloaded.
Times and rates are normalized by the speed probes (:mod:`speed`).

The traced run makes the end-to-end run, then replays the same line
stream in this process through the server's layers, once untraced and
once inside spans: ``decode_message``/``validate_client_message``,
``Session.feed``, ``encode_events``, with an LRU of ``max_resident``
sessions calling ``Session.park``/``rehydrate`` as the server does.
"""

from __future__ import annotations

import asyncio
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import LOW_PRIORITY, ROOT, TRACE_CACHE, WORK, child_env, median, pinned
from openloop import CHUNK, OpenLoopClient, Plan, build_plan
from spans import MAX_SPANS, NULL, coverage, self_seconds, wall_seconds

HOST = "127.0.0.1"
CONNECTIONS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 5
P99_LIMIT_MS = 50.0
SLICE_SAMPLES = 1000
LATE_LIMIT_MS = 5.0
DRAIN_LIMIT_S = 1.0
#: How long to wait for the last ``closed`` before counting sessions lost.
DRAIN_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 60.0
#: The server program and its leading arguments, before ``serve``.
SERVER_ENTRY = ["-m", "repro.cli"]


@dataclass(frozen=True)
class Load:
    sessions: int
    rate: float
    max_resident: int
    round_robin: bool

    def chunks(self, seconds: float) -> int:
        """Chunks per session so that chunks plus closes fit in ``seconds``."""
        return max(1, int(seconds * self.rate / (CHUNK * self.sessions)) - 1)


WORKLOADS = {
    "serve-steady": Load(sessions=384, rate=100_000, max_resident=1024,
                         round_robin=False),
    "serve-park": Load(sessions=224, rate=25_000, max_resident=32,
                       round_robin=True),
}


def make_plan(load: Load, seed: int, seconds: float) -> Plan:
    from repro.serve.loadgen import BENCH_CONFIGS
    from repro.workloads.suite import load_suite

    traces = load_suite(scale=0.3, cache_dir=TRACE_CACHE)
    sources = [(name, trace.array) for name, (trace, _) in traces.items()]
    return build_plan(sources, list(BENCH_CONFIGS.items()), load.sessions,
                      load.chunks(seconds), load.rate, seed, CONNECTIONS,
                      load.round_robin)


class ServerProcess:
    """One ``repro serve`` child with its own spool and log.

    It runs on ``cpu`` only, at :data:`LOW_PRIORITY`.
    """

    def __init__(self, directory: Path, max_resident: int, cpu: int) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.log_path = directory / "server.log"
        with self.log_path.open("wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *SERVER_ENTRY, "serve", "--host", HOST,
                 "--port", "0", "--max-resident", str(max_resident),
                 "--spool", str(directory / "spool")],
                env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        os.sched_setaffinity(self.proc.pid, {cpu})
        os.setpriority(os.PRIO_PROCESS, self.proc.pid, LOW_PRIORITY)

    async def port(self) -> int:
        while True:
            found = re.search(rb"serving on \S+:(\d+)", self.log_path.read_bytes())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:])
            await asyncio.sleep(0.005)

    def cpu_seconds(self) -> float:
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


async def _start(directory: Path, load: Load, plan: Plan, cpu: int):
    """Spawn a server, wait for ``healthz`` ok, open every session."""
    server = ServerProcess(directory, load.max_resident, cpu)
    client: Optional[OpenLoopClient] = None
    try:
        client = await OpenLoopClient.connect(plan, HOST, await server.port())
        health = await client.request("healthz")
        if health.get("status") != "ok":
            raise RuntimeError(f"healthz answered {health}")
        await client.open_all()
    except BaseException:
        if client is not None:
            await client.aclose()
        server.stop()
        raise
    return server, client


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else float("inf")


def _sliced_p99_ms(samples: List[Tuple[float, float]], duration: float) -> float:
    """Median of the p99s of equal-time slices of the schedule.

    As many slices as hold :data:`SLICE_SAMPLES` samples each, at most
    three, so that one stalled stretch of the run moves the median less.
    """
    count = max(1, min(3, len(samples) // SLICE_SAMPLES))
    slices: List[List[float]] = [[] for _ in range(count)]
    for due, latency in samples:
        slices[min(count - 1, int(count * due / max(duration, 1e-9)))].append(latency)
    return median([_percentile_ms(part, 99) for part in slices])


async def _drive(name: str, load: Load, plan: Plan, probes) -> Dict[str, object]:
    server_cpu = probes.cpus[-1]
    setups = []
    for index in range(SETUP_REPEATS):
        started = time.perf_counter()
        server, client = await _start(WORK / name / "server", load, plan, server_cpu)
        ended = time.perf_counter()
        setups.append((ended - started) * probes.factor([server_cpu], started, ended))
        if index < SETUP_REPEATS - 1:
            await client.aclose()
            server.stop()
    try:
        cpu_before = server.cpu_seconds()
        started = time.perf_counter()
        await client.run(DRAIN_TIMEOUT_S)
        ended = time.perf_counter()
        cpu = server.cpu_seconds() - cpu_before
        stats = await client.request("stats")
        peak_rss = server.peak_rss_mib()
    finally:
        await client.aclose()
        server.stop()
    samples = client.latencies()
    return {
        "setup_s": median(setups),
        "server_factor": probes.factor([server_cpu], started, ended),
        "server_cpu_factor": probes.factor([server_cpu], started, ended, cpu_time=True),
        "factor": probes.factor(probes.cpus, started, ended),
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss,
        "latencies": [latency for _, latency in samples],
        "p99_ms": _sliced_p99_ms(samples, plan.duration),
        "late_p99_ms": _percentile_ms(client.lateness, 99),
        "drain_lag_s": client.drain_lag(),
        "stats": stats,
        "events": client.events,
        "failed_sids": client.failed_sids(),
    }


def _verdict(plan: Plan, run: Dict[str, object]) -> Tuple[int, List[str]]:
    """(sessions failed, overload reasons) of one run.

    A session fails on a wire error, a missing ``closed`` or a stream
    that differs from offline detection.  Overload is reported, not
    counted: on a shared host a neighbour's burst can stall the
    generator, and the latency metrics already show it.
    """
    from repro.serve.loadgen import verify_sessions

    mismatched = set(verify_sessions(plan.specs, run["events"]))
    failed = mismatched | run["failed_sids"]
    overload = []
    if run["p99_ms"] > P99_LIMIT_MS:
        overload.append(f"p99 {run['p99_ms']:.1f} ms > {P99_LIMIT_MS} ms")
    if run["late_p99_ms"] > LATE_LIMIT_MS:
        overload.append(f"generator late p99 {run['late_p99_ms']:.1f} ms "
                        f"> {LATE_LIMIT_MS} ms")
    if run["drain_lag_s"] > DRAIN_LIMIT_S:
        overload.append(f"drain lag {run['drain_lag_s']:.2f} s > {DRAIN_LIMIT_S} s")
    for reason in overload:
        print(f"overloaded: {reason}", file=sys.stderr)
    return len(failed), overload


def end_to_end(name: str, load: Load, plan: Plan, probes) -> Dict[str, object]:
    """The run, with the generator on the first CPU and the server on the last."""
    with pinned(probes.cpus[0]):
        return asyncio.run(_drive(name, load, plan, probes))


def run(name: str, seed: int, seconds: float, probes) -> Dict[str, object]:
    load = WORKLOADS[name]
    plan = make_plan(load, seed, seconds)
    result = end_to_end(name, load, plan, probes)
    failed, overload = _verdict(plan, result)
    return {
        "correct": failed == 0,
        "attempted": len(plan.specs),
        "failed": failed,
        "metrics": {
            "setup_s": result["setup_s"],
            "latency_ms": _percentile_ms(result["latencies"], 50) * result["factor"],
            "items_per_cpu_s": plan.events / (result["cpu_s"]
                                              * result["server_cpu_factor"]),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "detail": {
            "p99_ms": result["p99_ms"] * result["factor"],
            "speed": result["factor"],
            "server_cpu_speed": result["server_cpu_factor"],
            "cpu_s": result["cpu_s"],
            "events": plan.events,
            "duration_s": plan.duration,
            "latency_samples": len(result["latencies"]),
            "late_p99_ms": result["late_p99_ms"],
            "drain_lag_s": result["drain_lag_s"],
            "overloaded": overload,
        },
    }


# -- the traced run ---------------------------------------------------------------


def replay(plan: Plan, max_resident: int, spool: Path, tracer, root,
           counts: Counter) -> Tuple[int, Dict]:
    """The plan's line stream through the server's layers, in order.

    Returns the park count and the served phase events per session.
    """
    from repro.core.config import DetectorConfig
    from repro.serve import protocol
    from repro.serve.session import Session

    shutil.rmtree(spool, ignore_errors=True)
    events: Dict[str, List[dict]] = {spec.sid: [] for spec in plan.specs}
    pending: List[dict] = []

    def on_event(sid: str, event: dict) -> None:
        pending.append(event)
        events[sid].append(event)

    sessions: Dict[str, Session] = {}
    resident: "OrderedDict[str, Session]" = OrderedDict()
    parks = 0

    def hydrate(session: Session) -> None:
        nonlocal parks
        if session.sid in resident:
            resident.move_to_end(session.sid)
            return
        while len(resident) >= max_resident:
            _, cold = resident.popitem(last=False)
            with tracer.span("session.park", parent=root):
                parked = cold.park()
            if parked:
                parks += 1
                counts["session.parks"] += 1
                counts["session.checkpoint_bytes"] += cold.spool_path.stat().st_size
        if not session.hydrated:
            with tracer.span("session.rehydrate", parent=root):
                session.rehydrate()
            counts["session.rehydrations"] += 1
        resident[session.sid] = session

    lines = [line for _, line in plan.opens] + [line for _, _, line in plan.sends]
    for line in lines:
        with tracer.span("protocol.decode", parent=root):
            message = protocol.decode_message(line)
            op = protocol.validate_client_message(message)
        counts["protocol.lines"] += 1
        sid = message["sid"]
        if op == "open":
            with tracer.span("session.open", parent=root):
                session = Session(sid, DetectorConfig.from_dict(message["config"]),
                                  spool, on_event)
            sessions[sid] = session
            hydrate(session)
            continue
        session = sessions[sid]
        hydrate(session)
        summary = None
        if op == "events":
            with tracer.span("session.feed", parent=root):
                session.feed(message["elements"])
            counts["session.chunks"] += 1
        else:
            with tracer.span("session.close", parent=root):
                summary = session.close()
            del resident[sid]
        if pending or summary is not None:
            with tracer.span("protocol.encode", parent=root):
                protocol.encode_events(sid, pending)
                if summary is not None:
                    protocol.encode_message(protocol.closed_message(
                        sid, summary["elements"], summary["phases"]))
            counts["protocol.events_out"] += len(pending)
            pending.clear()
    return parks, events


def run_traced(name: str, seed: int, seconds: float, probes,
               run_id: str) -> Dict[str, object]:
    from repro.obs.metrics import Histogram
    from repro.obs.trace import Tracer
    from repro.serve.loadgen import verify_sessions

    load = WORKLOADS[name]
    plan = make_plan(load, seed, seconds)
    result = end_to_end(name, load, plan, probes)
    failed, overload = _verdict(plan, result)
    correct = failed == 0
    spool = WORK / name / "replay-spool"
    cpu = probes.cpus[0]
    tracer = Tracer(run_id, max_spans=MAX_SPANS)
    counts: Counter = Counter()
    with pinned(cpu):
        untraced_start = time.perf_counter()
        replay(plan, load.max_resident, spool, NULL, None, Counter())
        traced_start = time.perf_counter()
        with tracer.span("serve") as root:
            parks, events = replay(plan, load.max_resident, spool, tracer, root, counts)
        traced_end = time.perf_counter()
    tracer.save(WORK / "spans" / f"{run_id}.jsonl")
    if tracer.dropped:
        raise RuntimeError(f"the tracer dropped {tracer.dropped} spans")
    untraced = (traced_start - untraced_start) * probes.factor(
        [cpu], untraced_start, traced_start)
    factor = probes.factor([cpu], traced_start, traced_end)
    shutil.rmtree(spool, ignore_errors=True)
    server_metrics = result["stats"]["metrics"]
    server_parks = server_metrics["counters"].get("serve.sessions_parked", 0)
    mismatched = verify_sessions(plan.specs, events)
    if parks != server_parks or mismatched:
        correct = False
        failed = max(failed, len(mismatched), 1)
    feed = Histogram.from_dict(server_metrics["histograms"]["serve.feed_seconds"])
    metrics = {f"{span}_s": value * factor
               for span, value in self_seconds(tracer.spans).items() if span != "serve"}
    metrics.update(counts)
    metrics.update({
        "server.feed_ms.p50": feed.quantile(0.50) * 1e3 * result["server_factor"],
        "server.feed_ms.p99": feed.quantile(0.99) * 1e3 * result["server_factor"],
        "server.parks": server_parks,
        "loadgen.latency_ms.p99": result["p99_ms"] * result["factor"],
        "loadgen.late_ms.p99": result["late_p99_ms"],
        "loadgen.drain_lag_s": result["drain_lag_s"],
        "trace.coverage": coverage(tracer.spans),
        "trace.overhead_frac": wall_seconds(tracer.spans) * factor / untraced - 1,
    })
    return {
        "correct": correct,
        "attempted": len(plan.specs),
        "failed": failed,
        "metrics": metrics,
        "detail": {"replay_parks": parks, "overloaded": overload},
    }
