"""The open-loop load generator behind the serve workloads.

It speaks the NDJSON wire protocol of ``repro serve`` directly over a
few TCP connections and sends on a fixed schedule, whatever the server
does: an open loop, so a slow server builds a queue instead of slowing
the load.

The plan is made from the seed before anything is timed:

- which session replays which suite trace and which detector config
  (a seeded permutation over every trace x config group, so each group
  has the same number of sessions);
- each session's chunk sizes: 192-320 elements, drawn in pairs
  ``256 +- d`` so every session has the same number of chunks and the
  same length;
- the order: round after round, every session sends its next chunk,
  in a fresh seeded permutation per round or, with ``round_robin``, in
  one fixed permutation (the order the sessions open in, too); a last
  round closes every session.

Every message is encoded up front.  Chunk ``k`` of the whole stream is
due at ``(elements sent before it) / rate``; a ``close`` takes the slot
of a 256-element chunk.  Opening in the feeding order and closing in a
round of its own keep the set of resident sessions, and so the park
count, independent of how the server interleaves the connections, as
long as there are at least three sessions per resident slot.

Each phase event is timed from the scheduled send of the message that
triggered it: the chunk holding element ``step``, or the ``close`` for
the phase a close ends.  Lateness (actual minus scheduled send) and the
drain lag (last ``closed`` minus last scheduled send) say whether the
generator and the server kept up.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

CHUNK = 256
JITTER = 64
#: Head start between the first scheduled send and the moment the plan starts.
LEAD_S = 0.05
REPLY_TIMEOUT_S = 60.0


@dataclass
class Plan:
    """Everything the generator sends, encoded and scheduled."""

    specs: list
    connections: int
    #: ``(session index, wire bytes)`` of every ``open``, in send order.
    opens: List[Tuple[int, bytes]]
    #: ``(scheduled offset s, session index, wire bytes)`` in send order.
    sends: List[Tuple[float, int, bytes]]
    #: Per session: the element offset each chunk ends at.
    ends: List[List[int]]
    #: Per session: the scheduled offset of each chunk, then of its close.
    times: List[List[float]]
    events: int

    def connection(self, session: int) -> int:
        return session % self.connections

    @property
    def duration(self) -> float:
        return self.sends[-1][0]


def build_plan(
    sources: Sequence[Tuple[str, np.ndarray]],
    configs: Sequence[Tuple[str, object]],
    sessions: int,
    chunks: int,
    rate: float,
    seed: int,
    connections: int,
    round_robin: bool,
) -> Plan:
    from repro.serve.loadgen import SessionSpec
    from repro.serve.protocol import encode_message

    rng = np.random.default_rng(seed)
    length = chunks * CHUNK
    tiled = {name: np.resize(np.asarray(array), length) for name, array in sources}
    groups = [(name, label, config) for name, _ in sources for label, config in configs]
    specs = []
    for index, group in enumerate(rng.permutation(sessions) % len(groups)):
        name, label, config = groups[group]
        specs.append(SessionSpec(sid=f"s{index:05d}", elements=tiled[name],
                                 config=config, group=f"{name}/{label}/{length}"))
    sizes = []
    for _ in range(sessions):
        swing = rng.integers(-JITTER, JITTER + 1, size=chunks // 2)
        parts = np.concatenate([CHUNK + swing, CHUNK - swing,
                                np.full(chunks % 2, CHUNK, dtype=swing.dtype)])
        sizes.append(rng.permutation(parts).tolist())
    ends = [np.cumsum(parts).tolist() for parts in sizes]
    fixed = rng.permutation(sessions)
    sends: List[Tuple[float, int, bytes]] = []
    times: List[List[float]] = [[] for _ in range(sessions)]
    sent = 0
    for round_index in range(chunks + 1):
        for session in fixed if round_robin else rng.permutation(sessions):
            spec = specs[session]
            clock = sent / rate
            times[session].append(clock)
            if round_index < chunks:
                size = sizes[session][round_index]
                stop = ends[session][round_index]
                message = {"op": "events", "sid": spec.sid,
                           "elements": spec.elements[stop - size:stop].tolist()}
            else:
                size = CHUNK
                message = {"op": "close", "sid": spec.sid}
            sends.append((clock, int(session), encode_message(message)))
            sent += size
    opens = [
        (int(session), encode_message({"op": "open", "sid": specs[session].sid,
                                       "config": specs[session].config.to_dict()}))
        for session in (fixed if round_robin else range(sessions))
    ]
    return Plan(specs=specs, connections=connections, opens=opens, sends=sends,
                ends=ends, times=times, events=sessions * length)


class OpenLoopClient:
    """The generator's side of the wire: a few connections and a schedule."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.index = {spec.sid: i for i, spec in enumerate(plan.specs)}
        self.events: Dict[str, List[dict]] = {spec.sid: [] for spec in plan.specs}
        self.arrivals: List[List[float]] = [[] for _ in plan.specs]
        self.closed_at: Dict[str, float] = {}
        self.errors: Dict[object, str] = {}
        self.opened = 0
        self.t0 = 0.0
        self.lateness: List[float] = []
        self._writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._replies: asyncio.Queue = asyncio.Queue()
        self._all_opened = asyncio.Event()
        self._all_closed = asyncio.Event()

    @classmethod
    async def connect(cls, plan: Plan, host: str, port: int) -> "OpenLoopClient":
        from repro.serve.protocol import MAX_LINE_BYTES

        client = cls(plan)
        for _ in range(plan.connections):
            reader, writer = await asyncio.open_connection(host, port,
                                                           limit=MAX_LINE_BYTES)
            client._writers.append(writer)
            client._readers.append(asyncio.ensure_future(client._read(reader)))
        return client

    async def _read(self, reader: asyncio.StreamReader) -> None:
        count = len(self.plan.specs)
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            op = message["op"]
            if op == "event":
                sid = message["sid"]
                self.events[sid].append(message["event"])
                self.arrivals[self.index[sid]].append(now)
            elif op == "closed":
                self.closed_at[message["sid"]] = now
                if len(self.closed_at) == count:
                    self._all_closed.set()
            elif op == "opened":
                self.opened += 1
                if self.opened == count:
                    self._all_opened.set()
            elif op == "error":
                self.errors[message.get("sid")] = message["error"]
            else:
                self._replies.put_nowait(message)

    async def request(self, op: str) -> dict:
        """A sid-less verb (``healthz``, ``stats``) on the first connection."""
        from repro.serve.protocol import encode_message

        self._writers[0].write(encode_message({"op": op}))
        return await asyncio.wait_for(self._replies.get(), REPLY_TIMEOUT_S)

    async def open_all(self) -> None:
        for session, payload in self.plan.opens:
            self._writers[self.plan.connection(session)].write(payload)
        await asyncio.wait_for(self._all_opened.wait(), REPLY_TIMEOUT_S)

    async def run(self, drain_timeout: float) -> None:
        """Send the schedule, then wait up to ``drain_timeout`` for every close."""
        plan = self.plan
        self.t0 = t0 = time.perf_counter() + LEAD_S
        lateness = self.lateness
        for offset, session, payload in plan.sends:
            target = t0 + offset
            now = time.perf_counter()
            if now < target:
                await asyncio.sleep(target - now)
                now = time.perf_counter()
            self._writers[plan.connection(session)].write(payload)
            lateness.append(now - target)
        try:
            await asyncio.wait_for(self._all_closed.wait(), drain_timeout)
        except asyncio.TimeoutError:
            pass

    def latencies(self) -> List[Tuple[float, float]]:
        """``(scheduled offset, latency s)`` of every phase event received."""
        plan = self.plan
        samples = []
        for session, spec in enumerate(plan.specs):
            ends = plan.ends[session]
            times = plan.times[session]
            close_due = self.t0 + times[-1]
            for event, arrival in zip(self.events[spec.sid], self.arrivals[session]):
                step = int(event["step"])
                trigger = bisect.bisect_left(ends, step)
                if step == ends[-1] and arrival >= close_due:
                    trigger = len(ends)  # the phase the close ended
                due = times[trigger]
                samples.append((due, arrival - self.t0 - due))
        return samples

    def drain_lag(self) -> float:
        if len(self.closed_at) < len(self.plan.specs):
            return float("inf")
        return max(self.closed_at.values()) - (self.t0 + self.plan.duration)

    def failed_sids(self) -> set:
        """Sessions with a wire error or no ``closed`` reply."""
        missing = {spec.sid for spec in self.plan.specs} - set(self.closed_at)
        return missing | {sid for sid in self.errors if sid is not None}

    async def aclose(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
