#!/usr/bin/env python
"""Null-path detector benchmark guard.

Measures the optimized engine with observability *disabled*
(``observer=None`` — the default every caller gets) and compares a
calibration-normalized score against a committed baseline, so the check
is meaningful across machines: raw seconds divide by the time the same
interpreter takes for a fixed pure-Python workload, cancelling
host-speed differences.

Two modes::

    # record a new baseline (committed as benchmarks/BENCH_*.json)
    PYTHONPATH=src python benchmarks/check_regression.py --record

    # CI guard: fail (exit 1) if the aggregate normalized score
    # regressed more than --tolerance vs the newest committed baseline
    PYTHONPATH=src python benchmarks/check_regression.py

The guarded quantity is the *aggregate* normalized score (sum over the
config matrix of per-config best-of-``--repeats`` times); per-config
scores are recorded and printed but not individually gated — they are
noisier than the aggregate on shared CI hardware.

The kernel rows time each matrix config twice in the same run — the
default path (the vectorized kernels, :mod:`repro.core.kernels`) and,
right after it, the fused loop (``kernels=False``) — between two
calibration samples.  Every config named in ``KERNEL_MAX_NORMALIZED``
runs a vectorized walk, and the best over ``--repeats`` of its kernel
time divided by the lesser of those two neighbouring calibration
samples must stay under that config's absolute ceiling —
``unweighted-constant`` through the constant walk, and the Adaptive-TW
rows through the episode-vectorized adaptive walk.  The kernel/legacy
ratio is printed but not gated: it would fail whenever the fused loop
got faster.  The bench trace's five long phases make those rows gate
per-block cost; the short-episode rows gate per-episode cost the same
way (best normalized repeat against ``SHORT_EPISODE_MAX_NORMALIZED``),
timing the Adaptive walks on ``short_episode_trace()``, whose many
phases each end within the walk's 16-step scalar head.  The
large-window rows gate the weighted walks' cost at paper-scale windows
the same way (best normalized repeat against
``LARGE_WINDOW_MAX_NORMALIZED``): a weighted Constant, Adaptive and
Fixed lane at CW 50,000 on ``large_window_trace()``.

The bank rows time two things.  The legacy row runs the
``BANK_SIZE``-config bank with ``kernels=False``, so every member takes
the fused loop alone; the best over ``--repeats`` of its time divided by
the lesser of the calibration samples taken just before and just after
it must stay under the absolute ceiling ``BANK_LEGACY_MAX_NORMALIZED``.
The batched-advancer row interleaves best-of-``BANK_INTERLEAVE``
sequential vs bank timings on the default route (the side order flips
each round so drift and cache-warming bias cancel instead of landing on
one side): every matrix config is a Threshold config, so each bank
member runs through :func:`repro.core.kernels.run_bank_batched` with
per-signature series sharing, and the ratio is gated by
``BANK_BATCHED_MIN_SPEEDUP``.

The family rows time the decision-layer detectors (``focus``,
``newma``, ``das_pearson``, ``lu_dynamo``, each on its vectorized
walk) on the same trace, giving them a calibration-normalized perf
trajectory; their sum is checked against the baseline with the same
tolerance as the windowed aggregate (when the baseline has it).

The zero-copy row gates the evaluation scaffolding with both sides in
the same run (no baseline needed): **warm-start** compares a worker's
pre-sidecar startup cost (heap trace read + the ``np.unique``
dense-code pass) against the zero-copy path (mmap read + ``.bcodes``
sidecar adoption) and must show a reduction.

The scoring row times the one Section 3.2 scorer,
:func:`repro.scoring.metric.score_intervals`, on a bank-sized fixture
(``BANK_SIZE`` lanes of random states over 8,000 elements, four
baselines, all as interval arrays); each repeat divided by the lesser
of the calibration samples just before and just after it, the best
repeat must stay under ``SCORING_MAX_NORMALIZED``.

The park row times ``PARK_REPEATS`` samples of ``PARK_CYCLES`` park +
rehydrate cycles of the four ``repro.serve.loadgen.BENCH_CONFIGS``
sessions on a temporary spool, each session fed the first
``PARK_ELEMENTS`` bench-trace elements.  It counts CPU time, not wall
time, the park half and the rehydrate half apart; each divided by the
lesser of the CPU-timed calibration samples just before and just after
its sample, the best sample of each half must stay under its
``PARK_MAX_NORMALIZED`` ceiling.

The serve row replays ``SERVE_SESSIONS`` concurrent suite-workload
sessions through :mod:`repro.serve` (plus a forced-eviction run that
parks and rehydrates sessions mid-trace).  Gates: the session count,
byte-identity of every served phase stream against the offline
detector, at least one park in the eviction run, and a
calibration-normalized throughput floor
(``SERVE_MIN_NORMALIZED_THROUGHPUT``).

The observer row gates what a phase-level observer costs a streaming
detector: every ``OBSERVER_SPEC_STRIDE``-th quick-grid spec streams the
first ``OBSERVER_ELEMENTS`` jlex elements in ``OBSERVER_CHUNK``-element
chunks, once with the phase-only ``PhaseEventObserver`` every serve
session attaches and once with no observer, paired spec by spec (side
order flipping), and the median repeat's observed/unobserved ratio
must stay within ``OBSERVER_MAX_OVERHEAD``.  A loop that builds
per-step events the observer declined reads +40% or more.

The telemetry row gates the cost of *enabled* live telemetry the way
the observer row does: ``TELEMETRY_PAIRS`` short serve-bench runs with
the flight recorder spooling at a tight interval (latency histograms
are always on), each paired with a run without it, the side order
flipping pair by pair, and the median pair's on/off throughput ratio
must stay within ``TELEMETRY_MAX_OVERHEAD``.  The row also re-checks
flight-record completeness: in every spool the summed per-interval
``serve.events_in`` deltas must equal the elements fed.
"""

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import DetectorConfig, ModelKind, TrailingPolicy
from repro.core.bank import DetectorBank
from repro.core.engine import run_detector
from repro.obs.manifest import environment_info
from repro.profiles.io import (
    codes_path_for,
    ensure_codes_sidecar,
    read_trace_binary,
    write_codes_sidecar,
    write_trace_binary,
)
from repro.profiles.synthetic import SyntheticTraceBuilder
from repro.profiles.trace import BranchTrace
from repro.scoring.metric import score_intervals
from repro.scoring.states import runs_from_states
from repro.serve.loadgen import BENCH_CONFIGS
from repro.serve.session import Session

BASELINE_VERSION = 1
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_TOLERANCE = 0.10

#: Same model x policy matrix as test_perf_detector.py.
CONFIGS = {
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


#: Decision-layer detector families timed alongside the windowed matrix
#: so regressions in the scan loops show up in the baseline trajectory.
FAMILY_CONFIGS = {
    "focus": DetectorConfig(cw_size=250, family="focus"),
    "newma": DetectorConfig(cw_size=250, family="newma"),
    "das_pearson": DetectorConfig(cw_size=250, family="das_pearson"),
    "lu_dynamo": DetectorConfig(cw_size=250, family="lu_dynamo"),
}

#: Members of the multi-config bank measurement (one sweep-like batch).
BANK_SIZE = 16

#: Ceiling on the calibration-normalized time of
#: ``DetectorBank(_bank_configs()).run(trace, kernels=False)``: every
#: member on the fused loop.  Over eleven runs on the 2-CPU host
#: (``cpu_count`` 2), with the weighted numerator updated by integer
#: comparisons, the row read 8.07-10.03 (median 9.58); the ceiling sits
#: a third above that median.  The same loop calling ``min()`` per count
#: delta read 16.78 when it was recorded, and a fused loop slowed by 32
#: extra dict lookups per element read 20.7-24.3.
BANK_LEGACY_MAX_NORMALIZED = 12.8

#: The batched bank advancer (kernels on both sides, per-signature
#: series sharing) must beat sequential kernel runs by at least this
#: factor (measured ~3.3x on the reference host).
BANK_BATCHED_MIN_SPEEDUP = 1.5

#: Interleaved rounds for the batched bank ratio: each round times both sides
#: back to back and the side order flips per round, so slow host drift
#: and page-cache warming cancel out of the best-of ratio instead of
#: inflating whichever side happened to run second.
BANK_INTERLEAVE = 3

#: Per-config ceilings on the vectorized walks' time alone, in
#: calibration units: the best repeat of ``run_detector(trace, config)``
#: divided by the lesser of the calibration samples taken just before
#: its kernel sample and just after its ``kernels=False`` sample.  Each
#: ceiling sits a third above the median of eleven runs on the 2-CPU
#: host (``cpu_count`` 2): unweighted-constant 0.025-0.032 (median
#: 0.030), unweighted-adaptive 0.062-0.095 (0.087), weighted-adaptive
#: 0.71-0.88 (0.80).  They replace same-run kernel/legacy speedup floors
#: (3.0x, 2.0x and 1.5x), which failed once the fused loop got faster.
#: weighted-constant, gated since the weighted series became one
#: carried-count scan, read 0.331-0.411 (median 0.392); the occurrence
#: matrices it replaced read 0.520-0.590 (0.549) in eleven runs
#: alternating with them.
KERNEL_MAX_NORMALIZED = {
    "unweighted-constant": 0.040,
    "unweighted-adaptive": 0.116,
    "weighted-constant": 0.523,
    "weighted-adaptive": 1.07,
}

#: The short-episode rows: both Adaptive-TW models at a small CW on
#: ``short_episode_trace()``, where each of the 800 phases lasts 13
#: (unweighted) or 11 (weighted) in-phase steps, inside the walk's
#: 16-step scalar head.
SHORT_EPISODE_CONFIGS = {
    "unweighted-adaptive": DetectorConfig(
        cw_size=8, trailing=TrailingPolicy.ADAPTIVE, threshold=0.6
    ),
    "weighted-adaptive": DetectorConfig(
        cw_size=8,
        model=ModelKind.WEIGHTED,
        trailing=TrailingPolicy.ADAPTIVE,
        threshold=0.6,
    ),
}

#: Ceilings on the short-episode rows, normalized like
#: ``KERNEL_MAX_NORMALIZED`` (each repeat divided by the lesser of the
#: calibration samples just before and just after it, best repeat).
#: Each sits a third above the median of eleven runs on the 2-CPU host
#: (``cpu_count`` 2): unweighted-adaptive 0.215-0.321 (median 0.287),
#: weighted-adaptive 0.461-0.614 (0.551).  Walking every weighted
#: episode's first steps in NumPy blocks instead read 3.04-3.47 in
#: eleven runs of these rows alone, and 1.99 in a full run.
SHORT_EPISODE_MAX_NORMALIZED = {
    "unweighted-adaptive": 0.382,
    "weighted-adaptive": 0.735,
}

#: The large-window rows: each weighted lane kind at CW 50,000 on
#: ``large_window_trace()``, windows of a paper-profile run.
LARGE_WINDOW_CONFIGS = {
    "weighted-constant": DetectorConfig(
        cw_size=50_000, model=ModelKind.WEIGHTED, threshold=0.5
    ),
    "weighted-adaptive": DetectorConfig(
        cw_size=50_000,
        model=ModelKind.WEIGHTED,
        trailing=TrailingPolicy.ADAPTIVE,
        threshold=0.5,
    ),
    "weighted-fixed": DetectorConfig.fixed_interval(
        50_000, model=ModelKind.WEIGHTED, threshold=0.5
    ),
}

#: Ceilings on the large-window rows, normalized like the short-episode
#: rows.  Each sits a third above the median of eleven runs on the 2-CPU
#: host (``cpu_count`` 2): weighted-constant 0.728-0.820 (median
#: 0.777), weighted-adaptive 0.954-1.043 (1.009), weighted-fixed
#: 0.207-0.232 (0.223).  Weighted scans that built an occurrence matrix
#: over a span of the window per block read 8.1 on weighted-fixed, and
#: ran past 240 s (over 2,000) on the other two.
LARGE_WINDOW_MAX_NORMALIZED = {
    "weighted-constant": 1.036,
    "weighted-adaptive": 1.345,
    "weighted-fixed": 0.298,
}

#: Ceiling on the scoring row, normalized like the short-episode rows.
#: A third above the median of eleven runs of the row on the 2-CPU host
#: (0.178-0.200, median 0.191).  A per-(lane, MPL) loop that builds
#: state arrays and matches each pair alone read 3.91-5.52 in eleven
#: runs alternating with them.
SCORING_MAX_NORMALIZED = 0.254

#: The park row: ``PARK_CYCLES`` cycles, each parking and then
#: rehydrating the four ``BENCH_CONFIGS`` sessions fed the first
#: ``PARK_ELEMENTS`` elements of the bench trace.  Their spool records
#: are 3.0 KB, near the 4.4 KB a ``serve-park`` park writes on average,
#: so the file-system work is a large share of each cycle.
PARK_ELEMENTS = 300
PARK_CYCLES = 20
#: Samples of ``PARK_CYCLES`` cycles each, whatever ``--repeats`` says:
#: the ceiling below is set for the best of this many.
PARK_REPEATS = 25
#: Ceilings on the park row's halves, in CPU-timed calibration units.
#: Each sits a third above the median of eleven runs of the packed
#: spool record on the 2-CPU host (``cpu_count`` 2): park 0.046-0.061
#: (median 0.053), rehydrate 0.073-0.100 (0.084).  A park that writes
#: the checkpoint as one JSON document through a truncating open read
#: 0.104-0.133 (median 0.124) on the park half in eleven runs
#: alternating with them.
PARK_MAX_NORMALIZED = {"park": 0.070, "rehydrate": 0.111}

#: The mmap + sidecar warm start must beat the heap read + unique pass
#: (same-run ratio; any reliable reduction passes).
WARM_START_MIN_SPEEDUP = 1.0

#: The serving row: this many concurrent sessions replaying suite
#: workloads through the serve layer, every served phase stream
#: byte-verified against the offline path (plus a small forced-eviction
#: run proving park/rehydrate mid-trace is invisible).
SERVE_SESSIONS = 1_000
SERVE_ELEMENTS_PER_SESSION = 600
SERVE_CHUNK = 150
SERVE_PARK_SESSIONS = 64
SERVE_PARK_MAX_RESIDENT = 8
#: Calibration-normalized serving throughput floor:
#: events_per_sec x calibration_seconds (elements served per
#: calibration unit).  Generous margin below measured (~30k local).
SERVE_MIN_NORMALIZED_THROUGHPUT = 6_000.0

#: The telemetry-overhead row: ``TELEMETRY_PAIRS`` short synthetic
#: serve-bench runs with the flight recorder spooling, each paired with
#: one without it (the side order flipping pair by pair).  One minus the
#: median pair's on/off throughput ratio must stay within
#: ``TELEMETRY_MAX_OVERHEAD``.  Over five runs on the 2-CPU host the
#: row read -8.5% to +3.5%; one best-of-3 over whole runs read -16.5%
#: to +29.1% over eight runs of one tree.  Half-length runs (150
#: sessions, 15 pairs) read +10.0% once in ten runs: a spool's fixed
#: per-run cost weighs more in a shorter run.
TELEMETRY_SESSIONS = 300
TELEMETRY_ELEMENTS_PER_SESSION = 800
TELEMETRY_CHUNK = 160
TELEMETRY_FLIGHT_INTERVAL = 0.1
TELEMETRY_PAIRS = 11
TELEMETRY_MAX_OVERHEAD = 0.05

#: The observer-overhead row: every ninth spec of the quick paper grid
#: (30 of 270: all three window families, every CW, both models, both
#: analyzers) streamed over the first ``OBSERVER_ELEMENTS`` elements of
#: the default-scale jlex trace in ``OBSERVER_CHUNK``-element chunks, with
#: a phase-only observer and without one, ``OBSERVER_REPEATS`` times.
OBSERVER_SPEC_STRIDE = 9
OBSERVER_ELEMENTS = 60_000
OBSERVER_CHUNK = 256
OBSERVER_REPEATS = 5
#: Ceiling on the median paired observed/unobserved time ratio, minus
#: one.  With per-step events built for the observer to drop it read
#: +42-53%; with the loops skipping them it reads within noise of 0.
OBSERVER_MAX_OVERHEAD = 0.05


def _bank_configs():
    """``BANK_SIZE`` configs cycling the matrix across thresholds, the
    way a sweep grid mixes bank members."""
    thresholds = (0.4, 0.5, 0.6, 0.7)
    base = list(CONFIGS.values())
    return [
        replace(
            base[i % len(base)],
            threshold=thresholds[(i // len(base)) % len(thresholds)],
        )
        for i in range(BANK_SIZE)
    ]


def _measure_bank(trace, bank_configs):
    """The batched-advancer ratio, interleaved best-of-``BANK_INTERLEAVE``.

    Each round times sequential kernel runs and the batched bank back to
    back and flips which side goes first on alternate rounds.
    Interleaving is the de-flake: timing all sequential samples before
    all bank samples put them under different cache/drift conditions,
    and the recorded speedup swung run to run.
    """
    sides = {
        "seq-kernel": lambda: [run_detector(trace, c, kernels=True)
                               for c in bank_configs],
        "batched": lambda: DetectorBank(bank_configs).run(trace),
    }
    samples = {side: [] for side in sides}
    for round_index in range(BANK_INTERLEAVE):
        first, second = "seq-kernel", "batched"
        if round_index % 2:
            first, second = second, first
        samples[first].append(_timed(sides[first]))
        samples[second].append(_timed(sides[second]))
    return min(samples["seq-kernel"]), min(samples["batched"])


def bench_trace():
    builder = SyntheticTraceBuilder(seed=17, name="bench")
    for _ in range(5):
        builder.add_transition(400)
        builder.add_phase(6_000, body_size=14, noise_rate=0.01)
    builder.add_transition(400)
    return builder.build()[0]


def short_episode_trace():
    """800 short loops between noise, so per-episode work dominates.

    Each loop cycles a 3-site body (one of five, in turn) for 20
    elements; each transition is the next 12 sites of a 40-site noise
    cycle, so no window sees a noise site twice.  55 distinct sites in
    all, a real program's order of magnitude (the quick-scale jlex and
    db traces have 39 and 25); a fresh site per noise element would
    instead make every dense-code vector as long as the trace's noise.
    """
    elements = []
    noise = 0
    for loop in range(800):
        elements.extend(1_000 + (noise + i) % 40 for i in range(12))
        noise += 12
        elements.extend(100 * (loop % 5) + i % 3 for i in range(20))
    elements.extend(1_000 + (noise + i) % 40 for i in range(12))
    return BranchTrace(np.asarray(elements, dtype=np.int64), name="short-episodes")


def large_window_trace():
    """About 200k elements for windows of 50,000: three long loops
    (bodies of 9, 15 and 6 sites, 2% of their elements drawn from a
    60-site noise pool) between 3,000-element transitions from that
    pool; 90 distinct sites, a real program's order of magnitude."""
    rng = np.random.default_rng(5)
    parts = []
    for loop, (body, length) in enumerate(((9, 60_000), (15, 70_000), (6, 60_000))):
        parts.append(rng.integers(1_000, 1_060, 3_000))
        elements = 100 * loop + np.arange(length) % body
        noisy = rng.random(length) < 0.02
        elements[noisy] = rng.integers(1_000, 1_060, int(noisy.sum()))
        parts.append(elements)
    parts.append(rng.integers(1_000, 1_060, 3_000))
    return BranchTrace(np.concatenate(parts).astype(np.int64), name="large-windows")


def _warm_start_fixture(tmp_dir, trace):
    """Cache a large trace + sidecar the way the suite cache would."""
    big = BranchTrace(np.tile(trace.array, 8), name="warm")
    path = Path(tmp_dir) / "warm.btrace"
    write_trace_binary(big, path)
    write_codes_sidecar(big, codes_path_for(path))
    return path


def _warm_start_cold(path):
    # Pre-sidecar worker startup: private heap copy + np.unique pass.
    trace = read_trace_binary(path, mmap=False)
    trace.dense_codes()


def _warm_start_zero_copy(path):
    # Zero-copy startup: mmap the payload, adopt the persisted remap.
    trace = read_trace_binary(path, mmap=True)
    ensure_codes_sidecar(trace, path, mmap=True)


def _batch_scoring_fixture(trace):
    """A bank's lanes and MPL-like baselines to score, as the P-runs of
    random state rows: ``score_intervals``' arguments.

    Random states produce many short phases, which is exactly the
    boundary-matching load a dense sweep grid generates.
    """
    rng = np.random.default_rng(23)
    num_elements = min(len(trace), 8_000)
    matrix = rng.random((BANK_SIZE, num_elements)) < 0.5
    baselines = [rng.random(num_elements) < 0.5 for _ in range(4)]
    return (
        [runs_from_states(row) for row in matrix],
        [runs_from_states(base) for base in baselines],
        num_elements,
    )


def _measure_park(trace):
    """The park row: ``PARK_REPEATS`` samples of ``PARK_CYCLES`` park +
    rehydrate cycles of the four ``BENCH_CONFIGS`` sessions on a
    temporary spool, in CPU time, each half of the cycle timed apart.

    Each sample's halves are divided by the lesser of the CPU-timed
    calibration samples just before and just after it.  Wall time would
    also count waits on the disk's writeback, which a spool write can
    incur and which other processes' I/O stretches.
    """
    elements = trace.array[:PARK_ELEMENTS].tolist()
    ratios = {"park": [], "rehydrate": []}
    with tempfile.TemporaryDirectory(prefix="repro-park-") as spool:
        sessions = []
        for label, config in BENCH_CONFIGS.items():
            session = Session(label, config, spool, on_event=lambda *_: None)
            session.feed(elements)
            sessions.append(session)

        def cycles():
            park = rehydrate = 0.0
            for _ in range(PARK_CYCLES):
                start = time.process_time()
                for session in sessions:
                    session.park()
                middle = time.process_time()
                for session in sessions:
                    session.rehydrate()
                park += middle - start
                rehydrate += time.process_time() - middle
            return park, rehydrate

        cycles()  # warm up: the spool files exist from here on
        before = _cpu_timed(_calibration_workload)
        for _ in range(PARK_REPEATS):
            halves = cycles()
            after = _cpu_timed(_calibration_workload)
            for name, seconds in zip(("park", "rehydrate"), halves):
                ratios[name].append(seconds / min(before, after))
            before = after
        sizes = [session.spool_path.stat().st_size for session in sessions]
    return {
        "sessions": len(sessions),
        "cycles": PARK_CYCLES,
        "checkpoint_bytes": sizes,
        "normalized": {name: round(min(r), 4) for name, r in ratios.items()},
        "max_normalized": PARK_MAX_NORMALIZED,
    }


def _measure_serve(calibration):
    """The sessions x events/sec serving row (measured once, not per
    repeat — the run is seconds long and internally averaged over
    thousands of chunk latencies)."""
    from repro.serve.loadgen import serve_bench

    row = serve_bench(
        sessions=SERVE_SESSIONS,
        elements_per_session=SERVE_ELEMENTS_PER_SESSION,
        chunk=SERVE_CHUNK,
        source="suite",
        scale=0.3,
        verify=True,
        park_sessions=SERVE_PARK_SESSIONS,
        park_max_resident=SERVE_PARK_MAX_RESIDENT,
    )
    main, parked = row["main"], row["parked"]
    return {
        "sessions": main["sessions"],
        "elements": main["elements"],
        "events_per_sec": main["events_per_sec"],
        "elapsed_seconds": main["elapsed_seconds"],
        "normalized_throughput": round(
            main["events_per_sec"] * calibration, 2
        ),
        "latency_p50_ms": main["latency_p50_ms"],
        "latency_p99_ms": main["latency_p99_ms"],
        "verified": main["verified"],
        "parked_sessions": parked["sessions"],
        "parked_parks": parked["parks"],
        "parked_rehydrations": parked["rehydrations"],
        "parked_verified": parked["verified"],
        "min_sessions": SERVE_SESSIONS,
        "min_normalized_throughput": SERVE_MIN_NORMALIZED_THROUGHPUT,
    }


def _measure_telemetry(calibration):
    """The telemetry-overhead row: flight recorder on vs off, same run
    parameters, paired short runs with the side order flipping.

    Latency histograms are part of the server's registry in both runs;
    the delta being gated is the flight-recorder sampling loop plus the
    JSONL spool — i.e. everything ``repro serve --flight-record`` adds.
    A pair's two runs are under a second apart, so a burst of co-tenant
    load lands on both sides of one pair, or decides only that pair,
    instead of one side of a best-of over whole runs; the median pair
    is gated.
    """
    from repro.obs.timeseries import read_flight_record
    from repro.serve.loadgen import serve_bench

    common = dict(
        sessions=TELEMETRY_SESSIONS,
        elements_per_session=TELEMETRY_ELEMENTS_PER_SESSION,
        chunk=TELEMETRY_CHUNK,
        source="synthetic",
        verify=False,
        park_sessions=0,
    )
    off_samples, on_samples, flight_totals = [], [], []
    flight_samples = 0
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp_dir:

        def off():
            off_samples.append(serve_bench(**common)["main"]["events_per_sec"])

        def on():
            nonlocal flight_samples
            spool = Path(tmp_dir) / f"flight-{len(on_samples)}.jsonl"
            row = serve_bench(
                **common,
                flight_record=spool,
                flight_interval=TELEMETRY_FLIGHT_INTERVAL,
            )
            on_samples.append(row["main"]["events_per_sec"])
            _, samples = read_flight_record(spool)
            flight_samples += len(samples)
            flight_totals.append(
                sum(s["deltas"].get("serve.events_in", 0) for s in samples)
            )

        serve_bench(**common)  # warm caches and imports
        for pair in range(TELEMETRY_PAIRS):
            for side in ((on, off) if pair % 2 else (off, on)):
                side()
    ratios = sorted(
        on_rate / off_rate for on_rate, off_rate in zip(on_samples, off_samples)
    )
    off_best = max(off_samples)
    on_best = max(on_samples)
    return {
        "sessions": TELEMETRY_SESSIONS,
        "elements": TELEMETRY_SESSIONS * TELEMETRY_ELEMENTS_PER_SESSION,
        "flight_interval": TELEMETRY_FLIGHT_INTERVAL,
        "pairs": TELEMETRY_PAIRS,
        "off_events_per_sec": round(off_best, 2),
        "on_events_per_sec": round(on_best, 2),
        "off_normalized_throughput": round(off_best * calibration, 2),
        "on_normalized_throughput": round(on_best * calibration, 2),
        "ratios": [round(ratio, 4) for ratio in ratios],
        "overhead": round(1.0 - ratios[len(ratios) // 2], 4),
        "max_overhead": TELEMETRY_MAX_OVERHEAD,
        "flight_samples": flight_samples,
        "flight_events_in": flight_totals,
    }


def _observer_fixture():
    """The row's specs (as configs) and its element list."""
    from repro.experiments.config_space import QUICK, paper_grid
    from repro.workloads.suite import load_traces

    configs = [
        spec.to_config(QUICK)
        for spec in paper_grid(QUICK)[::OBSERVER_SPEC_STRIDE]
    ]
    trace, _ = load_traces("jlex")
    return configs, trace.array[:OBSERVER_ELEMENTS].tolist()


def _stream(config, elements, observed):
    """Stream ``elements`` through one config, as a serve session does."""
    from repro.core.stream import StreamingDetector
    from repro.serve.session import PhaseEventObserver

    observer = PhaseEventObserver(lambda event: None) if observed else None
    detector = StreamingDetector(config, observer=observer)
    for start in range(0, len(elements), OBSERVER_CHUNK):
        detector.feed(elements[start : start + OBSERVER_CHUNK])
    detector.finish()


def _measure_observer():
    """The observer-overhead row: phase-only observer vs none.

    Each spec streams once per side back to back, the side order
    flipping spec by spec, so a burst of co-tenant load lands on both
    sides of a ~0.1 s pair instead of on one side of a whole-grid
    sample.  A repeat's ratio is its summed observed time over its
    summed unobserved time; the median repeat is gated.
    """
    configs, elements = _observer_fixture()
    for config in configs:  # warm caches and imports
        _stream(config, elements, observed=True)
    off_totals, on_totals = [], []
    for repeat in range(OBSERVER_REPEATS):
        off_total = on_total = 0.0
        for index, config in enumerate(configs):
            if (repeat + index) % 2:
                on_total += _timed(lambda: _stream(config, elements, True))
                off_total += _timed(lambda: _stream(config, elements, False))
            else:
                off_total += _timed(lambda: _stream(config, elements, False))
                on_total += _timed(lambda: _stream(config, elements, True))
        off_totals.append(off_total)
        on_totals.append(on_total)
    ratios = sorted(on / off for on, off in zip(on_totals, off_totals))
    return {
        "specs": len(configs),
        "elements": len(elements),
        "chunk": OBSERVER_CHUNK,
        "repeats": OBSERVER_REPEATS,
        "off_seconds": round(min(off_totals), 6),
        "on_seconds": round(min(on_totals), 6),
        "ratios": [round(ratio, 4) for ratio in ratios],
        "overhead": round(ratios[len(ratios) // 2] - 1.0, 4),
        "max_overhead": OBSERVER_MAX_OVERHEAD,
    }


#: The store rows: persistence throughput compares the legacy
#: ordered-delivery parent loop (rows over the pipe -> from_row ->
#: per-row cache_line append) against chunk-store compaction (bulk fold
#: of pre-written chunk files + the SQLite ingest) over the same record
#: set, interleaved best-of-``STORE_INTERLEAVE`` like the bank rows.
#: The chunk files are written outside the timed region — in a real
#: sweep the workers write them concurrently with evaluation, so the
#: parent-side persistence cost is exactly what the two sides compare.
STORE_BENCHMARKS = 4
STORE_CHUNK_SIZE = 15
STORE_MPLS = (1_000, 10_000)
STORE_INTERLEAVE = 3
#: The compaction fold must beat the legacy per-row parent loop by this
#: factor (measured ~2.5x on the reference host: bulk byte append of
#: worker-serialized lines vs from_row + cache_line per record).  The
#: SQLite ingest is timed and reported separately — the legacy path has
#: no equivalent to ratio against.
STORE_MIN_SPEEDUP = 1.2

#: The resume row: of ``RESUME_TOTAL_CHUNKS`` planned chunks,
#: ``RESUME_PRESENT_CHUNKS`` already have files; ``missing()`` must
#: return exactly the absent ones (that exactness *is* the resume
#: efficiency claim — an interrupted run re-evaluates only its missing
#: chunk set) and the scan itself is timed.
RESUME_TOTAL_CHUNKS = 64
RESUME_PRESENT_CHUNKS = 48

#: The query row: best-score-per-(family, benchmark) over the synthetic
#: record set through the SQLite indexes, calibration-normalized.
#: Loose ceiling — queries are milliseconds; the gate only catches a
#: pathological regression (a dropped index, an accidental table scan
#: of a huge join).
QUERY_MAX_NORMALIZED = 0.5


def _store_fixture():
    """Specs, planned chunks and deterministic synthetic records.

    Synthetic scores (no detector runs): the rows being pushed through
    the persistence paths are shape-identical to real sweep records,
    which is all byte serialization and SQLite care about.
    """
    from repro.experiments.config_space import QUICK, paper_grid
    from repro.experiments.runner import SweepRecord
    from repro.experiments.store import plan_chunks

    specs = paper_grid(QUICK)
    benchmarks = [f"bench{i}" for i in range(STORE_BENCHMARKS)]
    fingerprints = {name: f"fp-{name}" for name in benchmarks}
    work = [(name, specs) for name in benchmarks]

    def chunker(items):
        return [
            list(items[i : i + STORE_CHUNK_SIZE])
            for i in range(0, len(items), STORE_CHUNK_SIZE)
        ]

    planned = plan_chunks(work, fingerprints, "bench", STORE_MPLS, chunker)
    records = {}
    for chunk in planned:
        chunk_records = []
        for position, spec in enumerate(chunk.specs):
            for mpl in STORE_MPLS:
                salt = (chunk.index * 1_009 + position * 17 + mpl) % 97
                chunk_records.append(
                    SweepRecord(
                        benchmark=chunk.benchmark,
                        family=spec.family,
                        cw_nominal=spec.cw_nominal,
                        model=spec.model.value,
                        analyzer=spec.analyzer_label(),
                        anchor=spec.anchor.value,
                        resize=spec.resize.value,
                        mpl_nominal=mpl,
                        score=round(salt / 97.0, 6),
                        correlation=round(salt / 194.0, 6),
                        sensitivity=round(salt / 97.0, 6),
                        false_positives=float(salt % 7),
                        corrected_score=round(salt / 130.0, 6),
                        num_detected_phases=salt % 11,
                        num_baseline_phases=7,
                    )
                )
        records[chunk.key] = chunk_records
    return planned, records, fingerprints


def _store_legacy_side(tmp_dir, planned, records, fingerprints):
    """The ordered-delivery parent loop: from_row + per-row append."""
    from repro.experiments.runner import SweepRecord
    from repro.experiments.store import cache_line

    Path(tmp_dir).mkdir(parents=True, exist_ok=True)
    cache = Path(tmp_dir) / "legacy.jsonl"
    rows_by_chunk = {
        chunk.key: [record.to_row() for record in records[chunk.key]]
        for chunk in planned
    }  # pre-serialized: the pipe delivers dicts, not SweepRecords

    def run():
        with cache.open("a", encoding="utf-8") as handle:
            for chunk in planned:
                delivered = [
                    SweepRecord.from_row(row) for row in rows_by_chunk[chunk.key]
                ]
                fingerprint = fingerprints[chunk.benchmark]
                for record in delivered:
                    handle.write(cache_line(record, fingerprint))

    return run, cache


def _store_compact_side(tmp_dir, planned, records, fingerprints):
    """Chunk-store compaction: the bulk fold is the timed region; the
    workers' chunk files are pre-written here, outside it (in a real
    sweep they are written concurrently with evaluation)."""
    from repro.experiments.store import ChunkStore, cache_line, compact_chunks

    store = ChunkStore(Path(tmp_dir), "bench")
    for chunk in planned:
        lines = [
            cache_line(record, fingerprints[chunk.benchmark])
            for record in records[chunk.key]
        ]
        store.write(
            chunk.key, benchmark=chunk.benchmark,
            fingerprint=fingerprints[chunk.benchmark],
            configs=len(chunk.specs), lines=lines,
        )
    cache = Path(tmp_dir) / "store.jsonl"

    def run():
        compact_chunks(store, planned, cache)

    return run, cache


def _measure_store(calibration):
    """The store section: persistence ratio, resume exactness, query
    latency.  Returns the result dict (see the constants above)."""
    from repro.experiments.store import ChunkStore, ResultDB, cache_line

    planned, records, fingerprints = _store_fixture()
    total_rows = sum(len(chunk_records) for chunk_records in records.values())

    legacy_samples, compact_samples, ingest_samples = [], [], []
    for round_index in range(STORE_INTERLEAVE):
        with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp_dir:
            legacy_run, legacy_cache = _store_legacy_side(
                Path(tmp_dir) / "legacy", planned, records, fingerprints
            )
            compact_run, compact_cache = _store_compact_side(
                Path(tmp_dir) / "store", planned, records, fingerprints
            )
            sides = [(legacy_run, legacy_samples), (compact_run, compact_samples)]
            if round_index % 2:
                sides.reverse()
            for run, samples in sides:
                samples.append(_timed(run))
            with ResultDB(Path(tmp_dir) / "store.sqlite") as db:
                ingest_samples.append(_timed(
                    lambda: db.sync_from_cache(compact_cache, "bench")
                ))
            byte_identical = (
                legacy_cache.read_bytes() == compact_cache.read_bytes()
            )
            if not byte_identical:
                break
    legacy_seconds = min(legacy_samples)
    compact_seconds = min(compact_samples)
    ingest_seconds = min(ingest_samples)

    # Resume: 48 of 64 chunks present; missing() must be the exact
    # 16-chunk complement.
    resume_planned = planned[:RESUME_TOTAL_CHUNKS]
    absent = {
        chunk.key
        for chunk in resume_planned[RESUME_PRESENT_CHUNKS:RESUME_TOTAL_CHUNKS]
    }
    with tempfile.TemporaryDirectory(prefix="repro-resume-") as tmp_dir:
        store = ChunkStore(Path(tmp_dir), "bench")
        for chunk in resume_planned[:RESUME_PRESENT_CHUNKS]:
            lines = [
                cache_line(record, fingerprints[chunk.benchmark])
                for record in records[chunk.key]
            ]
            store.write(
                chunk.key, benchmark=chunk.benchmark,
                fingerprint=fingerprints[chunk.benchmark],
                configs=len(chunk.specs), lines=lines,
            )
        scan_start = time.perf_counter()
        missing = store.missing(resume_planned)
        scan_seconds = time.perf_counter() - scan_start
        resume_exact = {chunk.key for chunk in missing} == absent

    # Query latency through the SQLite indexes.
    query_samples = []
    with tempfile.TemporaryDirectory(prefix="repro-query-") as tmp_dir:
        cache = Path(tmp_dir) / "query.jsonl"
        with cache.open("w", encoding="utf-8") as handle:
            for chunk in planned:
                for record in records[chunk.key]:
                    handle.write(
                        cache_line(record, fingerprints[chunk.benchmark])
                    )
        with ResultDB(Path(tmp_dir) / "query.sqlite") as db:
            db.sync_from_cache(cache, "bench")
            for _ in range(STORE_INTERLEAVE):
                query_samples.append(_timed(
                    lambda: db.best_scores(
                        "bench", by=("family", "benchmark"),
                        where={"mpl_nominal": STORE_MPLS[0]},
                    )
                ))
    query_seconds = min(query_samples)

    return {
        "rows": total_rows,
        "chunks": len(planned),
        "interleave": STORE_INTERLEAVE,
        "legacy_seconds": round(legacy_seconds, 6),
        "compact_seconds": round(compact_seconds, 6),
        "speedup": round(legacy_seconds / compact_seconds, 4),
        "min_speedup": STORE_MIN_SPEEDUP,
        "byte_identical": byte_identical,
        "ingest_seconds": round(ingest_seconds, 6),
        "ingest_rows_per_sec": round(total_rows / ingest_seconds, 1),
        "resume": {
            "planned": len(resume_planned),
            "present": RESUME_PRESENT_CHUNKS,
            "missing": len(missing),
            "exact": resume_exact,
            "scan_seconds": round(scan_seconds, 6),
        },
        "query": {
            "rows": total_rows,
            "seconds": round(query_seconds, 6),
            "normalized": round(query_seconds / calibration, 4),
            "max_normalized": QUERY_MAX_NORMALIZED,
        },
    }


def _calibration_workload():
    # Fixed pure-Python work; its wall time is the unit every detector
    # time divides by.  Must never change once baselines are recorded.
    total = 0
    for i in range(1_500_000):
        total += i & 1023
    return total


def _timed(func):
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def _cpu_timed(func):
    start = time.process_time()
    func()
    return time.process_time() - start


def measure(repeats):
    trace = bench_trace()
    short_trace = short_episode_trace()
    large_trace = large_window_trace()
    # Interleave calibration samples with the detector samples so slow
    # drift (frequency scaling, co-tenant load) hits both sides of the
    # ratio; best-of-N on each side then discards transient spikes.
    cal_samples = []
    det_samples = {label: [] for label in CONFIGS}
    legacy_samples = {label: [] for label in CONFIGS}
    kernel_ratios = {label: [] for label in CONFIGS}
    short_samples = {label: [] for label in SHORT_EPISODE_CONFIGS}
    short_ratios = {label: [] for label in SHORT_EPISODE_CONFIGS}
    large_samples = {label: [] for label in LARGE_WINDOW_CONFIGS}
    large_ratios = {label: [] for label in LARGE_WINDOW_CONFIGS}
    family_samples = {label: [] for label in FAMILY_CONFIGS}
    bank_configs = _bank_configs()
    legacy_bank_samples = []
    legacy_bank_ratios = []
    cold_samples = []
    zero_copy_samples = []
    scoring_samples = []
    scoring_ratios = []
    scoring = _batch_scoring_fixture(trace)
    _calibration_workload()  # warm up the interpreter before timing
    run_detector(trace, next(iter(CONFIGS.values())))
    with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as tmp_dir:
        warm_path = _warm_start_fixture(tmp_dir, trace)
        _warm_start_cold(warm_path)  # prime the OS page cache for both sides
        for _ in range(repeats):
            cal_samples.append(_timed(_calibration_workload))
            before = cal_samples[-1]
            for label, config in CONFIGS.items():
                # Default path: array-native kernels (kernels default on),
                # then the fused loop right after it, both bracketed by
                # calibration samples for the kernel ceiling.
                det_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c, kernels=True))
                )
                legacy_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c, kernels=False))
                )
                after = _timed(_calibration_workload)
                kernel_ratios[label].append(
                    det_samples[label][-1] / min(before, after)
                )
                before = after
            for label, config in SHORT_EPISODE_CONFIGS.items():
                short_samples[label].append(
                    _timed(lambda c=config: run_detector(short_trace, c))
                )
                after = _timed(_calibration_workload)
                short_ratios[label].append(
                    short_samples[label][-1] / min(before, after)
                )
                before = after
            for label, config in LARGE_WINDOW_CONFIGS.items():
                large_samples[label].append(
                    _timed(lambda c=config: run_detector(large_trace, c))
                )
                after = _timed(_calibration_workload)
                large_ratios[label].append(
                    large_samples[label][-1] / min(before, after)
                )
                before = after
            for label, config in FAMILY_CONFIGS.items():
                family_samples[label].append(
                    _timed(lambda c=config: run_detector(trace, c))
                )
            # Calibrate right before and after the pure-Python bank run:
            # the per-repeat ratio cancels host drift that separate
            # best-ofs (up to ~30% apart on a shared 2-CPU host) do not,
            # and the lesser neighbour drops a calibration sample that a
            # transient stall inflated.
            before = _timed(_calibration_workload)
            legacy_bank_samples.append(
                _timed(lambda: DetectorBank(bank_configs).run(trace, kernels=False))
            )
            after = _timed(_calibration_workload)
            legacy_bank_ratios.append(legacy_bank_samples[-1] / min(before, after))
            scoring_samples.append(_timed(lambda: score_intervals(*scoring)))
            before, after = after, _timed(_calibration_workload)
            scoring_ratios.append(scoring_samples[-1] / min(before, after))
            cold_samples.append(_timed(lambda: _warm_start_cold(warm_path)))
            zero_copy_samples.append(
                _timed(lambda: _warm_start_zero_copy(warm_path))
            )
        warm_elements = len(read_trace_binary(warm_path, mmap=True))
    calibration = min(cal_samples)
    seq_kernel_seconds, batched_seconds = _measure_bank(trace, bank_configs)
    legacy_bank_seconds = min(legacy_bank_samples)
    park_row = _measure_park(trace)
    serve_row = _measure_serve(calibration)
    telemetry_row = _measure_telemetry(calibration)
    observer_row = _measure_observer()
    store_row = _measure_store(calibration)
    cold_seconds = min(cold_samples)
    zero_copy_seconds = min(zero_copy_samples)
    configs = {}
    kernel_rows = {}
    for label in CONFIGS:
        seconds = min(det_samples[label])
        configs[label] = {
            "seconds": round(seconds, 6),
            "normalized": round(seconds / calibration, 4),
        }
        legacy_seconds = min(legacy_samples[label])
        kernel_rows[label] = {
            "kernel_seconds": round(seconds, 6),
            "normalized": round(min(kernel_ratios[label]), 4),
            "max_normalized": KERNEL_MAX_NORMALIZED.get(label),
            "legacy_seconds": round(legacy_seconds, 6),
            "speedup": round(legacy_seconds / seconds, 4),
        }
    short_rows = {}
    for label, config in SHORT_EPISODE_CONFIGS.items():
        phases = run_detector(short_trace, config).detected_phases
        short_rows[label] = {
            "seconds": round(min(short_samples[label]), 6),
            "normalized": round(min(short_ratios[label]), 4),
            "max_normalized": SHORT_EPISODE_MAX_NORMALIZED[label],
            "episodes": len(phases),
            "longest_steps": max(
                (p.end - p.detected_start for p in phases), default=0
            ),
        }
    large_rows = {
        label: {
            "seconds": round(min(large_samples[label]), 6),
            "normalized": round(min(large_ratios[label]), 4),
            "max_normalized": LARGE_WINDOW_MAX_NORMALIZED[label],
        }
        for label in LARGE_WINDOW_CONFIGS
    }
    families = {}
    for label in FAMILY_CONFIGS:
        seconds = min(family_samples[label])
        families[label] = {
            "seconds": round(seconds, 6),
            "normalized": round(seconds / calibration, 4),
        }
    return {
        "version": BASELINE_VERSION,
        "kind": "bench-baseline",
        "benchmark": "perf_detector_null_path",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repeats": repeats,
        "elements": len(trace),
        "calibration_seconds": round(calibration, 6),
        "configs": configs,
        "families": families,
        "bank": {
            "size": BANK_SIZE,
            "interleave": BANK_INTERLEAVE,
            "legacy_seconds": round(legacy_bank_seconds, 6),
            "legacy_normalized": round(min(legacy_bank_ratios), 4),
            "max_normalized": BANK_LEGACY_MAX_NORMALIZED,
            "batched": {
                "sequential_kernel_seconds": round(seq_kernel_seconds, 6),
                "batched_seconds": round(batched_seconds, 6),
                "speedup": round(seq_kernel_seconds / batched_seconds, 4),
                "min_speedup": BANK_BATCHED_MIN_SPEEDUP,
            },
        },
        "kernels": {
            "max_normalized": KERNEL_MAX_NORMALIZED,
            "configs": kernel_rows,
        },
        "short_episodes": {
            "elements": len(short_trace),
            "configs": short_rows,
        },
        "large_windows": {
            "elements": len(large_trace),
            "configs": large_rows,
        },
        "scoring": {
            "lanes": len(scoring[0]),
            "elements": scoring[2],
            "baselines": len(scoring[1]),
            "seconds": round(min(scoring_samples), 6),
            "normalized": round(min(scoring_ratios), 4),
            "max_normalized": SCORING_MAX_NORMALIZED,
        },
        "park": park_row,
        "zero_copy": {
            "warm_start": {
                "elements": warm_elements,
                "cold_seconds": round(cold_seconds, 6),
                "zero_copy_seconds": round(zero_copy_seconds, 6),
                "speedup": round(cold_seconds / zero_copy_seconds, 4),
                "min_speedup": WARM_START_MIN_SPEEDUP,
            },
        },
        "serve": serve_row,
        "telemetry": telemetry_row,
        "observer": observer_row,
        "store": store_row,
        "aggregate_normalized": round(
            sum(entry["normalized"] for entry in configs.values()), 4
        ),
        "aggregate_families_normalized": round(
            sum(entry["normalized"] for entry in families.values()), 4
        ),
        "environment": environment_info(),
    }


def latest_baseline():
    """The most recently *recorded* baseline, by its ``created_at``
    stamp — filename order is not recording order (several baselines
    share a date prefix and sort alphabetically by suffix)."""
    candidates = sorted(
        BENCH_DIR.glob("BENCH_*.json"),
        key=lambda path: (
            json.loads(path.read_text(encoding="utf-8")).get("created_at", ""),
            path.name,
        ),
    )
    return candidates[-1] if candidates else None


def _print_report(result):
    print(f"calibration: {result['calibration_seconds']:.4f}s "
          f"(repeats={result['repeats']}, "
          f"cpu_count={result['environment']['cpu_count']})")
    for label, entry in result["configs"].items():
        print(f"  {label:22s} {entry['seconds']:.4f}s "
              f"normalized={entry['normalized']:.4f}")
    for label, entry in result["families"].items():
        print(f"  family {label:15s} {entry['seconds']:.4f}s "
              f"normalized={entry['normalized']:.4f}")
    for label, row in result["kernels"]["configs"].items():
        print(f"  kernel {label:15s} {row['kernel_seconds']:.4f}s "
              f"normalized={row['normalized']:.4f} vs "
              f"legacy {row['legacy_seconds']:.4f}s "
              f"(speedup {row['speedup']:.2f}x)")
    short = result["short_episodes"]
    for label, row in short["configs"].items():
        print(f"  short-episode {label:19s} {row['seconds']:.4f}s "
              f"normalized={row['normalized']:.4f} "
              f"({row['episodes']} episodes, longest "
              f"{row['longest_steps']} steps, {short['elements']} elems)")
    large = result["large_windows"]
    for label, row in large["configs"].items():
        print(f"  large-window {label:20s} {row['seconds']:.4f}s "
              f"normalized={row['normalized']:.4f} "
              f"({large['elements']} elems)")
    bank = result["bank"]
    print(f"  bank[{bank['size']}] legacy       {bank['legacy_seconds']:.4f}s "
          f"normalized={bank['legacy_normalized']:.4f}")
    batched = bank["batched"]
    print(f"  bank[{bank['size']}] batched      {batched['batched_seconds']:.4f}s "
          f"vs sequential kernels {batched['sequential_kernel_seconds']:.4f}s "
          f"(speedup {batched['speedup']:.2f}x)")
    warm = result["zero_copy"]["warm_start"]
    print(f"  warm-start[{warm['elements']} elems] cold {warm['cold_seconds']:.4f}s "
          f"vs zero-copy {warm['zero_copy_seconds']:.4f}s "
          f"(speedup {warm['speedup']:.2f}x)")
    scoring = result["scoring"]
    print(f"  scoring[{scoring['lanes']}x{scoring['baselines']}] "
          f"{scoring['seconds']:.4f}s normalized={scoring['normalized']:.4f}")
    park = result["park"]
    print(f"  park[{park['sessions']} sessions x {park['cycles']} cycles] "
          f"normalized CPU park={park['normalized']['park']:.4f} "
          f"rehydrate={park['normalized']['rehydrate']:.4f} "
          f"(checkpoints {park['checkpoint_bytes']} B)")
    serve = result["serve"]
    print(f"  serve[{serve['sessions']} sessions] "
          f"{serve['events_per_sec']:.0f} events/s "
          f"normalized={serve['normalized_throughput']:.0f} "
          f"p50={serve['latency_p50_ms']:.2f}ms "
          f"p99={serve['latency_p99_ms']:.2f}ms "
          f"verified={serve['verified']}")
    print(f"  serve parked[{serve['parked_sessions']} sessions] "
          f"parks={serve['parked_parks']} "
          f"rehydrations={serve['parked_rehydrations']} "
          f"verified={serve['parked_verified']}")
    telemetry = result["telemetry"]
    print(f"  telemetry[{telemetry['sessions']} sessions] "
          f"off {telemetry['off_events_per_sec']:.0f} events/s vs "
          f"on {telemetry['on_events_per_sec']:.0f} events/s "
          f"(overhead {telemetry['overhead']:+.1%}, "
          f"flight {telemetry['flight_samples']} samples, "
          f"pair ratios {telemetry['ratios']})")
    observer = result["observer"]
    print(f"  observer[{observer['specs']} specs x {observer['elements']} elems] "
          f"off {observer['off_seconds']:.4f}s vs "
          f"phase-only {observer['on_seconds']:.4f}s "
          f"(overhead {observer['overhead']:+.1%}, "
          f"pair ratios {observer['ratios']})")
    store = result["store"]
    print(f"  store[{store['rows']} rows/{store['chunks']} chunks] "
          f"legacy {store['legacy_seconds']:.4f}s vs "
          f"compact {store['compact_seconds']:.4f}s "
          f"(speedup {store['speedup']:.2f}x, "
          f"byte-identical={store['byte_identical']})")
    print(f"  store ingest {store['ingest_seconds']:.4f}s "
          f"({store['ingest_rows_per_sec']:.0f} rows/s into SQLite)")
    resume = store["resume"]
    print(f"  resume[{resume['planned']} planned] "
          f"{resume['present']} present -> {resume['missing']} missing "
          f"(exact={resume['exact']}, scan {resume['scan_seconds']:.4f}s)")
    query = store["query"]
    print(f"  query[{query['rows']} rows] best-scores "
          f"{query['seconds']:.4f}s normalized={query['normalized']:.4f}")
    print(f"aggregate normalized score: {result['aggregate_normalized']:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write a new baseline instead of checking")
    parser.add_argument("--out", type=Path, default=None,
                        help="baseline path for --record "
                             "(default: benchmarks/BENCH_<date>_perf_detector.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline to check against "
                             "(default: newest benchmarks/BENCH_*.json)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N repetitions per measurement")
    args = parser.parse_args(argv)

    result = measure(args.repeats)
    _print_report(result)

    if args.record:
        out = args.out
        if out is None:
            stamp = result["created_at"][:10]
            out = BENCH_DIR / f"BENCH_{stamp}_perf_detector.json"
        out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"baseline recorded: {out}")
        return 0

    baseline_path = args.baseline or latest_baseline()
    if baseline_path is None or not baseline_path.exists():
        print("error: no baseline found (record one with --record)",
              file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("version", 0) != BASELINE_VERSION:
        print(f"error: {baseline_path} has unsupported version "
              f"{baseline.get('version')}", file=sys.stderr)
        return 2
    reference = float(baseline["aggregate_normalized"])
    current = float(result["aggregate_normalized"])
    change = (current - reference) / reference
    print(f"baseline {baseline_path.name}: aggregate {reference:.4f} "
          f"(recorded {baseline.get('created_at')})")
    print(f"change: {change:+.1%} (tolerance {args.tolerance:+.0%})")
    if change > args.tolerance:
        print(f"FAIL: null-path detector benchmark regressed {change:+.1%} "
              f"(> {args.tolerance:.0%}) vs {baseline_path.name}",
              file=sys.stderr)
        return 1
    families_ref = baseline.get("aggregate_families_normalized")
    if families_ref is not None:
        families_current = float(result["aggregate_families_normalized"])
        families_change = (
            (families_current - float(families_ref)) / float(families_ref)
        )
        print(f"families aggregate: {families_current:.4f} "
              f"(baseline {float(families_ref):.4f}, "
              f"change {families_change:+.1%})")
        if families_change > args.tolerance:
            print(f"FAIL: decision-family benchmark regressed "
                  f"{families_change:+.1%} (> {args.tolerance:.0%}) vs "
                  f"{baseline_path.name}", file=sys.stderr)
            return 1
    # Legacy bank gate: an absolute calibration-normalized ceiling on
    # the fused loop alone, so it holds whatever else gets faster.
    legacy = float(result["bank"]["legacy_normalized"])
    print(f"bank legacy normalized: {legacy:.4f} "
          f"(gate <= {BANK_LEGACY_MAX_NORMALIZED:.2f})")
    if legacy > BANK_LEGACY_MAX_NORMALIZED:
        print(f"FAIL: {BANK_SIZE}-config bank with kernels=False took "
              f"{legacy:.4f} calibration units (ceiling "
              f"{BANK_LEGACY_MAX_NORMALIZED:.2f})", file=sys.stderr)
        return 1
    # Batched-advancer gate: kernels on both sides, so the ratio
    # isolates the per-signature series sharing, not vectorization.
    batched_speedup = float(result["bank"]["batched"]["speedup"])
    print(f"bank batched speedup: {batched_speedup:.2f}x "
          f"(gate >= {BANK_BATCHED_MIN_SPEEDUP:.2f}x)")
    if batched_speedup < BANK_BATCHED_MIN_SPEEDUP:
        print(f"FAIL: batched bank advancer was only {batched_speedup:.2f}x "
              f"{BANK_SIZE} sequential kernel runs "
              f"(gate {BANK_BATCHED_MIN_SPEEDUP:.2f}x)", file=sys.stderr)
        return 1
    # Kernel gates: absolute calibration-normalized ceilings on the
    # vectorized walks alone, so they hold whatever the fused loop does.
    # The kernel/legacy ratio is printed for reference only.
    for gate_config, ceiling in KERNEL_MAX_NORMALIZED.items():
        row = result["kernels"]["configs"][gate_config]
        normalized = float(row["normalized"])
        print(f"kernel normalized ({gate_config}): {normalized:.4f} "
              f"(gate <= {ceiling:g}; {row['speedup']:.2f}x the fused loop)")
        if normalized > ceiling:
            print(f"FAIL: the vectorized walk took {normalized:.4f} "
                  f"calibration units on {gate_config} (ceiling "
                  f"{ceiling:g})", file=sys.stderr)
            return 1
    # Short-episode gates: the same absolute ceilings, on per-episode
    # cost.
    for gate_config, ceiling in SHORT_EPISODE_MAX_NORMALIZED.items():
        normalized = float(
            result["short_episodes"]["configs"][gate_config]["normalized"]
        )
        print(f"short-episode normalized ({gate_config}): {normalized:.4f} "
              f"(gate <= {ceiling:g})")
        if normalized > ceiling:
            print(f"FAIL: the vectorized walk took {normalized:.4f} "
                  f"calibration units on {gate_config} short episodes "
                  f"(ceiling {ceiling:g})", file=sys.stderr)
            return 1
    # Large-window gates: the same absolute ceilings, on the weighted
    # walks at CW 50,000.
    for gate_config, ceiling in LARGE_WINDOW_MAX_NORMALIZED.items():
        normalized = float(
            result["large_windows"]["configs"][gate_config]["normalized"]
        )
        print(f"large-window normalized ({gate_config}): {normalized:.4f} "
              f"(gate <= {ceiling:g})")
        if normalized > ceiling:
            print(f"FAIL: the vectorized walk took {normalized:.4f} "
                  f"calibration units on {gate_config} at CW 50,000 "
                  f"(ceiling {ceiling:g})", file=sys.stderr)
            return 1
    # Zero-copy gate: a same-run ratio, baseline-independent like the
    # batched-advancer gate.
    warm_speedup = float(result["zero_copy"]["warm_start"]["speedup"])
    print(f"warm-start speedup: {warm_speedup:.2f}x "
          f"(gate > {WARM_START_MIN_SPEEDUP:.1f}x)")
    if warm_speedup <= WARM_START_MIN_SPEEDUP:
        print(f"FAIL: mmap + sidecar warm start was not faster than the "
              f"heap read + unique pass ({warm_speedup:.2f}x)",
              file=sys.stderr)
        return 1
    # Scoring gate: an absolute calibration-normalized ceiling.
    scoring = float(result["scoring"]["normalized"])
    print(f"scoring normalized: {scoring:.4f} "
          f"(gate <= {SCORING_MAX_NORMALIZED:g})")
    if scoring > SCORING_MAX_NORMALIZED:
        print(f"FAIL: score_intervals took {scoring:.4f} calibration units "
              f"(ceiling {SCORING_MAX_NORMALIZED:g})", file=sys.stderr)
        return 1
    # Park gates: absolute calibration-normalized CPU ceilings on each
    # half of the cycle, one spool write and one spool read per session.
    for half, ceiling in PARK_MAX_NORMALIZED.items():
        normalized = float(result["park"]["normalized"][half])
        print(f"park normalized ({half}): {normalized:.4f} (gate <= {ceiling:g})")
        if normalized > ceiling:
            print(f"FAIL: the {half} half of {PARK_CYCLES} park + rehydrate "
                  f"cycles took {normalized:.4f} calibration units of CPU "
                  f"(ceiling {ceiling:g})", file=sys.stderr)
            return 1
    # Serving gates: correctness flags are absolute (a mismatch anywhere
    # is a real bug); throughput uses the calibration-normalized floor so
    # the check survives host-speed differences.
    serve = result["serve"]
    print(f"serve: {serve['sessions']} sessions, "
          f"normalized throughput {serve['normalized_throughput']:.0f} "
          f"(gate >= {SERVE_MIN_NORMALIZED_THROUGHPUT:.0f})")
    if serve["sessions"] < SERVE_SESSIONS:
        print(f"FAIL: serve-bench ran only {serve['sessions']} concurrent "
              f"sessions (gate {SERVE_SESSIONS})", file=sys.stderr)
        return 1
    if serve["verified"] is not True or serve["parked_verified"] is not True:
        print("FAIL: served phase streams were not byte-identical to the "
              "offline detector (main verified="
              f"{serve['verified']}, parked verified="
              f"{serve['parked_verified']})", file=sys.stderr)
        return 1
    if serve["parked_parks"] < 1:
        print("FAIL: forced-eviction serve run never parked a session — "
              "the park/rehydrate path went unexercised", file=sys.stderr)
        return 1
    if serve["normalized_throughput"] < SERVE_MIN_NORMALIZED_THROUGHPUT:
        print(f"FAIL: serving throughput {serve['normalized_throughput']:.0f} "
              f"normalized events/s fell below the floor "
              f"{SERVE_MIN_NORMALIZED_THROUGHPUT:.0f}", file=sys.stderr)
        return 1
    # Telemetry gates: the median paired on/off ratio plus an absolute
    # flight-record completeness check on every spool.
    telemetry = result["telemetry"]
    print(f"telemetry overhead: {telemetry['overhead']:+.1%} "
          f"(gate <= {TELEMETRY_MAX_OVERHEAD:+.0%})")
    if telemetry["overhead"] > TELEMETRY_MAX_OVERHEAD:
        print(f"FAIL: serving with the flight recorder enabled was "
              f"{telemetry['overhead']:+.1%} slower than telemetry off "
              f"(gate {TELEMETRY_MAX_OVERHEAD:.0%})", file=sys.stderr)
        return 1
    if any(total != telemetry["elements"]
           for total in telemetry["flight_events_in"]):
        print(f"FAIL: flight-record deltas summed to "
              f"{telemetry['flight_events_in']} events but each run fed "
              f"{telemetry['elements']} — a spool lost samples",
              file=sys.stderr)
        return 1
    # Observer gate: a paired same-run ratio, so it needs no baseline.
    observer = result["observer"]
    print(f"observer overhead: {observer['overhead']:+.1%} "
          f"(gate <= {OBSERVER_MAX_OVERHEAD:+.0%})")
    if observer["overhead"] > OBSERVER_MAX_OVERHEAD:
        print(f"FAIL: streaming with a phase-only observer was "
              f"{observer['overhead']:+.1%} slower than with none "
              f"(gate {OBSERVER_MAX_OVERHEAD:.0%}) — are the loops building "
              f"per-step events the observer did not ask for?",
              file=sys.stderr)
        return 1
    # Store gates: the persistence ratio is same-run (drift-immune);
    # byte-identity and resume exactness are absolute correctness
    # claims; query latency uses the calibration-normalized ceiling.
    store = result["store"]
    print(f"store persistence speedup: {store['speedup']:.2f}x "
          f"(gate >= {STORE_MIN_SPEEDUP:.1f}x)")
    if not store["byte_identical"]:
        print("FAIL: chunk-store compaction produced a cache that is not "
              "byte-identical to the ordered-delivery append path",
              file=sys.stderr)
        return 1
    if store["speedup"] < STORE_MIN_SPEEDUP:
        print(f"FAIL: chunk compaction (incl. SQLite ingest) was only "
              f"{store['speedup']:.2f}x the legacy per-row parent loop "
              f"(gate {STORE_MIN_SPEEDUP:.1f}x)", file=sys.stderr)
        return 1
    resume = store["resume"]
    print(f"store resume: {resume['missing']}/{resume['planned']} missing "
          f"(exact={resume['exact']})")
    if not resume["exact"]:
        print(f"FAIL: resume scan over {resume['planned']} planned chunks "
              f"with {resume['present']} present did not return exactly "
              f"the absent set ({resume['missing']} returned)",
              file=sys.stderr)
        return 1
    query = store["query"]
    print(f"store query normalized: {query['normalized']:.4f} "
          f"(gate <= {QUERY_MAX_NORMALIZED:.2f})")
    if query["normalized"] > QUERY_MAX_NORMALIZED:
        print(f"FAIL: best-scores query took {query['normalized']:.4f} "
              f"calibration units over {query['rows']} rows "
              f"(ceiling {QUERY_MAX_NORMALIZED:.2f}) — check the indexes",
              file=sys.stderr)
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
