"""The sweep workloads: ``sweep-quick`` and ``sweep-families``.

Both run the quick profile's grid over the ``jlex`` and ``db`` suite
programs the way ``repro sweep --profile quick --benchmarks jlex db
--jobs 2`` does: ``Sweep(QUICK, jobs=2).ensure(specs)`` in a fresh
process, with a cold record cache and a warm trace cache, through the
chunk store, compaction and the SQLite result database.  jlex comes
first so that db's small chunks come last and the two workers finish
together; the other way round, which worker got jlex's last chunk
moved the wall time by up to a tenth.

- ``sweep-quick`` is the paper's windowed grid (270 specs, 3,780
  records).  Its db slice followed by its jlex slice is the
  repository's golden cache (sha256 ``0df9ab8c...``).  Detection runs
  on the dense and vectorized kernel paths; the detector families do
  no work.
- ``sweep-families`` is ``family_grid`` over FOCuS, NEWMA, Das Pearson
  and Lu DYNAMO (55 specs, 770 records).  The per-event family engines
  do the work; the windowed kernels do none.

Every repeat's cache is hashed per benchmark slice against
``pins.json``.  The traced run replays the sweep serially in-process,
calling each layer's public functions inside spans, and must leave a
cache with the same hashes.

Times are normalized to the reference CPU speed with the speed probes
of both CPUs (:mod:`speed`).  Run ``python sweeps.py child WORKLOAD
CACHE_DIR BENCHMARK...`` to do one timed ``ensure`` and print its
measurements as JSON; each repeat runs that.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

from common import LOW_PRIORITY, TRACE_CACHE, WORK, child_env, median, pinned
from spans import MAX_SPANS, coverage, self_seconds, wall_seconds

WORKLOADS = ("sweep-quick", "sweep-families")
BENCHMARKS = ["jlex", "db"]
JOBS = 2
FAMILIES = ("focus", "newma", "das_pearson", "lu_dynamo")
#: Specs per bank in the traced replay: ``evaluate_bank``'s default.
BANK_SIZE = 16
SETUP_REPEATS = 5
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 120
#: How long an interrupted repeat's pool workers may take to be reaped.
GROUP_EXIT_TIMEOUT_S = 10
PINS_PATH = Path(__file__).with_name("pins.json")
#: The program (and leading arguments) that runs one timed ``ensure``.
CHILD_ENTRY = [str(Path(__file__).resolve())]


def grid(workload: str):
    from repro.experiments.config_space import QUICK, family_grid, paper_grid

    if workload == "sweep-quick":
        return paper_grid(QUICK)
    return family_grid(QUICK, FAMILIES)


def slice_digests(cache_path: Path) -> Dict[str, Dict[str, object]]:
    """sha256 and row count of each benchmark's rows in a record cache."""
    digests: Dict[str, "hashlib._Hash"] = {}
    rows: Dict[str, int] = {}
    with cache_path.open("rb") as handle:
        for line in handle:
            benchmark = json.loads(line)["benchmark"]
            digests.setdefault(benchmark, hashlib.sha256()).update(line)
            rows[benchmark] = rows.get(benchmark, 0) + 1
    return {
        name: {"sha256": digest.hexdigest(), "records": rows[name]}
        for name, digest in digests.items()
    }


def count_failures(workload: str, cache_path: Path) -> Tuple[int, int]:
    """(records expected, records in slices that differ from the pins)."""
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))[workload]
    pins = {name: pins[name] for name in BENCHMARKS}
    seen = slice_digests(cache_path) if cache_path.exists() else {}
    expected = sum(pin["records"] for pin in pins.values())
    failed = sum(
        pin["records"] for name, pin in pins.items()
        if seen.get(name) != pin
    )
    return expected, failed


def repeats(seconds: float, minimum: int):
    """Count repeats while the next is expected to end within ``seconds``."""
    started = time.perf_counter()
    count = 0
    last = 0.0
    while count < minimum or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        yield count
        count += 1
        last = time.perf_counter() - begun


def warm_traces() -> None:
    from repro.experiments.config_space import QUICK
    from repro.workloads.suite import load_suite

    load_suite(scale=QUICK.workload_scale, cache_dir=TRACE_CACHE, names=BENCHMARKS)


def fresh_cache(directory: Path) -> Path:
    """An empty record cache beside a copy of the warm trace cache."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for path in TRACE_CACHE.iterdir():
        if path.name.split("-", 1)[0] in BENCHMARKS:
            shutil.copy2(path, directory / path.name)
    return directory


def setup_seconds(workload: str, probes) -> float:
    """Median time of a cold ``load_suite``: interpretation plus trace writes.

    Every suite program is loaded, as a default ``repro sweep`` does:
    about 0.3 s, where the host's jitter no longer dominates as it did
    the 60-ms load of jlex and db alone.
    """
    from repro.experiments.config_space import QUICK
    from repro.workloads.suite import load_suite

    cpu = probes.cpus[0]
    times = []
    with pinned(cpu):
        for index in range(SETUP_REPEATS):
            directory = WORK / workload / f"cold-{index}"
            shutil.rmtree(directory, ignore_errors=True)
            started = time.perf_counter()
            load_suite(scale=QUICK.workload_scale, cache_dir=directory)
            ended = time.perf_counter()
            times.append((ended - started) * probes.factor([cpu], started, ended))
            shutil.rmtree(directory)
    return median(times)


# -- the end-to-end run ----------------------------------------------------------


def child(workload: str, cache_dir: Path, benchmarks: List[str]) -> Dict[str, float]:
    """One ``Sweep.ensure`` in this process; its interval, CPU and peak RSS.

    The process and the pool workers it forks run at :data:`LOW_PRIORITY`.
    """
    from repro.experiments.config_space import QUICK
    from repro.experiments.sweep import Sweep

    os.setpriority(os.PRIO_PROCESS, 0, LOW_PRIORITY)
    specs = grid(workload)
    sweep = Sweep(QUICK, cache_dir=cache_dir, benchmarks=benchmarks, jobs=JOBS)
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    records = sweep.ensure(specs)
    ended = time.perf_counter()
    mine = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (
        mine.ru_utime + mine.ru_stime - before.ru_utime - before.ru_stime
        + workers.ru_utime + workers.ru_stime
    )
    return {
        "records": len(records),
        "started": started,
        "ended": ended,
        "cpu_s": cpu,
        "rss_kib": max(mine.ru_maxrss, workers.ru_maxrss),
    }


def run_child(workload: str, cache_dir: Path) -> Dict[str, float]:
    """One repeat in its own process group, so its pool workers end with it."""
    proc = subprocess.Popen(
        [sys.executable, *CHILD_ENTRY, "child", workload, str(cache_dir),
         *BENCHMARKS],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        _end_group(proc)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, stdout, stderr)
    return json.loads(stdout.strip().splitlines()[-1])


def _end_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of ``proc``'s process group; wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + GROUP_EXIT_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(workload: str, seconds: float, probes) -> Dict[str, object]:
    warm_traces()
    setup = setup_seconds(workload, probes)
    raw_walls: List[float] = []
    cpu_seconds: List[float] = []
    speeds: List[float] = []
    cpu_speeds: List[float] = []
    walls: List[float] = []
    rates: List[float] = []
    rss: List[float] = []
    attempted = failed = 0
    for _ in repeats(seconds, MIN_REPEATS):
        cache_dir = fresh_cache(WORK / workload / "run")
        sample = run_child(workload, cache_dir)
        expected, bad = count_failures(workload, cache_dir / "sweep-quick.jsonl")
        attempted += expected
        failed += max(bad, expected - int(sample["records"]))
        interval = (probes.cpus, sample["started"], sample["ended"])
        speeds.append(probes.factor(*interval))
        cpu_speeds.append(probes.factor(*interval, cpu_time=True))
        raw_walls.append(sample["ended"] - sample["started"])
        cpu_seconds.append(sample["cpu_s"])
        walls.append(raw_walls[-1] * speeds[-1])
        rates.append(sample["records"] / (sample["cpu_s"] * cpu_speeds[-1]))
        rss.append(sample["rss_kib"] / 1024)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": setup,
            "latency_ms": median(walls) * 1e3,
            "items_per_cpu_s": median(rates),
            "peak_rss_mb": median(rss),
        },
        "detail": {"repeats": len(walls), "raw_wall_s": raw_walls,
                   "cpu_s": cpu_seconds, "speed": speeds, "cpu_speed": cpu_speeds},
    }


# -- the traced run ---------------------------------------------------------------


def _path_label(engine) -> str:
    """Which bank path runs ``engine``: a kernel path or a family name."""
    if not engine.config.is_windowed:
        return engine.config.family
    path = engine.kernel_path()
    return path if path in ("vectorized", "dense") else "legacy"


def _signature(config) -> Tuple:
    from repro.core.config import ModelKind

    return (config.model is ModelKind.WEIGHTED, config.cw_size, config.tw_size,
            config.skip_factor)


def _records(results, baselines, specs, nominals):
    """``evaluate_bank``'s batch scoring: plain and corrected rows at once."""
    import numpy as np

    from repro.experiments.runner import SweepRecord
    from repro.scoring.metric import score_states_batch

    lanes = len(results)
    matrix = np.vstack(
        [np.asarray(result.states, dtype=bool) for result in results]
        + [result.corrected_states() for result in results]
    )
    grid_scores = score_states_batch(
        matrix,
        [baselines.states(nominal) for nominal in nominals],
        detected_phases=[None] * lanes + [r.corrected_phases() for r in results],
        baseline_phases=[baselines.phases(nominal) for nominal in nominals],
    )
    records = []
    for lane, spec in enumerate(specs):
        for column, nominal in enumerate(nominals):
            plain = grid_scores[lane][column]
            records.append(SweepRecord(
                benchmark=baselines.name,
                family=spec.family,
                cw_nominal=spec.cw_nominal,
                model=spec.model.value,
                analyzer=spec.analyzer_label(),
                anchor=spec.anchor.value,
                resize=spec.resize.value,
                mpl_nominal=nominal,
                score=plain.score,
                correlation=plain.correlation,
                sensitivity=plain.sensitivity,
                false_positives=plain.false_positives,
                corrected_score=grid_scores[lanes + lane][column].score,
                num_detected_phases=plain.num_detected_phases,
                num_baseline_phases=plain.num_baseline_phases,
            ))
    return matrix.shape[0], records


def replay(workload: str, cache_dir: Path, tracer, root, counts: Counter) -> None:
    """The sweep, serially, one public call per span.

    Banks of :data:`BANK_SIZE` specs in grid order, as ``evaluate_bank``
    forms them; each bank splits into one ``DetectorBank.run`` per path,
    which is the partition ``DetectorBank`` makes itself.  Each bank's
    records become one chunk of the store, folded by ``compact_chunks``
    and ingested into SQLite.
    """
    from repro.core.bank import DetectorBank
    from repro.experiments.config_space import MPL_NOMINALS_EXTENDED, QUICK
    from repro.experiments.runner import BaselineSet
    from repro.experiments.store import (
        ChunkStore,
        PlannedChunk,
        ResultDB,
        cache_line,
        chunk_key,
        compact_chunks,
    )
    from repro.workloads.suite import load_suite, workload as suite_workload

    specs = grid(workload)
    nominals = list(MPL_NOMINALS_EXTENDED)
    with tracer.span("suite.load", parent=root):
        traces = load_suite(scale=QUICK.workload_scale, cache_dir=cache_dir,
                            names=BENCHMARKS)
    store = ChunkStore(cache_dir, QUICK.name)
    planned = []
    for benchmark in BENCHMARKS:
        trace, call_loop = traces[benchmark]
        fingerprint = suite_workload(benchmark).fingerprint(QUICK.workload_scale)
        baselines = BaselineSet(call_loop, QUICK, nominals, name=benchmark)
        with tracer.span("baseline.solve", parent=root):
            for nominal in nominals:
                baselines.states(nominal)
                baselines.phases(nominal)
        counts["baseline.solves"] += len(nominals)
        for start in range(0, len(specs), BANK_SIZE):
            bank_specs = specs[start:start + BANK_SIZE]
            configs = [spec.to_config(QUICK) for spec in bank_specs]
            paths: Dict[str, List[int]] = {}
            for index, engine in enumerate(DetectorBank(configs).runtimes):
                paths.setdefault(_path_label(engine), []).append(index)
            results = [None] * len(configs)
            for label, members in paths.items():
                with tracer.span(f"bank.{label}", parent=root):
                    out = DetectorBank([configs[i] for i in members]).run(trace)
                for index, result in zip(members, out):
                    results[index] = result
                lanes = "family" if label in FAMILIES else label
                counts[f"bank.{lanes}_lanes"] += len(members)
                if label == "vectorized":
                    counts["bank.signatures"] += len(
                        {_signature(configs[i]) for i in members})
            with tracer.span("scoring.batch", parent=root):
                rows, records = _records(results, baselines, bank_specs, nominals)
            counts["scoring.rows"] += rows
            key = chunk_key(QUICK.name, benchmark, fingerprint, bank_specs, nominals)
            with tracer.span("store.chunk_write", parent=root):
                lines = [cache_line(record, fingerprint) for record in records]
                store.write(key, benchmark, fingerprint, len(bank_specs), lines)
            counts["store.rows"] += len(lines)
            counts["store.bytes"] += sum(len(line) for line in lines)
            planned.append(PlannedChunk(
                index=len(planned), benchmark=benchmark, fingerprint=fingerprint,
                specs=tuple(bank_specs), key=key, mpl_nominals=tuple(nominals),
            ))
    cache_path = cache_dir / f"sweep-{QUICK.name}.jsonl"
    with tracer.span("store.compact", parent=root):
        compact_chunks(store, planned, cache_path)
    with tracer.span("store.ingest", parent=root):
        with ResultDB(cache_dir / f"sweep-{QUICK.name}.sqlite") as db:
            db.sync_from_cache(cache_path, QUICK.name)


def run_traced(workload: str, seconds: float, probes, run_id: str) -> Dict[str, object]:
    """Pairs of an untraced ``Sweep.ensure(jobs=1)`` and a traced replay.

    Both run on the first CPU; their times are normalized by its speed.
    """
    from repro.experiments.config_space import QUICK
    from repro.experiments.sweep import Sweep
    from repro.obs.trace import Tracer

    warm_traces()
    cpu = probes.cpus[0]
    samples: List[Dict[str, float]] = []
    attempted = failed = 0
    for _ in repeats(seconds, 1):
        serial_dir = fresh_cache(WORK / workload / "serial")
        traced_dir = fresh_cache(WORK / workload / "traced")
        tracer = Tracer(f"{run_id}.{len(samples)}", max_spans=MAX_SPANS)
        counts: Counter = Counter()
        with pinned(cpu):
            serial_start = time.perf_counter()
            Sweep(QUICK, cache_dir=serial_dir, benchmarks=BENCHMARKS, jobs=1).ensure(
                grid(workload))
            traced_start = time.perf_counter()
            with tracer.span("sweep") as root:
                replay(workload, traced_dir, tracer, root, counts)
            traced_end = time.perf_counter()
        tracer.save(WORK / "spans" / f"{tracer.trace_id}.jsonl")
        serial = (traced_start - serial_start) * probes.factor(
            [cpu], serial_start, traced_start)
        factor = probes.factor([cpu], traced_start, traced_end)
        for cache_dir in (serial_dir, traced_dir):
            expected, bad = count_failures(workload, cache_dir / "sweep-quick.jsonl")
            attempted += expected
            failed += bad
        if tracer.dropped:
            raise RuntimeError(f"the tracer dropped {tracer.dropped} spans")
        sample = {f"{name}_s": value * factor
                  for name, value in self_seconds(tracer.spans).items()
                  if name != "sweep"}
        sample.update(counts)
        signatures = sample.pop("bank.signatures", 0)
        if signatures:
            sample["bank.series_reuse"] = sample["bank.vectorized_lanes"] / signatures
        sample["trace.coverage"] = coverage(tracer.spans)
        sample["trace.overhead_frac"] = wall_seconds(tracer.spans) * factor / serial - 1
        samples.append(sample)
    names = sorted({name for sample in samples for name in sample})
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: median([sample.get(name, 0.0) for sample in samples])
            for name in names
        },
        "detail": {"repeats": len(samples)},
    }


if __name__ == "__main__":
    if len(sys.argv) < 5 or sys.argv[1] != "child" or sys.argv[2] not in WORKLOADS:
        sys.exit(f"usage: {sys.argv[0]} child {{{','.join(WORKLOADS)}}} "
                 "CACHE_DIR BENCHMARK...")
    print(json.dumps(child(sys.argv[2], Path(sys.argv[3]), sys.argv[4:])))
