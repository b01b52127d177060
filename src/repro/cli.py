"""Command-line interface.

Subcommands::

    repro trace <workload> --out DIR        # run a workload, save both traces
    repro oracle <file.cloop> --mpl N       # print the baseline solution
    repro detect <file.btrace> --cw N ...   # run one detector, print phases
    repro detect ... --checkpoint F --checkpoint-at N  # suspend mid-trace
    repro detect <file.btrace> --resume F   # resume from a checkpoint
    repro bank <file.btrace> --cw N         # bank-vs-sequential benchmark
    repro score <workload|files> --mpl N    # detector-vs-oracle accuracy
    repro characteristics                   # Table 1(a) for the suite
    repro sweep --profile quick --jobs 4    # (re)fill the sweep record cache
    repro generate --profile default        # regenerate all tables/figures
    repro serve --port 7007                 # streaming detection server (TCP)
    repro serve --flight-record f.jsonl     # ... with a telemetry flight record
    repro serve-bench --sessions 1000       # serving load generator + verify
    repro serve-stats --port 7007           # one-shot stats/healthz of a server
    repro obs summary                       # render a sweep or serve manifest
    repro obs tail <events.jsonl>           # last events of a detector trace
    repro obs diff <a.json> <b.json>        # compare two run manifests
    repro obs top --port 7007               # live serve telemetry (polling)
    repro obs trace export spans.jsonl --chrome  # spans -> chrome://tracing

Global ``--verbose``/``--quiet`` control the ``repro`` logger level
(progress lines go to stderr at INFO).  ``detect``/``score`` accept
``--events FILE`` to record the detector's structured event stream as
JSONL; ``sweep --profiling`` samples wall time and memory per chunk.
See ``docs/observability.md``.

Run ``repro <subcommand> --help`` for each command's options.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.baseline import solve_baseline
from repro.core.config import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.engine import run_detector
from repro.experiments.report import render_table
from repro.obs.bus import JsonlSink
from repro.obs.logsetup import setup_logging
from repro.profiles.callloop import CallLoopTrace
from repro.profiles.io import read_trace, write_trace_binary
from repro.scoring import score_phases, union_phases
from repro.workloads import load_traces, workload, workload_names
from repro.workloads.characteristics import BenchmarkCharacteristics


def _add_detector_arguments(
    parser: argparse.ArgumentParser, cw_required: bool = True
) -> None:
    parser.add_argument(
        "--cw", type=int, required=cw_required, help="current-window size"
    )
    parser.add_argument("--tw", type=int, default=None, help="trailing-window size (default: CW)")
    parser.add_argument("--skip", type=int, default=1, help="skip factor (default 1)")
    parser.add_argument(
        "--trailing", choices=[p.value for p in TrailingPolicy], default="constant"
    )
    parser.add_argument("--anchor", choices=[p.value for p in AnchorPolicy], default="rn")
    parser.add_argument("--resize", choices=[p.value for p in ResizePolicy], default="slide")
    parser.add_argument("--model", choices=[m.value for m in ModelKind], default="unweighted")
    parser.add_argument(
        "--analyzer", choices=[a.value for a in AnalyzerKind], default="threshold"
    )
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument(
        "--family", default="windowed", metavar="NAME",
        help="detector family from the repro.comparators registry "
             "(windowed, focus, newma, das_pearson, lu_dynamo, "
             "dhodapkar_smith; default windowed)",
    )
    parser.add_argument(
        "--stat-threshold", type=float, default=None, metavar="BAR",
        help="changepoint families' decision bar "
             "(default: the family's documented default)",
    )
    parser.add_argument("--newma-fast", type=float, default=0.2,
                        help="NEWMA fast forgetting factor (default 0.2)")
    parser.add_argument("--newma-slow", type=float, default=0.05,
                        help="NEWMA slow forgetting factor (default 0.05)")
    parser.add_argument("--sketch-dim", type=int, default=64,
                        help="NEWMA sketch dimensionality (default 64)")
    parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="record the detector's event stream to FILE as JSONL",
    )


def _config_from_args(args: argparse.Namespace) -> DetectorConfig:
    if args.family != "windowed":
        from repro.comparators import engine_family

        try:
            engine_family(args.family)
        except ValueError as error:
            print(error, file=sys.stderr)
            raise SystemExit(2)
    return DetectorConfig(
        cw_size=args.cw,
        tw_size=args.tw,
        skip_factor=args.skip,
        trailing=TrailingPolicy(args.trailing),
        anchor=AnchorPolicy(args.anchor),
        resize=ResizePolicy(args.resize),
        model=ModelKind(args.model),
        analyzer=AnalyzerKind(args.analyzer),
        threshold=args.threshold,
        delta=args.delta,
        family=args.family,
        stat_threshold=args.stat_threshold,
        newma_fast=args.newma_fast,
        newma_slow=args.newma_slow,
        sketch_dim=args.sketch_dim,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    wl = workload(args.workload)
    branch_trace, call_loop = wl.run(args.scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    branch_path = out / f"{wl.name}.btrace"
    callloop_path = out / f"{wl.name}.cloop"
    write_trace_binary(branch_trace, branch_path)
    call_loop.save(callloop_path)
    print(f"{wl.name}: {len(branch_trace):,} branches, {len(call_loop):,} events")
    print(f"wrote {branch_path} and {callloop_path}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    call_loop = CallLoopTrace.load(args.callloop)
    solution = solve_baseline(call_loop, args.mpl)
    print(
        f"{solution.num_phases} phases, {solution.percent_in_phase:.1f}% in phase "
        f"(MPL={args.mpl}, {solution.num_elements:,} elements)"
    )
    limit = args.limit if args.limit > 0 else solution.num_phases
    for phase in solution.phases[:limit]:
        print(f"  [{phase.start:>9}, {phase.end:>9})  {phase.kind.value}")
    if solution.num_phases > limit:
        print(f"  ... and {solution.num_phases - limit} more")
    return 0


def _run_with_events(trace, config, events_path):
    """Run the engine, optionally recording its event stream as JSONL."""
    if events_path is None:
        return run_detector(trace, config)
    with JsonlSink(events_path) as sink:
        result = run_detector(trace, config, observer=sink)
    print(f"events: {sink.emitted} -> {events_path}")
    return result


def _print_detection(config, result, total: int) -> None:
    print(f"detector: {config.describe()}")
    print(f"{len(result.detected_phases)} phases over {total:,} elements")
    for phase in result.detected_phases:
        print(
            f"  [{phase.detected_start:>9}, {phase.end:>9})  "
            f"anchor-corrected start {phase.corrected_start}"
        )


def _detect_checkpoint(args: argparse.Namespace, trace) -> int:
    """Run detection up to ``--checkpoint-at``, then serialize and stop."""
    from repro.core.stream import StreamingDetector

    config = _config_from_args(args)
    at = args.checkpoint_at
    if at is None or not 0 < at < len(trace):
        print(
            f"--checkpoint needs --checkpoint-at N with 0 < N < {len(trace)} "
            f"(got {at})",
            file=sys.stderr,
        )
        return 1
    streaming = StreamingDetector(config)
    streaming.feed(trace.array[:at])
    path = Path(args.checkpoint)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(streaming.checkpoint()) + "\n", encoding="utf-8")
    print(f"detector: {config.describe()}")
    print(
        f"checkpoint after {streaming.elements_fed:,} of {len(trace):,} "
        f"elements -> {path}"
    )
    print(f"resume with: repro detect {args.trace} --resume {path}")
    return 0


def _detect_resume(args: argparse.Namespace, trace) -> int:
    """Resume a checkpointed detection over the rest of the trace."""
    from repro.core.runtime import CheckpointError
    from repro.core.stream import StreamingDetector

    try:
        data = json.loads(Path(args.resume).read_text(encoding="utf-8"))
        streaming = StreamingDetector.restore(data)
    except (OSError, json.JSONDecodeError, CheckpointError) as error:
        print(f"cannot resume from {args.resume}: {error}", file=sys.stderr)
        return 1
    fed = streaming.elements_fed
    if fed > len(trace):
        print(
            f"checkpoint is {fed:,} elements in but the trace has only "
            f"{len(trace):,}",
            file=sys.stderr,
        )
        return 1
    streaming.feed(trace.array[fed:])
    result = streaming.finish()
    print(f"resumed at element {fed:,} from {args.resume}")
    _print_detection(streaming.config, result, len(trace))
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    if args.resume is not None and args.checkpoint is not None:
        print("--resume and --checkpoint are mutually exclusive", file=sys.stderr)
        return 1
    if args.resume is not None:
        return _detect_resume(args, trace)
    if args.cw is None:
        print("--cw is required (unless resuming with --resume)", file=sys.stderr)
        return 1
    if args.checkpoint is not None:
        return _detect_checkpoint(args, trace)
    config = _config_from_args(args)
    result = _run_with_events(trace, config, args.events)
    _print_detection(config, result, len(trace))
    return 0


def cmd_bank(args: argparse.Namespace) -> int:
    """Benchmark a multi-config DetectorBank against sequential runs."""
    import time

    from repro.core.bank import DetectorBank

    trace = read_trace(args.trace)
    base = _config_from_args(args)
    configs = _bank_variants(base, args.size)
    print(
        f"bank benchmark: {len(configs)} configs over {len(trace):,} elements "
        f"(best of {args.repeats})"
    )

    serial_best = float("inf")
    serial_results = None
    for _ in range(args.repeats):
        started = time.perf_counter()
        results = [run_detector(trace, config) for config in configs]
        serial_best = min(serial_best, time.perf_counter() - started)
        serial_results = results
    bank_best = float("inf")
    bank_results = None
    for _ in range(args.repeats):
        started = time.perf_counter()
        results = DetectorBank(configs).run(trace)
        bank_best = min(bank_best, time.perf_counter() - started)
        bank_results = results

    identical = all(
        a.detected_phases == b.detected_phases and a.config == b.config
        for a, b in zip(serial_results, bank_results)
    )
    speedup = serial_best / bank_best if bank_best > 0 else float("inf")
    print(f"  sequential: {serial_best:.4f}s ({len(configs)} run_detector calls)")
    print(f"  bank:       {bank_best:.4f}s (single pass)")
    print(f"  speedup:    {speedup:.2f}x; results identical: {identical}")
    return 0 if identical else 1


def _bank_variants(base: DetectorConfig, count: int) -> List[DetectorConfig]:
    """A deterministic spread of ``count`` configs around ``base``.

    Cycles model x trailing x threshold so the bank exercises mixed
    members the way a sweep grid does.  Non-windowed families have no
    model/trailing axes, so their spread cycles the decision bar
    instead.
    """
    from dataclasses import replace
    from itertools import cycle, islice

    if not base.is_windowed:
        from repro.comparators import engine_family

        spec = engine_family(base.family)
        bar = base.stat_threshold
        if bar is None:
            bar = getattr(spec.build(base), "stat_threshold", 1.0)
        multipliers = (0.75, 0.9, 1.0, 1.1, 1.25, 1.5)
        return [
            replace(base, stat_threshold=bar * multiplier)
            for multiplier in islice(cycle(multipliers), count)
        ]

    variants = [
        (model, trailing, threshold)
        for threshold in (0.4, 0.5, 0.6, 0.7)
        for model in ModelKind
        for trailing in TrailingPolicy
    ]
    return [
        replace(base, model=model, trailing=trailing, threshold=threshold)
        for model, trailing, threshold in islice(cycle(variants), count)
    ]


def cmd_score(args: argparse.Namespace) -> int:
    branch_trace, call_loop = load_traces(args.workload, scale=args.scale)
    oracle = solve_baseline(call_loop, args.mpl)
    config = _config_from_args(args)
    result = _run_with_events(branch_trace, config, args.events)
    truth = union_phases(oracle.intervals())
    n = result.num_elements
    plain = score_phases(union_phases(result.phases()), truth, n)
    corrected = score_phases(result.corrected_phases(), truth, n)
    print(f"workload {args.workload}: {len(branch_trace):,} elements, MPL={args.mpl}")
    print(f"oracle: {oracle.num_phases} phases ({oracle.percent_in_phase:.1f}% in phase)")
    print(f"detector: {config.describe()} -> {len(result.detected_phases)} phases")
    print(f"score:            {plain}")
    print(f"anchor-corrected: {corrected}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.vm.compiler import compile_source
    from repro.vm.profiler import profile_trace, render_profile

    wl = workload(args.workload)
    branch_trace, _ = load_traces(args.workload, scale=args.scale)
    program = compile_source(wl.program_source(args.scale), name=wl.name)
    profile = profile_trace(branch_trace)
    print(f"workload {wl.name} (mirrors {wl.mirrors}):")
    print(render_profile(profile, program, top=args.top))
    return 0


def cmd_characteristics(args: argparse.Namespace) -> int:
    rows = []
    for name in workload_names():
        branch_trace, call_loop = load_traces(name, scale=args.scale)
        row = BenchmarkCharacteristics.of(branch_trace, call_loop)
        rows.append(
            (row.name, row.dynamic_branches, row.loop_executions,
             row.method_invocations, row.recursion_roots)
        )
    print(
        render_table(
            ["Benchmark", "Dynamic Branches", "Loop Executions",
             "Method Invocations", "Recursion Roots"],
            rows,
            title="Table 1(a): Benchmark Characteristics",
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.config_space import PROFILES, family_grid, paper_grid
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.sweep import Sweep

    profile = PROFILES[args.profile]
    jobs = resolve_jobs(args.jobs)
    benchmarks = args.benchmarks or None
    cache_dir = Path(args.cache_dir) if args.cache_dir is not None else None
    tracer = None
    if args.trace is not None:
        from repro.obs.trace import Tracer

        tracer = Tracer()
        if jobs is not None and jobs > 1:
            print("--trace records in-process evaluation only; forcing --jobs 1",
                  file=sys.stderr)
            jobs = 1
    sweep = Sweep(
        profile, cache_dir=cache_dir, benchmarks=benchmarks,
        kernels=not args.no_kernels, tracer=tracer,
    )
    grid = paper_grid(profile)
    if args.families:
        try:
            grid = grid + family_grid(profile, tuple(args.families))
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    records = sweep.ensure(
        grid, progress=not args.quiet, jobs=jobs,
        profiling=args.profiling,
    )
    print(
        f"sweep '{profile.name}': {len(records)} records over "
        f"{len(sweep.benchmarks)} benchmarks (jobs={jobs})"
    )
    print(f"cache: {sweep.cache_path}")
    print(f"manifest: {sweep.manifest_path}")
    print(f"results db: {sweep.db_path}")
    if tracer is not None:
        tracer.save(args.trace)
        print(f"spans: {len(tracer.spans)} -> {args.trace}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.bus import read_events
    from repro.obs.manifest import (
        diff_manifests,
        load_manifest,
        manifest_path_for,
        summarize_manifest,
    )

    def resolve_manifest(path_arg: Optional[str]) -> Path:
        if path_arg is not None:
            path = Path(path_arg)
            if path.suffix == ".jsonl":
                return manifest_path_for(path)
            return path
        from repro.workloads.suite import DEFAULT_CACHE_DIR

        cache_dir = (
            Path(args.cache_dir) if args.cache_dir is not None else DEFAULT_CACHE_DIR
        )
        return cache_dir / f"sweep-{args.profile}.manifest.json"

    if args.obs_command == "summary":
        path = resolve_manifest(args.path)
        if not path.exists():
            print(f"no run manifest at {path} (run `repro sweep` first)",
                  file=sys.stderr)
            return 1
        print(summarize_manifest(load_manifest(path)))
        return 0
    if args.obs_command == "tail":
        events = list(read_events(args.trace, validate=args.validate))
        for event in events[-args.count:] if args.count > 0 else events:
            print(json.dumps(event, separators=(",", ":")))
        return 0
    # diff
    print(diff_manifests(load_manifest(args.old), load_manifest(args.new)))
    return 0


async def _poll_top(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.console import top_frame
    from repro.serve.client import ServeClient

    client = await ServeClient.connect(args.host, args.port)
    try:
        frames = 1 if args.once else args.frames
        emitted = 0
        while True:
            stats = await client.stats()
            print(top_frame(stats), flush=True)
            emitted += 1
            if frames and emitted >= frames:
                return 0
            await asyncio.sleep(args.interval)
    finally:
        await client.aclose()


def cmd_obs_top(args: argparse.Namespace) -> int:
    import asyncio

    try:
        return asyncio.run(_poll_top(args))
    except KeyboardInterrupt:
        return 0
    except (ConnectionRefusedError, OSError) as error:
        print(f"cannot reach server at {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1


def cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import SpanTraceError, chrome_trace, read_spans

    try:
        header, spans = read_spans(args.spans)
    except (OSError, SpanTraceError) as error:
        print(f"cannot read span trace: {error}", file=sys.stderr)
        return 1
    if args.chrome:
        document = chrome_trace(spans)
        rendered = json.dumps(document, indent=2) + "\n"
        if args.out is not None:
            Path(args.out).write_text(rendered, encoding="utf-8")
            print(f"{len(spans)} spans -> {args.out} "
                  f"(open in chrome://tracing or Perfetto)")
        else:
            print(rendered, end="")
        return 0
    print(f"span trace {header.get('trace_id')}: {len(spans)} spans "
          f"({header.get('dropped', 0)} dropped)")
    for span in spans:
        start = float(span.get("start", 0.0))
        end = float(span.get("end", start))
        print(f"  {span.get('name')}: span={span.get('span')} "
              f"parent={span.get('parent')} {(end - start) * 1e3:.3f}ms")
    return 0


async def _fetch_serve_stats(args: argparse.Namespace):
    from repro.serve.client import ServeClient

    client = await ServeClient.connect(args.host, args.port)
    try:
        stats = await client.stats()
        healthz = await client.healthz()
    finally:
        await client.aclose()
    return stats, healthz


def cmd_serve_stats(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.console import render_healthz, render_stats

    try:
        stats, healthz = asyncio.run(_fetch_serve_stats(args))
    except (ConnectionRefusedError, OSError) as error:
        print(f"cannot reach server at {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"stats": stats, "healthz": healthz}, indent=2))
        return 0
    print(render_healthz(healthz))
    print(render_stats(stats))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.server import PhaseServer

    tracer = None
    if args.trace is not None:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    server = PhaseServer(
        spool_dir=Path(args.spool) if args.spool else None,
        max_resident=args.max_resident,
        idle_timeout=args.idle_timeout,
        events=args.events,
        flight_record=Path(args.flight_record) if args.flight_record else None,
        flight_interval=args.flight_interval,
        tracer=tracer,
    )

    async def _run() -> None:
        await server.start(host=args.host, port=args.port)
        print(f"serving on {args.host}:{server.port} "
              f"(max_resident={args.max_resident}, spool={server.spool_dir})",
              file=sys.stderr)
        stop = asyncio.Event()
        # Drain on SIGINT even when the process started with SIGINT
        # ignored, as a non-interactive shell's background jobs do.
        asyncio.get_running_loop().add_signal_handler(signal.SIGINT, stop.set)
        try:
            await stop.wait()
        finally:
            manifest_path = Path(args.manifest) if args.manifest else None
            manifest = await server.drain(manifest_path)
            print(f"drained {len(manifest['sessions'])} sessions",
                  file=sys.stderr)
            if tracer is not None:
                tracer.save(args.trace)
                print(f"spans: {len(tracer.spans)} -> {args.trace}",
                      file=sys.stderr)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import serve_bench

    if args.family != "windowed":
        from repro.comparators import engine_family

        try:
            engine_family(args.family)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    row = serve_bench(
        sessions=args.sessions,
        elements_per_session=args.elements,
        chunk=args.chunk,
        source=args.source,
        scale=args.scale,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        max_resident=args.max_resident,
        seed=args.seed,
        transport=args.transport,
        connections=args.connections,
        verify=not args.no_verify,
        park_sessions=args.park_sessions,
        park_max_resident=args.park_max_resident,
        flight_record=Path(args.flight_record) if args.flight_record else None,
        flight_interval=args.flight_interval,
        family=args.family,
    )
    if args.json:
        Path(args.json).write_text(json.dumps(row, indent=2) + "\n")
    main_row = row["main"]
    print(f"serve-bench: {main_row['sessions']} sessions x "
          f"{args.elements} elements over {args.transport} "
          f"({row['source']} replay, {row['family']} family)")
    print(f"  throughput: {main_row['events_per_sec']:,.0f} elements/sec "
          f"({main_row['elapsed_seconds']:.3f}s)")
    if main_row["latency_p50_ms"] is not None:
        print(f"  chunk latency: p50 {main_row['latency_p50_ms']:.3f} ms, "
              f"p99 {main_row['latency_p99_ms']:.3f} ms")
    if main_row["verified"] is not None:
        print(f"  verified vs offline: {main_row['verified']}"
              + (f" (mismatched: {main_row['mismatched']})"
                 if main_row["mismatched"] else ""))
    parked = row.get("parked")
    if parked is not None:
        print(f"  parked run: {parked['sessions']} sessions, "
              f"{parked['parks']} parks / {parked['rehydrations']} rehydrations, "
              f"verified: {parked['verified']}")
    failed = (main_row.get("verified") is False
              or (parked is not None and parked.get("verified") is False))
    return 1 if failed else 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.experiments.generate import main as generate_main

    forwarded: List[str] = ["--profile", args.profile]
    if args.out is not None:
        forwarded += ["--out", str(args.out)]
    if args.jobs is not None:
        forwarded += ["--jobs", str(args.jobs)]
    if args.families:
        forwarded += ["--families", *args.families]
    return generate_main(forwarded)


def _results_db_path(args: argparse.Namespace) -> Path:
    if getattr(args, "db", None):
        return Path(args.db)
    from repro.workloads.suite import DEFAULT_CACHE_DIR

    cache_dir = (
        Path(args.cache_dir) if args.cache_dir is not None else DEFAULT_CACHE_DIR
    )
    return cache_dir / f"sweep-{args.profile}.sqlite"


def cmd_results(args: argparse.Namespace) -> int:
    from repro.experiments.store import ResultDB, open_readonly

    db_path = _results_db_path(args)
    if args.results_command == "ingest":
        from repro.workloads.suite import DEFAULT_CACHE_DIR

        cache_dir = (
            Path(args.cache_dir) if args.cache_dir is not None else DEFAULT_CACHE_DIR
        )
        cache_path = cache_dir / f"sweep-{args.profile}.jsonl"
        if not cache_path.exists():
            print(f"no record cache at {cache_path} (run `repro sweep` first)",
                  file=sys.stderr)
            return 1
        with ResultDB(db_path) as db:
            ingested = db.sync_from_cache(
                cache_path, args.profile, full=args.rebuild
            )
            total = len(db.load_records(args.profile))
        print(f"ingested {ingested} rows from {cache_path}")
        print(f"{db_path}: {total} records for profile '{args.profile}'")
        return 0
    if not db_path.exists():
        print(f"no result database at {db_path} "
              f"(run `repro sweep` or `repro results ingest` first)",
              file=sys.stderr)
        return 1
    if args.results_command == "query":
        where = {}
        for dim in ("benchmark", "family", "model", "analyzer", "anchor", "resize"):
            value = getattr(args, dim, None)
            if value is not None:
                where[dim] = value
        if args.mpl is not None:
            where["mpl_nominal"] = args.mpl
        if args.cw is not None:
            where["cw_nominal"] = args.cw
        with ResultDB(db_path) as db:
            try:
                columns, rows = db.best_scores(
                    args.profile, by=tuple(args.by), metric=args.metric,
                    where=where or None, limit=args.limit,
                )
            except ValueError as error:
                print(error, file=sys.stderr)
                return 2
        if args.json:
            for row in rows:
                print(json.dumps(dict(zip(columns, row))))
        else:
            rendered = [
                tuple(
                    f"{value:.4f}" if isinstance(value, float) else str(value)
                    for value in row
                )
                for row in rows
            ]
            print(render_table(columns, rendered,
                               title=f"best {args.metric} per "
                                     f"{' x '.join(args.by)}"))
            print(f"({len(rows)} groups, profile '{args.profile}')")
        return 0
    if args.results_command == "render":
        from repro.experiments.config_space import PROFILES
        from repro.experiments.generate import render_from_records

        with ResultDB(db_path) as db:
            records = db.load_records(args.profile)
            benchmarks = db.benchmarks(args.profile)
        if not records:
            print(f"{db_path}: no records for profile '{args.profile}'",
                  file=sys.stderr)
            return 1
        out_dir = Path(args.out) if args.out is not None else None
        artifacts = render_from_records(
            records, benchmarks, PROFILES[args.profile], out_dir=out_dir
        )
        if out_dir is not None:
            print(f"wrote {len(artifacts)} artifacts to {out_dir}")
        else:
            for name in sorted(artifacts):
                print(artifacts[name])
                print()
        return 0
    if args.results_command == "runs":
        with ResultDB(db_path) as db:
            runs = db.runs()
        for run in runs:
            print(json.dumps(run))
        if not runs:
            print("(no runs recorded)", file=sys.stderr)
        return 0
    # sql — ad-hoc read-only queries
    connection = open_readonly(db_path)
    try:
        try:
            cursor = connection.execute(args.statement)
        except Exception as error:  # sqlite3.Error: surface and fail
            print(error, file=sys.stderr)
            return 2
        if cursor.description is not None:
            columns = [desc[0] for desc in cursor.description]
            for row in cursor:
                print(json.dumps(dict(zip(columns, row))))
    finally:
        connection.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online Phase Detection Algorithms (CGO 2006) reproduction",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more logging (DEBUG); repeatable",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0, dest="quiet_global",
        help="less logging (warnings only)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    trace_parser = subparsers.add_parser("trace", help="run a workload, save its traces")
    trace_parser.add_argument("workload", choices=workload_names())
    trace_parser.add_argument("--scale", type=float, default=1.0)
    trace_parser.add_argument("--out", default="traces")
    trace_parser.set_defaults(handler=cmd_trace)

    oracle_parser = subparsers.add_parser("oracle", help="solve the baseline for a call-loop trace")
    oracle_parser.add_argument("callloop", help="a .cloop file")
    oracle_parser.add_argument("--mpl", type=int, required=True)
    oracle_parser.add_argument("--limit", type=int, default=20, help="phases to print (0 = all)")
    oracle_parser.set_defaults(handler=cmd_oracle)

    detect_parser = subparsers.add_parser("detect", help="run one detector over a branch trace")
    detect_parser.add_argument("trace", help="a .btrace or .trace file")
    _add_detector_arguments(detect_parser, cw_required=False)
    detect_parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="suspend: write a versioned JSON checkpoint to FILE and stop "
             "(requires --checkpoint-at; see docs/formats.md)",
    )
    detect_parser.add_argument(
        "--checkpoint-at", type=int, default=None, metavar="N",
        help="take the checkpoint after N elements",
    )
    detect_parser.add_argument(
        "--resume", default=None, metavar="FILE",
        help="resume a detection from a checkpoint FILE "
             "(detector options come from the checkpoint)",
    )
    detect_parser.set_defaults(handler=cmd_detect)

    bank_parser = subparsers.add_parser(
        "bank", help="benchmark a multi-config DetectorBank vs sequential runs"
    )
    bank_parser.add_argument("trace", help="a .btrace or .trace file")
    _add_detector_arguments(bank_parser)
    bank_parser.add_argument(
        "--size", type=int, default=16, help="bank member count (default 16)"
    )
    bank_parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best-of (default 3)"
    )
    bank_parser.set_defaults(handler=cmd_bank)

    score_parser = subparsers.add_parser("score", help="score a detector against the oracle")
    score_parser.add_argument("workload", choices=workload_names())
    score_parser.add_argument("--scale", type=float, default=1.0)
    score_parser.add_argument("--mpl", type=int, required=True)
    _add_detector_arguments(score_parser)
    score_parser.set_defaults(handler=cmd_score)

    profile_parser = subparsers.add_parser(
        "profile", help="hot-branch profile of a workload's trace"
    )
    profile_parser.add_argument("workload", choices=workload_names())
    profile_parser.add_argument("--scale", type=float, default=1.0)
    profile_parser.add_argument("--top", type=int, default=10)
    profile_parser.set_defaults(handler=cmd_profile)

    characteristics_parser = subparsers.add_parser(
        "characteristics", help="print Table 1(a) for the workload suite"
    )
    characteristics_parser.add_argument("--scale", type=float, default=1.0)
    characteristics_parser.set_defaults(handler=cmd_characteristics)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run (or warm) the parameter sweep record cache"
    )
    sweep_parser.add_argument("--profile", default="default")
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS, else all cores)",
    )
    sweep_parser.add_argument(
        "--benchmarks",
        nargs="+",
        choices=workload_names(),
        default=None,
        help="subset of workloads (default: all eight)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None, help="trace/record cache directory"
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress progress on stderr"
    )
    sweep_parser.add_argument(
        "--profiling", action="store_true",
        help="sample wall time and tracemalloc peak per work chunk",
    )
    sweep_parser.add_argument(
        "--no-kernels", action="store_true",
        help="disable the vectorized detector kernels and use the "
             "incremental fused loop everywhere (same records, slower)",
    )
    sweep_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record sweep/bank/kernel spans to FILE as JSONL "
             "(forces --jobs 1; export with `repro obs trace export`)",
    )
    sweep_parser.add_argument(
        "--families", nargs="+", default=None, metavar="NAME",
        help="also sweep these detector families (focus, newma, ...) — "
             "appends their grid points to the paper grid",
    )
    sweep_parser.set_defaults(handler=cmd_sweep)

    obs_parser = subparsers.add_parser(
        "obs", help="inspect run manifests and event traces"
    )
    obs_subparsers = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_summary = obs_subparsers.add_parser(
        "summary", help="render a sweep's run manifest"
    )
    obs_summary.add_argument(
        "path", nargs="?", default=None,
        help="a .manifest.json (or its sweep .jsonl cache); "
             "default: resolved from --profile/--cache-dir",
    )
    obs_summary.add_argument("--profile", default="default")
    obs_summary.add_argument("--cache-dir", default=None)
    obs_summary.set_defaults(handler=cmd_obs)

    obs_tail = obs_subparsers.add_parser(
        "tail", help="print the last events of a JSONL event trace"
    )
    obs_tail.add_argument("trace", help="an events .jsonl file")
    obs_tail.add_argument(
        "-n", "--count", type=int, default=10, help="events to print (0 = all)"
    )
    obs_tail.add_argument(
        "--validate", action="store_true", help="check events against the schema"
    )
    obs_tail.set_defaults(handler=cmd_obs)

    obs_diff = obs_subparsers.add_parser(
        "diff", help="compare two run manifests"
    )
    obs_diff.add_argument("old", help="baseline manifest .json")
    obs_diff.add_argument("new", help="comparison manifest .json")
    obs_diff.set_defaults(handler=cmd_obs)

    obs_top = obs_subparsers.add_parser(
        "top", help="live serve telemetry: poll a server's stats verb"
    )
    obs_top.add_argument("--host", default="127.0.0.1")
    obs_top.add_argument("--port", type=int, required=True)
    obs_top.add_argument("--interval", type=float, default=1.0,
                         help="seconds between polls (default 1)")
    obs_top.add_argument("--frames", type=int, default=0,
                         help="frames to print before exiting (0 = forever)")
    obs_top.add_argument("--once", action="store_true",
                         help="print one frame and exit")
    obs_top.set_defaults(handler=cmd_obs_top)

    obs_trace = obs_subparsers.add_parser(
        "trace", help="inspect or export a span-trace JSONL file"
    )
    obs_trace_sub = obs_trace.add_subparsers(dest="trace_command", required=True)
    obs_trace_export = obs_trace_sub.add_parser(
        "export", help="export spans (--chrome: the Chrome trace-event format)"
    )
    obs_trace_export.add_argument("spans", help="a .spans.jsonl file")
    obs_trace_export.add_argument(
        "--chrome", action="store_true",
        help="emit the Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    obs_trace_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    obs_trace_export.set_defaults(handler=cmd_obs_trace)

    serve_parser = subparsers.add_parser(
        "serve", help="run the streaming phase-detection server (TCP)",
        description="Serve the NDJSON wire protocol (docs/serving.md). Each "
                    "line is applied in arrival order as soon as it is "
                    "whole; a client that stops reading stops being read "
                    "(TCP flow control). SIGINT drains: sessions still open "
                    "are parked and the serve-run manifest is written.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="0 binds an ephemeral port (printed)")
    serve_parser.add_argument("--max-resident", type=int, default=1024,
                              help="sessions kept hydrated before LRU parking")
    serve_parser.add_argument("--idle-timeout", type=float, default=None,
                              help="park sessions idle this many seconds")
    serve_parser.add_argument("--spool", default=None,
                              help="spool directory for parked checkpoints")
    serve_parser.add_argument("--events", choices=["phase", "all"],
                              default="phase",
                              help="serve phase boundaries only, or all events")
    serve_parser.add_argument("--manifest", default=None,
                              help="write the serve-run manifest here on drain")
    serve_parser.add_argument("--flight-record", default=None, metavar="FILE",
                              help="spool interval telemetry samples to FILE "
                                   "as JSONL (see docs/formats.md)")
    serve_parser.add_argument("--flight-interval", type=float, default=None,
                              help="seconds between flight-recorder samples "
                                   "(enables the recorder; default 1 with "
                                   "--flight-record)")
    serve_parser.add_argument("--trace", default=None, metavar="FILE",
                              help="record session-lifecycle spans to FILE "
                                   "as JSONL on drain")
    serve_parser.set_defaults(handler=cmd_serve)

    serve_bench_parser = subparsers.add_parser(
        "serve-bench",
        help="seeded serving load generator + offline verification",
    )
    serve_bench_parser.add_argument("--sessions", type=int, default=1000)
    serve_bench_parser.add_argument("--elements", type=int, default=2000,
                                    help="elements streamed per session")
    serve_bench_parser.add_argument("--chunk", type=int, default=256)
    serve_bench_parser.add_argument("--source", choices=["suite", "synthetic"],
                                    default="suite")
    serve_bench_parser.add_argument("--scale", type=float, default=0.3,
                                    help="suite workload scale")
    serve_bench_parser.add_argument("--cache-dir", default=None)
    serve_bench_parser.add_argument("--transport", choices=["local", "tcp"],
                                    default="local")
    serve_bench_parser.add_argument("--connections", type=int, default=8,
                                    help="wire connections (tcp transport)")
    serve_bench_parser.add_argument("--max-resident", type=int, default=None)
    serve_bench_parser.add_argument("--seed", type=int, default=17)
    serve_bench_parser.add_argument(
        "--family", default="windowed", metavar="NAME",
        help="detector family the generated sessions run "
             "(default windowed; e.g. focus, newma)",
    )
    serve_bench_parser.add_argument("--no-verify", action="store_true",
                                    help="skip the offline byte comparison")
    serve_bench_parser.add_argument("--park-sessions", type=int, default=64,
                                    help="size of the forced-eviction run "
                                         "(0 skips it)")
    serve_bench_parser.add_argument("--park-max-resident", type=int, default=8)
    serve_bench_parser.add_argument("--json", default=None,
                                    help="also write the full result row here")
    serve_bench_parser.add_argument("--flight-record", default=None,
                                    metavar="FILE",
                                    help="spool the main run's telemetry "
                                         "samples to FILE as JSONL")
    serve_bench_parser.add_argument("--flight-interval", type=float,
                                    default=0.25,
                                    help="seconds between flight samples "
                                         "(default 0.25)")
    serve_bench_parser.set_defaults(handler=cmd_serve_bench)

    serve_stats_parser = subparsers.add_parser(
        "serve-stats",
        help="one-shot stats + healthz of a running phase server",
    )
    serve_stats_parser.add_argument("--host", default="127.0.0.1")
    serve_stats_parser.add_argument("--port", type=int, required=True)
    serve_stats_parser.add_argument("--json", action="store_true",
                                    help="print the raw protocol replies")
    serve_stats_parser.set_defaults(handler=cmd_serve_stats)

    generate_parser = subparsers.add_parser(
        "generate", help="regenerate every table and figure"
    )
    generate_parser.add_argument("--profile", default="default")
    generate_parser.add_argument("--out", default=None)
    generate_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_JOBS, else all cores)",
    )
    generate_parser.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="NAME",
        help="detector families to add (cross-family table/figure)",
    )
    generate_parser.set_defaults(handler=cmd_generate)

    results_parser = subparsers.add_parser(
        "results", help="query the SQLite sweep result database"
    )
    results_subparsers = results_parser.add_subparsers(
        dest="results_command", required=True
    )

    def _add_db_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--profile", default="default")
        sub.add_argument(
            "--cache-dir", default=None,
            help="cache directory holding sweep-<profile>.sqlite",
        )
        sub.add_argument(
            "--db", default=None,
            help="explicit database path (overrides --profile/--cache-dir)",
        )

    results_query = results_subparsers.add_parser(
        "query",
        help="best score per combination of grid dimensions",
    )
    _add_db_arguments(results_query)
    results_query.add_argument(
        "--by", nargs="+", default=["family"], metavar="DIM",
        help="group-by dimensions: benchmark, family, cw_nominal, model, "
             "analyzer, anchor, resize, mpl_nominal (default: family)",
    )
    results_query.add_argument(
        "--metric", default="score",
        help="metric to maximize: score, corrected_score, correlation, "
             "sensitivity, false_positives (default: score)",
    )
    results_query.add_argument("--benchmark", default=None, help="filter")
    results_query.add_argument("--family", default=None, help="filter")
    results_query.add_argument("--model", default=None, help="filter")
    results_query.add_argument("--analyzer", default=None,
                               help="filter (label form, e.g. 'thr=0.6')")
    results_query.add_argument("--anchor", default=None, help="filter")
    results_query.add_argument("--resize", default=None, help="filter")
    results_query.add_argument("--mpl", type=int, default=None,
                               help="filter on mpl_nominal")
    results_query.add_argument("--cw", type=int, default=None,
                               help="filter on cw_nominal")
    results_query.add_argument("--limit", type=int, default=None)
    results_query.add_argument("--json", action="store_true",
                               help="one JSON object per group")
    results_query.set_defaults(handler=cmd_results)

    results_render = results_subparsers.add_parser(
        "render",
        help="regenerate Tables 2(a)-2(b) and Figures 4-8 from the database",
    )
    _add_db_arguments(results_render)
    results_render.add_argument(
        "--out", default=None, help="directory for rendered .txt artifacts"
    )
    results_render.set_defaults(handler=cmd_results)

    results_ingest = results_subparsers.add_parser(
        "ingest",
        help="sync the JSONL record cache into the database",
    )
    _add_db_arguments(results_ingest)
    results_ingest.add_argument(
        "--rebuild", action="store_true",
        help="drop the profile's rows and re-read the whole cache",
    )
    results_ingest.set_defaults(handler=cmd_results)

    results_runs = results_subparsers.add_parser(
        "runs", help="list recorded sweep runs (JSONL)"
    )
    _add_db_arguments(results_runs)
    results_runs.set_defaults(handler=cmd_results)

    results_sql = results_subparsers.add_parser(
        "sql", help="run one read-only SQL statement (JSONL rows)"
    )
    _add_db_arguments(results_sql)
    results_sql.add_argument("statement", help="e.g. 'SELECT ... FROM record_view'")
    results_sql.set_defaults(handler=cmd_results)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbosity=args.verbose - args.quiet_global)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
