"""Run manifests: what a sweep run did, written next to its cache.

Every ``Sweep.ensure`` writes (atomically, via rename) a JSON manifest
beside the record cache — ``sweep-<profile>.jsonl`` gets
``sweep-<profile>.manifest.json`` — recording:

- the configuration fingerprint (per-benchmark trace fingerprints plus
  a hash of the evaluated grid), so a manifest is checkable against the
  cache it describes;
- the environment (interpreter, platform, CPU count);
- how the run executed: jobs, elapsed wall time, records evaluated vs
  served from cache;
- per-worker accounting — one entry per worker process with its chunk,
  config and record counts, which must sum to the run's evaluated
  records (the invariant ``repro obs summary`` surfaces and the tests
  enforce);
- a metrics snapshot (see :mod:`repro.obs.metrics`) merged across all
  workers, and any chunk profiles from ``--profiling`` mode.

The format is versioned and documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

PathLike = Union[str, os.PathLike]

__all__ = [
    "MANIFEST_VERSION",
    "build_manifest",
    "diff_manifests",
    "environment_info",
    "load_manifest",
    "manifest_path_for",
    "summarize_manifest",
    "summarize_serve_manifest",
    "write_manifest",
]

MANIFEST_VERSION = 1


def environment_info() -> Dict[str, object]:
    """The host/interpreter facts a perf number is meaningless without."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def manifest_path_for(cache_path: PathLike) -> Path:
    """``<dir>/sweep-default.jsonl`` -> ``<dir>/sweep-default.manifest.json``."""
    cache_path = Path(cache_path)
    return cache_path.with_name(cache_path.stem + ".manifest.json")


def build_manifest(
    profile: str,
    benchmarks: List[str],
    fingerprints: Dict[str, str],
    grid_fingerprint: str,
    mpl_nominals: List[int],
    jobs: int,
    elapsed_seconds: float,
    records_evaluated: int,
    records_total: int,
    workers: List[Dict[str, object]],
    metrics: Dict[str, Dict[str, object]],
    chunk_profiles: Optional[List[Dict[str, object]]] = None,
    chunks: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble one run's manifest dict (see module docstring).

    ``chunks`` is the chunk-store accounting of a parallel run
    (planned/reused/evaluated/external counts plus fold counters);
    omitted for serial runs.
    """
    manifest: Dict[str, object] = {
        "version": MANIFEST_VERSION,
        "kind": "sweep-run",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "profile": profile,
        "benchmarks": list(benchmarks),
        "fingerprints": dict(fingerprints),
        "grid_fingerprint": grid_fingerprint,
        "mpl_nominals": list(mpl_nominals),
        "jobs": jobs,
        "elapsed_seconds": round(elapsed_seconds, 6),
        "records": {
            "evaluated": records_evaluated,
            "total": records_total,
        },
        "workers": list(workers),
        "metrics": metrics,
        "chunk_profiles": list(chunk_profiles or []),
        "environment": environment_info(),
    }
    if chunks is not None:
        manifest["chunks"] = dict(chunks)
    return manifest


def write_manifest(manifest: Dict[str, object], path: PathLike) -> Path:
    """Write ``manifest`` to ``path`` atomically (tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n",
                   encoding="utf-8")
    tmp.replace(path)
    return path


def load_manifest(path: PathLike) -> Dict[str, object]:
    """Load a manifest, checking the version field."""
    path = Path(path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or "version" not in manifest:
        raise ValueError(f"{path}: not a run manifest")
    if int(manifest["version"]) > MANIFEST_VERSION:
        raise ValueError(
            f"{path}: manifest version {manifest['version']} is newer than "
            f"supported version {MANIFEST_VERSION}"
        )
    return manifest


def _fmt_bytes(n: Optional[object]) -> str:
    if not isinstance(n, (int, float)) or n is None:
        return "-"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"


def _metrics_sections(metrics: Dict[str, object], lines: List[str]) -> None:
    """Append the counter/timing/histogram sections shared by all kinds."""
    counters = metrics.get("counters", {})
    if counters:
        lines.append("  counters:")
        for name, value in counters.items():  # type: ignore[union-attr]
            lines.append(f"    {name} = {value}")
    timings = metrics.get("timings", {})
    if timings:
        lines.append("  timings:")
        for name, summary in timings.items():  # type: ignore[union-attr]
            count = summary.get("count", 0)
            total_s = float(summary.get("total", 0.0))
            mean = total_s / count if count else 0.0
            lines.append(
                f"    {name}: n={count} total={total_s:.3f}s mean={mean:.4f}s "
                f"min={float(summary.get('min', 0.0)):.4f}s "
                f"max={float(summary.get('max', 0.0)):.4f}s"
            )
    histograms = metrics.get("histograms", {})
    if histograms:
        from repro.obs.metrics import Histogram

        lines.append("  histograms:")
        for name, summary in histograms.items():  # type: ignore[union-attr]
            histogram = Histogram.from_dict(summary)
            p = histogram.percentiles()
            lines.append(
                f"    {name}: n={histogram.count} "
                f"p50={p['p50'] * 1e3:.3f}ms p95={p['p95'] * 1e3:.3f}ms "
                f"p99={p['p99'] * 1e3:.3f}ms max={histogram.maximum * 1e3:.3f}ms"
            )


def summarize_serve_manifest(manifest: Dict[str, object]) -> str:
    """Render a ``serve-run`` manifest: per-session table + metrics."""
    lines: List[str] = []
    env = manifest.get("environment", {})
    sessions: List[Dict[str, object]] = manifest.get("sessions", [])  # type: ignore[assignment]
    elapsed = float(manifest.get("elapsed_seconds", 0.0))
    lines.append(
        f"serve manifest: '{manifest.get('name')}' "
        f"(v{manifest.get('version')}, {manifest.get('created_at')})"
    )
    events_in = sum(int(s.get("events_in", 0)) for s in sessions)
    parks = sum(int(s.get("parks", 0)) for s in sessions)
    rehydrations = sum(int(s.get("rehydrations", 0)) for s in sessions)
    killed = sum(1 for s in sessions if s.get("killed"))
    rate = events_in / elapsed if elapsed > 0 else 0.0
    lines.append(
        f"  run:     {len(sessions)} sessions, {elapsed:.1f}s, "
        f"{events_in:,} events in ({rate:,.0f} ev/s), "
        f"{parks} parks / {rehydrations} rehydrations"
        + (f", {killed} killed" if killed else "")
    )
    lines.append(
        f"  limits:  max_resident={manifest.get('max_resident')}, "
        f"idle_timeout={manifest.get('idle_timeout')}"
    )
    flight_record = manifest.get("flight_record")
    if flight_record:
        lines.append(f"  flight:  {flight_record}")
    lines.append(
        f"  host:    {env.get('implementation')} {env.get('python')} on "  # type: ignore[union-attr]
        f"{env.get('platform')} ({env.get('cpu_count')} cpus)"              # type: ignore[union-attr]
    )
    if sessions:
        lines.append("  sessions:")
        lines.append(
            "    sid              state     events_in  chunks  events_out"
            "  phases  parks  rehydr"
        )
        for record in sessions:
            flags = " killed" if record.get("killed") else ""
            lines.append(
                f"    {str(record.get('sid', '?')):<16} "
                f"{str(record.get('state_at_end', record.get('state', '?'))):<9} "
                f"{int(record.get('events_in', 0)):>9}  "
                f"{int(record.get('chunks_in', 0)):>6}  "
                f"{int(record.get('events_out', 0)):>10}  "
                f"{int(record.get('phases', 0)):>6}  "
                f"{int(record.get('parks', 0)):>5}  "
                f"{int(record.get('rehydrations', 0)):>6}{flags}"
            )
    _metrics_sections(manifest.get("metrics", {}), lines)  # type: ignore[arg-type]
    return "\n".join(lines)


def summarize_manifest(manifest: Dict[str, object]) -> str:
    """Render a manifest as the human-readable ``repro obs summary``.

    Dispatches on the manifest ``kind``: ``sweep-run`` manifests (the
    default) render the grid/worker view, ``serve-run`` manifests (see
    :meth:`repro.serve.server.PhaseServer.manifest`) render a
    per-session table.  Both end with the shared metrics sections,
    including percentile lines for any histogram snapshots.
    """
    if manifest.get("kind") == "serve-run":
        return summarize_serve_manifest(manifest)
    lines: List[str] = []
    records = manifest.get("records", {})
    env = manifest.get("environment", {})
    elapsed = float(manifest.get("elapsed_seconds", 0.0))
    evaluated = int(records.get("evaluated", 0))  # type: ignore[union-attr]
    total = int(records.get("total", 0))          # type: ignore[union-attr]
    lines.append(f"sweep manifest: profile '{manifest.get('profile')}' "
                 f"(v{manifest.get('version')}, {manifest.get('created_at')})")
    benchmarks = manifest.get("benchmarks", [])
    lines.append(
        f"  grid:    {len(benchmarks)} benchmarks x "            # type: ignore[arg-type]
        f"{len(manifest.get('mpl_nominals', []))} MPLs "          # type: ignore[arg-type]
        f"[grid {manifest.get('grid_fingerprint')}]"
    )
    rate = evaluated / elapsed if elapsed > 0 else 0.0
    lines.append(
        f"  run:     jobs={manifest.get('jobs')}, {elapsed:.1f}s, "
        f"{evaluated} records evaluated ({rate:.1f} rec/s), {total} total in cache"
    )
    chunks = manifest.get("chunks")
    if chunks:
        lines.append(
            f"  chunks:  {chunks.get('planned', 0)} planned = "         # type: ignore[union-attr]
            f"{chunks.get('evaluated', 0)} evaluated + "                 # type: ignore[union-attr]
            f"{chunks.get('reused', 0)} reused + "                       # type: ignore[union-attr]
            f"{chunks.get('external', 0)} external; "                    # type: ignore[union-attr]
            f"{chunks.get('folded', 0)} folded "                         # type: ignore[union-attr]
            f"({chunks.get('already_compacted', 0)} already compacted)"  # type: ignore[union-attr]
        )
    lines.append(
        f"  host:    {env.get('implementation')} {env.get('python')} on "  # type: ignore[union-attr]
        f"{env.get('platform')} ({env.get('cpu_count')} cpus)"              # type: ignore[union-attr]
    )
    workers = manifest.get("workers", [])
    if workers:
        lines.append("  workers:")
        worker_sum = 0
        for worker in workers:  # type: ignore[union-attr]
            worker_sum += int(worker.get("records", 0))
            lines.append(
                f"    pid {worker.get('pid')}: {worker.get('chunks')} chunks, "
                f"{worker.get('configs')} configs, {worker.get('records')} records, "
                f"{float(worker.get('wall_seconds', 0.0)):.1f}s busy"
            )
        balance = "account for" if worker_sum == evaluated else "DO NOT ACCOUNT FOR"
        lines.append(
            f"    -> worker records {balance} all {evaluated} evaluated records"
        )
    _metrics_sections(manifest.get("metrics", {}), lines)  # type: ignore[arg-type]
    profiles = manifest.get("chunk_profiles", [])
    if profiles:
        lines.append("  chunk profiles:")
        for prof in profiles:  # type: ignore[union-attr]
            lines.append(
                f"    {prof.get('label')}: {float(prof.get('wall_seconds', 0.0)):.3f}s, "
                f"peak {_fmt_bytes(prof.get('peak_bytes'))}"
            )
    return "\n".join(lines)


def diff_manifests(a: Dict[str, object], b: Dict[str, object]) -> str:
    """Render what changed between two run manifests (a -> b)."""
    lines: List[str] = [
        f"manifest diff: '{a.get('profile')}' {a.get('created_at')} -> "
        f"'{b.get('profile')}' {b.get('created_at')}"
    ]

    def row(label: str, old: object, new: object) -> None:
        if old != new:
            lines.append(f"  {label}: {old} -> {new}")

    row("profile", a.get("profile"), b.get("profile"))
    row("grid_fingerprint", a.get("grid_fingerprint"), b.get("grid_fingerprint"))
    row("jobs", a.get("jobs"), b.get("jobs"))
    a_rec = a.get("records", {})
    b_rec = b.get("records", {})
    row("records.evaluated", a_rec.get("evaluated"), b_rec.get("evaluated"))  # type: ignore[union-attr]
    row("records.total", a_rec.get("total"), b_rec.get("total"))              # type: ignore[union-attr]
    a_elapsed = float(a.get("elapsed_seconds", 0.0))
    b_elapsed = float(b.get("elapsed_seconds", 0.0))
    if a_elapsed and b_elapsed and a_elapsed != b_elapsed:
        change = (b_elapsed - a_elapsed) / a_elapsed * 100.0
        lines.append(
            f"  elapsed_seconds: {a_elapsed:.2f} -> {b_elapsed:.2f} ({change:+.1f}%)"
        )
    for key in ("python", "platform", "machine", "cpu_count"):
        row(f"environment.{key}",
            a.get("environment", {}).get(key),   # type: ignore[union-attr]
            b.get("environment", {}).get(key))   # type: ignore[union-attr]
    a_counters = a.get("metrics", {}).get("counters", {})  # type: ignore[union-attr]
    b_counters = b.get("metrics", {}).get("counters", {})  # type: ignore[union-attr]
    for name in sorted(set(a_counters) | set(b_counters)):
        old, new = a_counters.get(name, 0), b_counters.get(name, 0)
        if old != new:
            lines.append(f"  counter {name}: {old} -> {new}")
    a_bench = {f: v for f, v in a.get("fingerprints", {}).items()}  # type: ignore[union-attr]
    b_bench = {f: v for f, v in b.get("fingerprints", {}).items()}  # type: ignore[union-attr]
    for name in sorted(set(a_bench) | set(b_bench)):
        if a_bench.get(name) != b_bench.get(name):
            lines.append(
                f"  fingerprint {name}: {a_bench.get(name)} -> {b_bench.get(name)}"
            )
    if len(lines) == 1:
        lines.append("  (no differences)")
    return "\n".join(lines)
