"""The benchmark suite: registry, execution, and on-disk trace caching.

Running a workload through the interpreter costs seconds; the suite
caches both traces on disk keyed by the workload's content fingerprint,
so experiment sweeps and benches pay the interpretation cost once.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import GLOBAL_METRICS
from repro.profiles.callloop import CallLoopTrace
from repro.profiles.io import (
    ensure_codes_sidecar,
    read_trace_binary,
    write_trace_binary,
)
from repro.profiles.trace import BranchTrace
from repro.workloads.base import Workload
from repro.workloads.compress_wl import WORKLOAD as COMPRESS
from repro.workloads.jess_wl import WORKLOAD as JESS
from repro.workloads.raytrace_wl import WORKLOAD as RAYTRACE
from repro.workloads.db_wl import WORKLOAD as DB
from repro.workloads.javac_wl import WORKLOAD as JAVAC
from repro.workloads.mpegaudio_wl import WORKLOAD as MPEGAUDIO
from repro.workloads.jack_wl import WORKLOAD as JACK
from repro.workloads.jlex_wl import WORKLOAD as JLEX

#: The eight benchmarks, in the paper's Table 1 order.
ALL_WORKLOADS: Tuple[Workload, ...] = (
    COMPRESS,
    JESS,
    RAYTRACE,
    DB,
    JAVAC,
    MPEGAUDIO,
    JACK,
    JLEX,
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {wl.name: wl for wl in ALL_WORKLOADS}

#: Default on-disk cache location (overridable via REPRO_TRACE_CACHE).
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_TRACE_CACHE", Path(__file__).resolve().parents[3] / ".trace_cache")
)


def workload(name: str) -> Workload:
    """Look up a workload by name."""
    try:
        return WORKLOADS_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS_BY_NAME))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def workload_names() -> List[str]:
    """All workload names in suite order."""
    return [wl.name for wl in ALL_WORKLOADS]


def load_traces(
    name: str,
    scale: float = 1.0,
    cache_dir: Optional[Path] = None,
) -> Tuple[BranchTrace, CallLoopTrace]:
    """Get (branch trace, call-loop trace) for a workload, using the cache.

    On a cache miss the workload is compiled, interpreted, and both
    traces are written to ``cache_dir`` for next time, together with a
    ``.bcodes`` dense-code sidecar (see ``docs/formats.md``).  On a hit
    the sidecar is adopted (regenerated transparently when missing or
    stale), so callers never pay the per-process ``np.unique`` pass.

    A cached branch trace and its sidecar are returned as read-only
    ``np.memmap`` views over the cache files — concurrent sweep workers
    then share one physical copy of each trace through the OS page cache
    instead of N heap copies.
    """
    wl = workload(name)
    cache_dir = DEFAULT_CACHE_DIR if cache_dir is None else Path(cache_dir)
    fingerprint = wl.fingerprint(scale)
    branch_path = cache_dir / f"{name}-{fingerprint}.btrace"
    callloop_path = cache_dir / f"{name}-{fingerprint}.cloop"
    if branch_path.exists() and callloop_path.exists():
        try:
            branch_trace = read_trace_binary(branch_path, mmap=True)
            call_loop = CallLoopTrace.load(callloop_path)
            GLOBAL_METRICS.counter("io.trace_cache_hits").inc()
            ensure_codes_sidecar(branch_trace, branch_path, mmap=True)
            return branch_trace, call_loop
        except ValueError:
            # A corrupt cache entry (TraceFormatError or a torn .cloop) is
            # a miss: re-run the workload and overwrite the bad files.
            pass
    GLOBAL_METRICS.counter("io.trace_cache_misses").inc()
    with GLOBAL_METRICS.time("io.workload_run_seconds"):
        branch_trace, call_loop = wl.run(scale)
    cache_dir.mkdir(parents=True, exist_ok=True)
    write_trace_binary(branch_trace, branch_path)
    call_loop.save(callloop_path)
    ensure_codes_sidecar(branch_trace, branch_path, mmap=False)
    return branch_trace, call_loop


def load_suite(
    scale: float = 1.0,
    cache_dir: Optional[Path] = None,
    names: Optional[List[str]] = None,
) -> Dict[str, Tuple[BranchTrace, CallLoopTrace]]:
    """Load (running if needed) every workload's traces."""
    selected = names if names is not None else workload_names()
    return {
        name: load_traces(name, scale=scale, cache_dir=cache_dir)
        for name in selected
    }
