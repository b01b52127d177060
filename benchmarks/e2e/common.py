"""Paths and process environment shared by the benchmark's modules.

Everything the benchmark writes lives under ``.bench_e2e/`` at the root
of the checkout it runs from; children get ``src/`` on their import
path and every ``REPRO_*`` switch removed, so each run measures the
system's default paths.
"""

from __future__ import annotations

import os
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK = ROOT / ".bench_e2e"
TRACE_CACHE = WORK / "traces"
#: Niceness of the system under test: the speed probes on its CPUs must
#: neither wait for it nor be preempted by it (see :mod:`speed`).
LOW_PRIORITY = 19


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_CACHE"] = str(TRACE_CACHE)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def use_checkout() -> None:
    """Point this process at the checkout's sources and work directory.

    Runs before anything imports :mod:`repro` (whose trace-cache default
    is read at import time) or :mod:`tempfile`.
    """
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(child_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def pinned(cpu: int):
    """Run this process on ``cpu`` only, inside the block."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
