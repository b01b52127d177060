"""CPU speed probes, so that timings do not drift with the host.

On a shared host each CPU's speed changes by tens of percent over
seconds to minutes, and the two CPUs of a small VM rarely run at the
same speed.  While a run is measured, one probe process per CPU, pinned
to it, times a fixed pure-Python loop every :data:`PERIOD_S` and appends
``perf_counter() wall_seconds cpu_seconds`` lines to a file.  A probe
costs about 3% of its CPU.

The wall time counts the stretches in which the host runs another
tenant on the CPU, which the probe's CPU time leaves out, as does the
CPU time of the system under test.  So wall times are scaled by the
wall-time rate and CPU-time rates by the CPU-time rate.

The system under test shares the probes' CPUs.  Were a woken probe to
wait for it, or be preempted by it, the probe would read slower as the
system got busier, and normalization would hide part of a slowdown: a
load of 0.25-ms bursts at 40% duty cut the probe's rate by 16% on the
2-vCPU host.  The system therefore runs at the lowest priority
(:data:`common.LOW_PRIORITY`), where the same load left the probe's
rate unchanged.  ``slowdown.py`` checks the result end to end.

:meth:`Probes.factor` is the probe rate on some CPUs over an interval
(loops run over the time they took), relative to :data:`REFERENCE_RATE`.
A time multiplied by the factor (or a rate divided by it) is what it
would have been on a CPU running at the reference speed.

Run ``python speed.py CPU OUT`` to start one probe by hand.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable

from common import WORK, child_env

LOOPS = 20_000
PERIOD_S = 0.05
#: Probe loops per second at the reference speed, a typical rate on the
#: 2-vCPU host the bounds were set on.
REFERENCE_RATE = 700.0
#: Probe samples this long before an interval count towards it, so that
#: a short interval has samples.
MARGIN_S = 0.5


def _loop() -> int:
    total = 0
    for value in range(LOOPS):
        total += value * value
    return total


def probe(cpu: int, out: Path) -> None:
    """Time the loop on ``cpu`` until SIGTERM or until the parent is gone."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    with out.open("w", encoding="utf-8") as handle:
        print("ready", flush=True)
        while not stopping and os.getppid() == parent:
            started = time.perf_counter()
            spent = time.thread_time()
            _loop()
            handle.write(f"{started} {time.perf_counter() - started} "
                         f"{time.thread_time() - spent}\n")
            handle.flush()
            time.sleep(PERIOD_S)


class Probes:
    """One running probe per CPU this process may use."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        directory = WORK / "probes"
        directory.mkdir(parents=True, exist_ok=True)
        self._paths: Dict[int, Path] = {
            cpu: directory / f"cpu{cpu}-{os.getpid()}.txt" for cpu in self.cpus
        }
        self._procs = [
            subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              str(cpu), str(path)],
                             env=child_env(), stdout=subprocess.PIPE, text=True)
            for cpu, path in self._paths.items()
        ]
        try:
            for proc in self._procs:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("speed probe failed to start")
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            proc.wait()
            proc.stdout.close()
        for path in self._paths.values():
            path.unlink(missing_ok=True)

    def factor(self, cpus: Iterable[int], start: float, end: float,
               cpu_time: bool = False) -> float:
        """Probe rate on ``cpus`` over ``[start, end]``, per reference rate.

        The loops the probes ran over the time they took, in wall time or
        with ``cpu_time`` in the probes' CPU time.  A loop the host
        stalled weighs by its whole length, as a stall weighs in any
        time the factor scales; a mean of per-loop rates would let the
        many unstalled loops outvote it.
        """
        column = 2 if cpu_time else 1
        times = []
        for cpu in cpus:
            # The last piece is empty or a line still being written.
            for line in self._paths[cpu].read_text(encoding="utf-8").split("\n")[:-1]:
                fields = line.split()
                if start - MARGIN_S <= float(fields[0]) <= end:
                    times.append(float(fields[column]))
        if not times:
            raise RuntimeError(f"no speed probe samples on CPUs {list(cpus)}")
        return len(times) / sum(times) / REFERENCE_RATE


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} CPU OUT")
    probe(int(sys.argv[1]), Path(sys.argv[2]))
