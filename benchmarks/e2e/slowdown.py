"""Check that speed normalization keeps a slowdown of the system under test.

The speed probes (:mod:`speed`) run on the CPUs the system under test
loads, and every gated time and rate is scaled by their rate.  Were the
probes slowed by the system's own load, normalization would absorb part
of a regression.  This check makes the system do a known amount of
extra work and asks whether the normalized metrics show it::

    python3 benchmarks/e2e/slowdown.py --workload sweep-quick [--pairs 6] [--json OUT]

It alternates plain runs with slowed runs of ``BENCHMARK.json``'s
length, swapping which goes first in every other pair.  In a slowed run
the layer that does most of the workload's work spins for an extra
:data:`EXTRA` of its own CPU time after every call: each sweep worker's chunk evaluation
(``repro.experiments.parallel._evaluate_store_chunk``), or the server's
``Session.feed``, ``Session.park`` and ``Session.rehydrate``.  Every
slowed process adds up its spin time in a file, so the share of CPU
time injected is known.  That share predicts a slowed run's
``items_per_cpu_s`` at ``1 - share`` of its plain partner's and, for the
sweeps, whose workers set the wall time, its ``latency_ms`` at
``1 / (1 - share)``.  The serve latency is printed with no
prediction: the session layer is one part of it, beside queueing and
transport.

A row passes when the normalized change is within :data:`TOLERANCE` of
the predicted change.  The probes' speed factors are printed for both
sides.  The exit code is 1 when a row fails.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import WORK, median, use_checkout

HERE = Path(__file__).resolve()
#: Extra CPU time a slowed layer spins for, as a share of its own.
EXTRA = 0.1
#: Seed of the first pair; each pair's two runs share a seed.
SEED = 500
#: How far the normalized change may be from the predicted change, as
#: a share of the prediction.
TOLERANCE = 0.5


class Spin:
    """Extra CPU work after each call of a function, summed per process.

    Calls spin once an arming function has been called, so that work
    done before the measured interval is not slowed.
    """

    def __init__(self, extra: float, directory: Path) -> None:
        self.extra = extra
        self.directory = directory
        self.seconds = 0.0
        self.armed = False

    def wrap(self, function, save_each_call: bool, arms: bool = True):
        @functools.wraps(function)
        def slowed(*args, **kwargs):
            self.armed |= arms
            if not self.armed:
                return function(*args, **kwargs)
            started = time.thread_time()
            try:
                return function(*args, **kwargs)
            finally:
                done = time.thread_time()
                until = done + self.extra * (done - started)
                while time.thread_time() < until:
                    pass
                self.seconds += time.thread_time() - done
                if save_each_call:
                    self.save()

        return slowed

    def save(self) -> None:
        (self.directory / f"spin-{os.getpid()}.txt").write_text(repr(self.seconds))


def sweep_child(extra: float, directory: Path, argv: List[str]) -> None:
    """``sweeps.py child ...`` with every chunk evaluation slowed.

    The pool's workers are forked from this process, so they inherit the
    wrapped function; pickling finds it under the original's name.
    """
    from repro.experiments import parallel

    import sweeps

    spin = Spin(extra, directory)
    parallel._evaluate_store_chunk = spin.wrap(parallel._evaluate_store_chunk,
                                               save_each_call=True)
    print(json.dumps(sweeps.child(argv[1], Path(argv[2]), argv[3:])))


def server(extra: float, directory: Path, argv: List[str]) -> int:
    """``repro`` with the session layer slowed; the total is saved at exit.

    The first ``feed`` arms the spin: the parks made while the sessions
    open come before the measured interval.
    """
    from repro import cli
    from repro.serve.session import Session

    spin = Spin(extra, directory)
    for name in ("feed", "park", "rehydrate"):
        setattr(Session, name, spin.wrap(getattr(Session, name), save_each_call=False,
                                         arms=name == "feed"))
    atexit.register(spin.save)
    return cli.main(argv)


def _summary(result: Dict, spin: float) -> Dict[str, float]:
    """One run's normalized and raw metrics, speed factors and spin share."""
    detail = result["detail"]
    metrics = result["metrics"]
    if "raw_wall_s" in detail:
        records = result["attempted"] / detail["repeats"]
        return {
            "latency_ms": metrics["latency_ms"],
            "items_per_cpu_s": metrics["items_per_cpu_s"],
            "raw.latency_ms": median(detail["raw_wall_s"]) * 1e3,
            "raw.items_per_cpu_s": median([records / c for c in detail["cpu_s"]]),
            "speed.latency_ms": median(detail["speed"]),
            "speed.items_per_cpu_s": median(detail["cpu_speed"]),
            "spin_share": spin / sum(detail["cpu_s"]),
        }
    return {
        "latency_ms": metrics["latency_ms"],
        "items_per_cpu_s": metrics["items_per_cpu_s"],
        "raw.latency_ms": metrics["latency_ms"] / detail["speed"],
        "raw.items_per_cpu_s": metrics["items_per_cpu_s"] * detail["server_cpu_speed"],
        "speed.latency_ms": detail["speed"],
        "speed.items_per_cpu_s": detail["server_cpu_speed"],
        "spin_share": spin / detail["cpu_s"],
    }


def check(workload: str, pairs: int, extra: float, seconds: float, seed: int) -> Dict:
    import bench
    import serving
    import sweeps

    directory = WORK / "slowdown"
    plain = (list(sweeps.CHILD_ENTRY), list(serving.SERVER_ENTRY))
    slowed = ([str(HERE), "sweep", str(extra), str(directory)],
              [str(HERE), "serve", str(extra), str(directory)])
    runs: Dict[str, List[Dict[str, float]]] = {"plain": [], "slowed": []}
    try:
        for pair in range(pairs):
            for side in ("plain", "slowed") if pair % 2 == 0 else ("slowed", "plain"):
                shutil.rmtree(directory, ignore_errors=True)
                directory.mkdir(parents=True)
                sweeps.CHILD_ENTRY, serving.SERVER_ENTRY = (
                    plain if side == "plain" else slowed)
                result = bench.measure(workload, seed + pair, seconds, traced=False)
                if not result["correct"]:
                    raise RuntimeError(f"{side} run of {workload} failed "
                                       f"{result['failed']} of {result['attempted']}")
                spin = sum(float(path.read_text())
                           for path in directory.glob("spin-*.txt"))
                runs[side].append(_summary(result, spin))
                print(f"  pair {pair} {side:<6} " + " ".join(
                    f"{name}={value:.5g}" for name, value in runs[side][-1].items()),
                    flush=True)
    finally:
        sweeps.CHILD_ENTRY, serving.SERVER_ENTRY = plain
    share = median([run["spin_share"] for run in runs["slowed"]])
    return {"workload": workload, "pairs": pairs, "extra": extra, "seconds": seconds,
            "seed": seed, "spin_share": share,
            "metrics": verdicts(runs, share, workload in sweeps.WORKLOADS), "runs": runs}


def verdicts(runs: Dict[str, List[Dict[str, float]]], share: float,
             sweep: bool) -> Dict[str, Dict]:
    """Per metric, the median over pairs of slowed / plain, against the prediction.

    The two runs of a pair ran back to back, so their ratio cancels most
    of the host's drift between pairs.
    """
    predicted = {"items_per_cpu_s": 1 - share}
    if sweep:
        predicted["latency_ms"] = 1 / (1 - share)
    rows = {}
    for name in ("latency_ms", "items_per_cpu_s"):
        ratio = {key: median([slowed[key] / plain[key]
                              for plain, slowed in zip(runs["plain"], runs["slowed"])])
                 for key in (name, f"raw.{name}", f"speed.{name}")}
        row = {"normalized": ratio[name], "raw": ratio[f"raw.{name}"],
               "speed": ratio[f"speed.{name}"], "predicted": predicted.get(name)}
        if row["predicted"] is not None:
            row["ok"] = (abs(row["normalized"] - row["predicted"])
                         <= TOLERANCE * abs(row["predicted"] - 1))
        rows[name] = row
    return rows


def main(argv: List[str]) -> int:
    if argv[:1] in (["sweep"], ["serve"]):
        extra, directory = float(argv[1]), Path(argv[2])
        if argv[0] == "sweep":
            sweep_child(extra, directory, argv[3:])
            return 0
        return server(extra, directory, argv[3:])
    import bench

    benchmark = json.loads(bench.BENCHMARK_PATH.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="append the outcome as one JSON line to OUT")
    args = parser.parse_args(argv)
    use_checkout()
    outcome = check(args.workload, args.pairs, EXTRA, benchmark["run_seconds"], SEED)
    print(f"{args.workload}: spin added {outcome['spin_share']:.1%} of the slowed "
          "runs' CPU time; median over pairs of slowed / plain:")
    for name, row in outcome["metrics"].items():
        expected = ("-" if row["predicted"] is None
                    else f"{row['predicted']:.3f} {'ok' if row['ok'] else 'FAILED'}")
        print(f"  {name:<16} normalized {row['normalized']:.3f}  raw {row['raw']:.3f}"
              f"  speed factor {row['speed']:.3f}  predicted {expected}")
    if args.json:
        with open(args.json, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(outcome) + "\n")
    return 0 if all(row.get("ok", True) for row in outcome["metrics"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
