"""The repository's end-to-end benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 benchmarks/e2e/bench.py --workload sweep-quick --seed 17 \\
        --seconds 22 --trace 0 [--json runs.jsonl]
    python3 benchmarks/e2e/bench.py --seed 17            # every workload
    python3 benchmarks/e2e/bench.py compare parent.jsonl change.jsonl

Without ``--trace`` (or ``--trace 0``) a run prints every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it makes the traced run
and prints every per-layer metric, 0 for a layer the workload does not
use.  Each metric is printed by name with its unit, then the run's
correctness, and the last line is one JSON object::

    {"correct": true, "attempted": 3780, "failed": 0,
     "metrics": {"latency_ms": {"value": 3187.2, "unit": "ms"}, ...}}

The exit code is 1 when any output was wrong.  ``--json`` appends one
line per workload run to a file; ``compare`` reads two such files (the
parent's runs and the change's) and gives each (workload, metric) a
verdict against the bounds in ``BENCHMARK.json``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
from typing import Dict, List, Sequence

from common import ROOT, SRC, use_checkout

BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def _environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    import serving
    import sweeps
    from speed import Probes

    run_id = f"{workload}-{seed}-{os.getpid()}"
    with Probes() as probes:
        if workload in sweeps.WORKLOADS:
            if traced:
                return sweeps.run_traced(workload, seconds, probes, run_id)
            return sweeps.run(workload, seconds, probes)
        if traced:
            return serving.run_traced(workload, seed, seconds, probes, run_id)
        return serving.run(workload, seed, seconds, probes)


def with_units(produced: Dict[str, float], declared: List[Dict], traced: bool) -> Dict:
    """The declared metrics, each with its unit.

    A traced run reports 0 for a layer the workload never calls; an
    end-to-end metric must always be measured.
    """
    names = [entry["name"] for entry in declared]
    unknown = set(produced) - set(names)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    missing = set(names) - set(produced)
    if missing and not traced:
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {
        entry["name"]: {"value": produced.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in declared
    }


def run(args: argparse.Namespace, benchmark: Dict) -> int:
    if not SRC.is_dir():
        print(f"no sources at {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    use_checkout()
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    environment = _environment()
    summaries = []
    for workload in args.workload or [entry["name"] for entry in benchmark["workloads"]]:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        metrics = with_units(result["metrics"], declared, bool(args.trace))
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}) ==")
        for name, metric in metrics.items():
            print(f"  {name:<24} {metric['value']:>16.6g} {metric['unit']}")
        print(f"  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {json.dumps(result['detail'])}")
        summary = {key: result[key] for key in ("correct", "attempted", "failed")}
        summary["metrics"] = metrics
        summaries.append((workload, summary))
        if args.json:
            with open(args.json, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "workload": workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    **summary, "detail": result["detail"], "env": environment,
                }) + "\n")
    if len(summaries) == 1:
        final = summaries[0][1]
    else:
        final = {
            "correct": all(s["correct"] for _, s in summaries),
            "attempted": sum(s["attempted"] for _, s in summaries),
            "failed": sum(s["failed"] for _, s in summaries),
            "metrics": {f"{workload}/{name}": metric
                        for workload, s in summaries
                        for name, metric in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


# -- compare ----------------------------------------------------------------------


def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs (in run order) in which the change reads better than the parent."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """Improved, no worse, regressed or unresolved, by the benchmark's rules.

    Improved: the change wins at least 9 in 10 pairs and the medians
    differ by more than the parent's interquartile range.  Regressed:
    the change's median is worse by more than ``bound`` of the parent's.
    Unresolved: either side spreads wider than ``bound``, unless every
    change run beats every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    pairs = min(len(parent), len(change))
    if wins(parent, change, better) >= 0.9 * pairs and sign * (cm - pm) > p3 - p1:
        return "improved"
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    dominates = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not dominates:
        return "unresolved"
    return "no worse"


def _read_runs(path: str) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(paths: Sequence[str], benchmark: Dict) -> int:
    if len(paths) != 2:
        print("usage: bench.py compare PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    parent_runs, change_runs = (_read_runs(path) for path in paths)
    bounds = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    layers = {entry["name"]: entry for entry in benchmark["per_layer"]}
    keys = sorted({(run["workload"], run["trace"]) for run in parent_runs},
                  key=lambda key: (key[1], key[0]))
    print(f"{'workload':<15} {'metric':<24} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    regressed = False
    for workload, trace in keys:
        sides = [[run for run in runs if run["workload"] == workload
                  and run["trace"] == trace] for runs in (parent_runs, change_runs)]
        if not sides[1]:
            continue
        if len(sides[0]) < 10 or len(sides[1]) < 10:
            print(f"{workload}: {len(sides[0])} parent and {len(sides[1])} change "
                  "runs; a verdict needs at least 10 of each")
        failure = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                   for side in sides]
        if failure[1] > failure[0]:
            regressed = True
            print(f"{workload}: more failures ({failure[1]:.4%} of attempted, "
                  f"parent {failure[0]:.4%})")
        for name, entry in (layers if trace else bounds).items():
            parent, change = ([run["metrics"][name]["value"] for run in side]
                              for side in sides)
            won = wins(parent, change, entry["better"])
            outcome = (verdict(parent, change, entry["better"], entry["bound"])
                       if "bound" in entry else "-")
            regressed |= outcome == "regressed"
            cells = []
            for values in (parent, change):
                q1, q2, q3 = _quartiles(values)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<15} {name:<24} {cells[0]:>34} {cells[1]:>34} "
                  f"{won:>3}/{min(len(parent), len(change)):<2}  {outcome}")
    return 1 if regressed else 0


def main(argv: Sequence[str]) -> int:
    # Unwind on SIGTERM too, so the probes and servers a run started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    benchmark = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    if argv and argv[0] == "compare":
        return compare(argv[1:], benchmark)
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="make the traced run (per-layer metrics)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="append one JSON line per workload run to OUT")
    return run(parser.parse_args(argv), benchmark)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
