"""Smoke test of the end-to-end benchmark at tiny sizes.

Runs every workload once untraced and once traced through
``bench.main`` with one suite program per sweep and 16 serve sessions
for 2 seconds, then checks that each run printed every metric of
``BENCHMARK.json`` with its unit, that its outputs were correct, and
that the traced run's coverage and equality checks passed and its
spans read back with ``repro.obs.trace.read_spans``.  Run it
with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import common  # noqa: E402
import serving  # noqa: E402
import sweeps  # noqa: E402

BENCHMARK = json.loads(bench.BENCHMARK_PATH.read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    saved = dict(os.environ)
    handler = signal.getsignal(signal.SIGTERM)
    monkeypatch.setattr(sweeps, "BENCHMARKS", ["db"])
    monkeypatch.setattr(sweeps, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serving, "WORKLOADS", {
        "serve-steady": serving.Load(sessions=16, rate=20_000, max_resident=64,
                                     round_robin=False),
        "serve-park": serving.Load(sessions=16, rate=20_000, max_resident=4,
                                   round_robin=True),
    })
    yield
    os.environ.clear()
    os.environ.update(saved)
    signal.signal(signal.SIGTERM, handler)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(tiny, capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seed", "5", "--seconds", "2",
                       "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    if trace:
        from repro.obs.trace import read_spans

        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
        saved = sorted((common.WORK / "spans").glob(f"{workload}-5-{os.getpid()}*.jsonl"))
        assert saved
        for path in saved:
            header, spans = read_spans(path)
            assert header["dropped"] == 0 and spans
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep-quick", "serve-steady"])
def test_slowdown_injects_work(tiny, workload):
    import slowdown

    common.use_checkout()
    outcome = slowdown.check(workload, pairs=1, extra=0.5, seconds=1, seed=5)
    assert 0 < outcome["spin_share"] < 0.5
    assert set(outcome["metrics"]) == {"latency_ms", "items_per_cpu_s"}


def test_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert bench.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1) == "regressed"
    assert bench.verdict(parent, [v * 1.3 for v in parent], "higher", 0.1) == "improved"
    assert bench.verdict(parent, list(parent), "higher", 0.1) == "no worse"
    noisy = [60.0, 140.0] * 5
    assert bench.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
