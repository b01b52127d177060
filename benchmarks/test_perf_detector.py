"""Detector throughput benchmarks and the incremental-maintenance ablation.

Compares the optimized engine against the readable reference
implementation across models and TW policies — quantifying the payoff
of the incremental similarity maintenance DESIGN.md calls out.
"""

import pytest

from repro.core import DetectorConfig, ModelKind, PhaseDetector, TrailingPolicy
from repro.core.engine import run_detector
from repro.profiles.synthetic import SyntheticTraceBuilder


def _trace():
    builder = SyntheticTraceBuilder(seed=17, name="bench")
    for _ in range(5):
        builder.add_transition(400)
        builder.add_phase(6_000, body_size=14, noise_rate=0.01)
    builder.add_transition(400)
    return builder.build()[0]


TRACE = _trace()

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


@pytest.mark.parametrize("label", list(CONFIGS))
def test_engine_throughput(benchmark, label):
    """Optimized engine: elements/second per model x policy."""
    config = CONFIGS[label]
    result = benchmark(run_detector, TRACE, config)
    assert result.states.shape == (len(TRACE),)
    # ``--benchmark-disable`` runs the body once and records no stats.
    if benchmark.stats is not None:
        benchmark.extra_info["elements_per_second"] = round(
            len(TRACE) / benchmark.stats["mean"]
        )


@pytest.mark.parametrize("label", ["unweighted-constant", "weighted-adaptive"])
def test_reference_throughput(benchmark, label):
    """Reference implementation baseline (the ablation's 'naive' side)."""
    config = CONFIGS[label]
    # A fresh detector per round: one detector run again continues its
    # stream, and its result then covers every element it has consumed.
    result = benchmark(lambda: PhaseDetector(config).run(TRACE))
    assert result.states.shape == (len(TRACE),)


def test_skip_equals_window_is_cheap(benchmark):
    """Fixed-Interval detectors do ~1/CW as many similarity evaluations;
    the accuracy cost of that design is Figure 4's subject."""
    config = DetectorConfig.fixed_interval(250)
    benchmark(run_detector, TRACE, config)
