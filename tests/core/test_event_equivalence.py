"""Both detector implementations must emit identical event streams.

The optimized engine already matches the reference detector's *output*
bit-for-bit (``tests/properties/test_oracle_harness.py``); observability
extends the contract to the *event stream*: same events, same order,
same payloads.
"""

import pytest

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    PhaseDetector,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.engine import run_detector
from repro.obs.bus import MemorySink
from repro.obs.events import replay_phases, validate_event
from repro.profiles.synthetic import SyntheticTraceBuilder


def gnarly_trace(seed=11):
    builder = SyntheticTraceBuilder(seed=seed)
    builder.add_transition(150)
    first = builder.add_phase(900, body_size=7, noise_rate=0.03)
    builder.add_transition(60)
    builder.add_phase(400, body_size=25)
    builder.add_transition(180)
    builder.add_phase(1_400, pattern_id=first.pattern_id, noise_rate=0.01)
    builder.add_transition(40)
    return builder.build()[0]


TRACE = gnarly_trace()

CONFIGS = [
    DetectorConfig(cw_size=40, threshold=0.6),
    DetectorConfig(cw_size=40, skip_factor=7, threshold=0.6,
                   trailing=TrailingPolicy.ADAPTIVE),
    DetectorConfig(cw_size=60, trailing=TrailingPolicy.ADAPTIVE,
                   anchor=AnchorPolicy.LNN, resize=ResizePolicy.MOVE,
                   threshold=0.55),
    DetectorConfig(cw_size=50, trailing=TrailingPolicy.ADAPTIVE,
                   model=ModelKind.WEIGHTED, analyzer=AnalyzerKind.AVERAGE,
                   delta=0.1),
    DetectorConfig.fixed_interval(64),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
def test_event_streams_identical(config):
    reference_sink = MemorySink()
    engine_sink = MemorySink()
    reference = PhaseDetector(config, observer=reference_sink).run(TRACE)
    engine = run_detector(TRACE, config, observer=engine_sink)

    assert reference_sink.events == engine_sink.events, config.describe()
    for event in engine_sink.events:
        validate_event(event)
    assert replay_phases(engine_sink.events) == engine.detected_phases
    assert replay_phases(reference_sink.events) == reference.detected_phases


def test_observer_none_emits_nothing_and_matches():
    config = CONFIGS[1]
    sink = MemorySink()
    with_events = run_detector(TRACE, config, observer=sink)
    without_events = run_detector(TRACE, config)
    assert with_events.detected_phases == without_events.detected_phases
    assert sink.events  # the observed run did produce a stream
