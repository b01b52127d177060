"""Hypothesis: an observer's ``kinds`` changes what it is handed, nothing else.

Every registered family — the windowed runtime (both models, both TW
policies, both analyzers) and FOCuS, NEWMA, Das Pearson and Lu DYNAMO —
at skip 1 and skip 3, streamed at random cuts and parked / rehydrated
at random points, exactly as a serving session drives it:

- a phase-only :class:`~repro.serve.session.PhaseEventObserver`
  receives the all-kinds stream filtered to its kinds, byte-identical
  as JSON;
- states, phases (float bits) and every checkpoint are identical with
  no observer, a phase-only one, an all-kinds one, and one declaring
  any subset of :data:`~repro.obs.events.EVENT_TYPES`;
- an observer that declares ``kinds`` and filters nothing itself is
  never handed an event type it did not declare — the loops skip
  building the rest.

The same holds for a whole-trace ``run()``, whose ``run_begin`` /
``run_end`` go through the same rule.
"""

import json
from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.comparators import engine_family
from repro.core.config import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.decision import build_engine
from repro.core.stream import StreamingDetector
from repro.obs.events import EVENT_TYPES
from repro.profiles.trace import BranchTrace
from repro.serve.session import PHASE_EVENT_KINDS, PhaseEventObserver

elements = st.integers(min_value=0, max_value=12)
skips = st.sampled_from([1, 3])

windowed_configs = st.builds(
    DetectorConfig,
    cw_size=st.integers(min_value=2, max_value=10),
    tw_size=st.one_of(st.none(), st.integers(min_value=2, max_value=10)),
    skip_factor=skips,
    trailing=st.sampled_from(TrailingPolicy),
    anchor=st.sampled_from(AnchorPolicy),
    resize=st.sampled_from(ResizePolicy),
    model=st.sampled_from(ModelKind),
    analyzer=st.sampled_from(AnalyzerKind),
    threshold=st.floats(min_value=0.3, max_value=0.8),
    delta=st.floats(min_value=0.0, max_value=0.3),
)

family_configs = st.sampled_from(
    ["focus", "newma", "das_pearson", "lu_dynamo"]
).flatmap(
    lambda name: st.builds(
        lambda cw, bar, skip: replace(
            engine_family(name).default_config(),
            cw_size=cw,
            stat_threshold=bar,
            skip_factor=skip,
        ),
        st.integers(min_value=2, max_value=24),
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=8.0)),
        skips,
    )
)

configs = st.one_of(windowed_configs, family_configs)

subsets = st.frozensets(st.sampled_from(sorted(EVENT_TYPES)))


class Spy:
    """Declares ``kinds`` and records whatever it is handed, unfiltered."""

    def __init__(self, kinds):
        self.kinds = kinds
        self.events = []

    def emit(self, event):
        self.events.append(event)


def dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def phase_bits(phases):
    return [
        (p.detected_start, p.corrected_start, p.end, p.mean_similarity.hex())
        for p in phases
    ]


def stream(config, trace, cuts, parks, observer):
    """Feed ``trace`` cut at ``cuts``, parking after chunk i when
    ``parks[i]``; return (states, phase bits, every checkpoint)."""
    detector = StreamingDetector(config, observer=observer)
    checkpoints = []
    start = 0
    for index, stop in enumerate(sorted(cuts) + [len(trace)]):
        detector.feed(trace[start:stop])
        start = stop
        if parks[index % len(parks)]:
            blob = dumps(detector.checkpoint())
            checkpoints.append(blob)
            detector = StreamingDetector.restore(json.loads(blob), observer=observer)
    result = detector.finish()
    checkpoints.append(dumps(detector.checkpoint()))
    return bytes(result.states), phase_bits(result.detected_phases), checkpoints


def filtered(events, kinds):
    return [event for event in events if event["ev"] in kinds]


@settings(max_examples=150, deadline=None)
@given(
    trace=st.lists(elements, min_size=0, max_size=300),
    config=configs,
    cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=8),
    parks=st.lists(st.booleans(), min_size=1, max_size=9),
    kinds=subsets,
)
def test_kinds_filter_the_stream_and_change_nothing_else(
    trace, config, cuts, parks, kinds
):
    cuts = [min(cut, len(trace)) for cut in cuts]
    everything = Spy(None)
    full = stream(config, trace, cuts, parks, everything)

    served = []
    phase_only = stream(config, trace, cuts, parks, PhaseEventObserver(served.append))
    assert dumps(served) == dumps(filtered(everything.events, PHASE_EVENT_KINDS))

    spy = Spy(kinds)
    declared = stream(config, trace, cuts, parks, spy)
    assert {event["ev"] for event in spy.events} <= kinds
    assert dumps(spy.events) == dumps(filtered(everything.events, kinds))

    unobserved = stream(config, trace, cuts, parks, None)
    assert full == phase_only == declared == unobserved


@settings(max_examples=80, deadline=None)
@given(
    trace=st.lists(elements, min_size=0, max_size=300),
    config=configs,
    kinds=subsets,
)
def test_whole_trace_run_honours_kinds(trace, config, kinds):
    branch = BranchTrace(trace, name="kinds")
    everything = Spy(None)
    full = build_engine(config, observer=everything).run(branch)
    spy = Spy(kinds)
    declared = build_engine(config, observer=spy).run(branch)
    assert dumps(spy.events) == dumps(filtered(everything.events, kinds))
    assert bytes(declared.states) == bytes(full.states)
    assert phase_bits(declared.detected_phases) == phase_bits(full.detected_phases)
