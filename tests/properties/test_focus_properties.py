"""Property-based equivalence: FOCuS's vectorized route vs its oracle.

A fresh, unobserved FOCuS engine runs whole traces through the batched
bank advancer (one shared sign table, group values per skip, then a
per-lane walk of the pruned-hull FOCuS0 recursion).  Its oracle is the
engine's own ``step()`` loop (``run(trace, kernels=False)``).  For
random and structured traces — skip factors 1–4 with ragged last
groups, warm-ups longer than the trace, empty and one-element traces,
constant warm-ups (sigma falls back to 1.0) and bars low enough to
reset on the first post-warm-up step — states, phases (phase means
compared by ``float.hex``) and checkpoints must be identical, and a
checkpoint taken after the route must restore into an engine that
continues exactly like an uninterrupted ``step()`` run.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import DetectorConfig
from repro.core.decision import build_engine, restore_engine
from repro.core.kernels import run_bank_batched
from repro.profiles.trace import BranchTrace

elements = st.integers(min_value=0, max_value=12)

configs = st.builds(
    DetectorConfig,
    family=st.just("focus"),
    # Warm-ups from 2 steps up to longer than any generated trace.
    cw_size=st.integers(min_value=1, max_value=500),
    skip_factor=st.integers(min_value=1, max_value=4),
    # 1e-9 resets on any nonzero statistic, so right after each warm-up.
    stat_threshold=st.one_of(
        st.none(), st.sampled_from([1e-9, 0.5, 2.0, 8.0, 16.0, 32.0])
    ),
)


def phase_key(phases):
    return [
        (p.detected_start, p.corrected_start, p.end, float.hex(p.mean_similarity))
        for p in phases
    ]


def checkpoint_bytes(engine):
    return json.dumps(engine.checkpoint(), sort_keys=True)


def assert_route_matches_step_loop(trace, config):
    routed = build_engine(config)
    assert routed.kernel_path() == "vectorized"
    ours = routed.run(trace)
    reference = build_engine(config)
    theirs = reference.run(trace, kernels=False)
    assert np.array_equal(ours.states, theirs.states)
    assert phase_key(ours.detected_phases) == phase_key(theirs.detected_phases)
    assert checkpoint_bytes(routed) == checkpoint_bytes(reference)


@settings(max_examples=150, deadline=None)
@given(trace=st.lists(elements, min_size=0, max_size=400), config=configs)
def test_route_matches_step_loop_on_random_traces(trace, config):
    assert_route_matches_step_loop(BranchTrace(trace), config)


@settings(max_examples=60, deadline=None)
@given(
    body=st.integers(min_value=1, max_value=6),
    repeats=st.integers(min_value=10, max_value=60),
    noise=st.integers(min_value=0, max_value=40),
    config=configs,
)
def test_route_matches_step_loop_on_structured_traces(body, repeats, noise, config):
    """Phased traces exercise changepoints, re-warm-ups and hull resets."""
    phase = list(range(body)) * repeats
    transition = list(range(100, 100 + noise))
    trace = BranchTrace(transition + phase + transition + phase)
    assert_route_matches_step_loop(trace, config)


def test_empty_and_one_element_traces():
    for skip in (1, 2, 3, 4):
        config = DetectorConfig(family="focus", cw_size=1, skip_factor=skip)
        for trace in ([], [7]):
            assert_route_matches_step_loop(BranchTrace(trace), config)


def test_constant_warmup_falls_back_to_unit_sigma():
    """A single repeated element gives a zero-variance warm-up; both
    routes take sigma = 1.0, and the later mixture shift registers."""
    for skip in (1, 3):
        config = DetectorConfig(family="focus", cw_size=60, skip_factor=skip)
        trace = BranchTrace([3] * 200 + list(range(40)) * 5 + [3] * 200)
        assert_route_matches_step_loop(trace, config)


@settings(max_examples=80, deadline=None)
@given(
    trace=st.lists(elements, min_size=0, max_size=300),
    extra=st.lists(elements, min_size=1, max_size=120),
    config=configs,
)
def test_checkpoint_after_route_restores_and_continues(trace, extra, config):
    """Park the engine right after the route (no ``finish``), restore
    it, and keep streaming: states and the final checkpoint equal an
    engine that stepped through the same groups uninterrupted."""
    routed = build_engine(config)
    states = run_bank_batched([routed], BranchTrace(trace))[0]
    restored = restore_engine(json.loads(checkpoint_bytes(routed)))
    tail = bytearray(len(extra))
    restored.advance(extra, tail, 0)

    uninterrupted = build_engine(config)
    head = bytearray(len(trace))
    uninterrupted.advance(trace, head, 0)
    assert np.array_equal(states, np.frombuffer(bytes(head), dtype=bool))
    rest = bytearray(len(extra))
    uninterrupted.advance(extra, rest, 0)
    assert bytes(tail) == bytes(rest)
    assert checkpoint_bytes(restored) == checkpoint_bytes(uninterrupted)
