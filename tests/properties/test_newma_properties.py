"""Property-based equivalence: NEWMA's vectorized route vs its oracle.

A fresh, unobserved NEWMA engine runs whole traces through the batched
bank advancer (one shared distance series per sketch/EWMA signature,
then a per-lane bar walk).  Its oracle is the engine's own ``step()``
loop (``run(trace, kernels=False)``).  For random and structured
traces — skip factors 1–4 with ragged last groups, warm-ups longer
than the trace, empty and one-element traces — states, phases (phase
means compared by ``float.hex``) and checkpoints must be identical, and
a checkpoint taken after the route must restore into an engine that
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
    family=st.just("newma"),
    # Warm-ups from 2 steps up to longer than any generated trace.
    cw_size=st.integers(min_value=1, max_value=500),
    skip_factor=st.integers(min_value=1, max_value=4),
    stat_threshold=st.one_of(
        st.none(), st.sampled_from([0.1, 0.5, 1.0, 3.0, 4.0, 5.0])
    ),
    newma_fast=st.sampled_from([0.2, 0.3, 0.5]),
    newma_slow=st.sampled_from([0.01, 0.05, 0.1]),
    sketch_dim=st.sampled_from([1, 8, 64]),
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
    """Phased traces exercise entries, exits and bar re-adaptation."""
    phase = list(range(body)) * repeats
    transition = list(range(100, 100 + noise))
    trace = BranchTrace(transition + phase + transition + phase)
    assert_route_matches_step_loop(trace, config)


def test_empty_and_one_element_traces():
    for skip in (1, 2, 3, 4):
        config = DetectorConfig(family="newma", cw_size=1, skip_factor=skip)
        for trace in ([], [7]):
            assert_route_matches_step_loop(BranchTrace(trace), config)


def test_distances_exactly_at_the_bar_stay_in_phase():
    """On a long constant run both EWMAs reach a fixed point before the
    warm-up ends, so every distance equals the running mean with zero
    variance: each one sits exactly on its bar, which counts as phase."""
    config = DetectorConfig(
        family="newma", cw_size=600, newma_fast=0.5, newma_slow=0.1, sketch_dim=8
    )
    trace = BranchTrace([3] * 800 + list(range(40)) + [5] * 800)
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
