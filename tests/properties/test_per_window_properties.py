"""Property-based: the per-window families' online run vs ``window_states``.

Das Pearson and Lu DYNAMO judge each full ``cw_size``-element window
once.  The online ``step()`` loop colours elements after their window
is judged, so window ``k``'s verdict first shows on element
``(k+1)·cw − 1`` — the documented one-window lag — while
``window_states`` colours each window, the partial last one included,
by its own verdict.  Both judge the same full windows in the same order
from a fresh engine, so the verdicts must agree window for window.

A fresh, unobserved engine's ``run()`` takes the vectorized route, a
walk over the steps that complete a window; it must agree with the
``step()`` loop (``run(fused=False)`` and chunked ``advance``) in
states, phases and checkpoints, and its checkpoint must restore into an
engine that continues like the uninterrupted loop.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DetectorConfig
from repro.core.decision import build_engine, restore_engine
from repro.core.kernels import run_bank_batched
from repro.profiles.trace import BranchTrace

FAMILIES = ("das_pearson", "lu_dynamo")

# Few distinct elements keep Pearson's and Lu's statistics lively on
# short windows; skip never exceeds cw, so each group completes at most
# one window and its state is that window's verdict.
configs = st.integers(min_value=1, max_value=24).flatmap(
    lambda cw: st.builds(
        DetectorConfig,
        family=st.sampled_from(FAMILIES),
        cw_size=st.just(cw),
        skip_factor=st.integers(min_value=1, max_value=cw),
        stat_threshold=st.one_of(
            st.none(), st.sampled_from([0.3, 0.8, 0.99, 1.5, 3.0])
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=9), max_size=400),
    config=configs,
)
def test_online_run_lags_window_states_by_one_window(trace, config):
    branch_trace = BranchTrace(trace, name="random")
    online = build_engine(config).run(branch_trace, fused=False).states
    engine = build_engine(config)
    states, statistics = engine.window_states(branch_trace)
    window = config.cw_size
    assert states.shape == online.shape
    assert statistics.shape == (-(-len(trace) // window),)
    for k in range(len(trace) // window):
        assert online[(k + 1) * window - 1] == states[k * window], k
    # One verdict per window span, the partial tail included.
    for start in range(0, len(trace), window):
        span = states[start : start + window]
        assert span.all() or not span.any()
    # window_states runs on a fresh engine and leaves this one untouched.
    assert engine.consumed == 0


#: Streams ending in a 3-element partial window whose verdict differs
#: from the last full window's, in both directions.  Das Pearson: the
#: tail shares nothing with the target / resembles the target the last
#: full window just became.  Lu DYNAMO: the tail is the second window in
#: a row off a constant history, which closes the phase / the first
#: window tested against a history the last full window just filled.
TAIL_CASES = [
    ("das_pearson", 8, [0, 0, 0, 0, 1, 1, 2, 3] * 4 + [7, 8, 9], False),
    ("das_pearson", 8, [0, 0, 0, 0, 1, 1, 2, 3] * 3 + [5, 5, 5, 5, 6, 6, 7, 8]
     + [5, 5, 6], True),
    ("lu_dynamo", 4, [2, 2, 2, 2] * 8 + [40, 40, 40, 40] + [40, 40, 40], False),
    ("lu_dynamo", 4, [2, 2, 2, 2] * 7 + [2, 2, 2], True),
]


@pytest.mark.parametrize(
    "family, window, trace, tail_in_phase",
    TAIL_CASES,
    ids=["das-closes", "das-opens", "lu-closes", "lu-opens"],
)
def test_partial_tail_window_alone_decides_the_last_span(
    family, window, trace, tail_in_phase
):
    branch_trace = BranchTrace(trace, name="tail")
    config = DetectorConfig(cw_size=window, family=family)
    tail = len(trace) - len(trace) % window
    states, _ = build_engine(config).window_states(branch_trace)
    online = build_engine(config).run(branch_trace, fused=False).states
    # The last full window's verdict is the same in both views ...
    assert (states[tail - window : tail] == (not tail_in_phase)).all()
    assert online[tail - 1] == (not tail_in_phase)
    # ... the online run never judges the tail, window_states does.
    assert (online[tail:] == (not tail_in_phase)).all()
    assert (states[tail:] == tail_in_phase).all()
    # Without the tail the last span is the full window's verdict.
    head_states, _ = build_engine(config).window_states(
        BranchTrace(trace[:tail], name="head")
    )
    np.testing.assert_array_equal(head_states, states[:tail])


# -- the vectorized route vs the step() loop ----------------------------------

#: Skip factors past cw_size complete several windows in one step.
route_configs = st.integers(min_value=1, max_value=24).flatmap(
    lambda cw: st.builds(
        DetectorConfig,
        family=st.sampled_from(FAMILIES),
        cw_size=st.just(cw),
        skip_factor=st.integers(min_value=1, max_value=3 * cw + 1),
        stat_threshold=st.one_of(
            st.none(), st.sampled_from([0.3, 0.8, 0.99, 1.0, 1.5, 3.0])
        ),
    )
)

#: Repeated short bodies hold a window statistic steady long enough to
#: open phases (Lu needs seven stable window averages first); a new body
#: breaks them.
segments = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=40),
    ),
    max_size=8,
)


def phase_key(phases):
    return [
        (p.detected_start, p.corrected_start, p.end, float.hex(p.mean_similarity))
        for p in phases
    ]


def checkpoint_bytes(engine):
    return json.dumps(engine.checkpoint(), sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(
    config=route_configs,
    parts=segments,
    shape=st.sampled_from(["short", "multiple", "any"]),
    data=st.data(),
)
def test_route_matches_step_loop_and_chunked_advance(config, parts, shape, data):
    window = config.cw_size
    skip = config.skip_factor
    stream = [element for body, repeats in parts for element in body * repeats]
    if shape == "short":
        stream = stream[: data.draw(st.integers(0, window - 1), label="length")]
    elif shape == "multiple":
        stream = stream[: len(stream) - len(stream) % window]
    trace = BranchTrace(stream, name="segments")

    routed = build_engine(config)
    assert routed.kernel_path() == "vectorized"
    ours = routed.run(trace)
    reference = build_engine(config)
    theirs = reference.run(trace, fused=False)

    # Chunks start on group boundaries; only the last may end mid-group.
    cuts = data.draw(
        st.lists(st.integers(0, len(stream) // skip), max_size=6), label="cuts"
    )
    bounds = sorted({0, len(stream), *(cut * skip for cut in cuts)})
    chunked = build_engine(config)
    states = bytearray(len(stream))
    for start, stop in zip(bounds, bounds[1:]):
        chunked.advance(stream[start:stop], states, start)
    chunked_phases = chunked.finish(len(stream))

    assert np.array_equal(ours.states, theirs.states)
    assert bytes(states) == ours.states.astype(np.uint8).tobytes()
    assert phase_key(ours.detected_phases) == phase_key(theirs.detected_phases)
    assert phase_key(ours.detected_phases) == phase_key(chunked_phases)
    assert checkpoint_bytes(routed) == checkpoint_bytes(reference)
    assert checkpoint_bytes(routed) == checkpoint_bytes(chunked)


@settings(max_examples=120, deadline=None)
@given(
    config=route_configs,
    parts=segments,
    extra=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=120),
)
def test_checkpoint_after_route_restores_and_continues(config, parts, extra):
    """Park the engine right after the route (no ``finish``), restore
    it, and keep streaming: states, phases and the final checkpoint
    equal an engine that stepped through the same groups uninterrupted."""
    stream = [element for body, repeats in parts for element in body * repeats]
    routed = build_engine(config)
    states = run_bank_batched([routed], BranchTrace(stream))[0]
    restored = restore_engine(json.loads(checkpoint_bytes(routed)))
    tail = bytearray(len(extra))
    restored.advance(extra, tail, 0)

    uninterrupted = build_engine(config)
    head = bytearray(len(stream))
    uninterrupted.advance(stream, head, 0)
    assert states.astype(np.uint8).tobytes() == bytes(head)
    rest = bytearray(len(extra))
    uninterrupted.advance(extra, rest, 0)
    assert bytes(tail) == bytes(rest)
    assert checkpoint_bytes(restored) == checkpoint_bytes(uninterrupted)
    total = len(stream) + len(extra)
    assert phase_key(restored.finish(total)) == phase_key(uninterrupted.finish(total))
