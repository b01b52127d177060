"""Property-based tests of the accuracy metric's invariants, and of
the scorer against the literal transcription in ``section32``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.scoring.boundaries import BaselinePhaseIndex
from repro.scoring.metric import score_intervals, score_phases, score_states
from repro.scoring.states import phases_from_states, states_from_phases
from tests.scoring import section32

state_arrays = st.lists(st.booleans(), min_size=0, max_size=200).map(
    lambda bits: np.array(bits, dtype=bool)
)


@st.composite
def paired_states(draw):
    length = draw(st.integers(min_value=0, max_value=200))
    detected = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    baseline = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    return np.array(detected, dtype=bool), np.array(baseline, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(pair=paired_states())
def test_score_components_bounded(pair):
    detected, baseline = pair
    result = score_states(detected, baseline)
    assert 0.0 <= result.score <= 1.0
    assert 0.0 <= result.correlation <= 1.0
    assert 0.0 <= result.sensitivity <= 1.0
    assert 0.0 <= result.false_positives <= 1.0
    assert result.num_matched_phases <= result.num_detected_phases
    assert result.num_matched_phases <= result.num_baseline_phases


@settings(max_examples=200, deadline=None)
@given(states=state_arrays)
def test_self_comparison_is_perfect(states):
    result = score_states(states, states.copy())
    assert result.score == 1.0
    assert result.correlation == 1.0
    assert result.sensitivity == 1.0
    assert result.false_positives == 0.0


@settings(max_examples=200, deadline=None)
@given(pair=paired_states())
def test_matched_pairs_satisfy_constraints(pair):
    detected_states, baseline_states = pair
    detected = phases_from_states(detected_states)
    baseline = phases_from_states(baseline_states)
    length = detected_states.size
    matching = BaselinePhaseIndex(baseline, length).match(detected)
    # The literal constraints 1-3 over every pair pick the same pairs.
    assert list(matching.pairs) == section32.matched_pairs(detected, baseline, length)


@settings(max_examples=200, deadline=None)
@given(states=state_arrays)
def test_phase_state_round_trip(states):
    phases = phases_from_states(states)
    rebuilt = states_from_phases(phases, states.size)
    assert np.array_equal(rebuilt, states)
    # Runs are maximal: consecutive phases never touch.
    for (s1, e1), (s2, e2) in zip(phases, phases[1:]):
        assert e1 < s2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scorer_and_wrappers_equal_brute_force(data):
    n = data.draw(st.integers(0, 40))
    lanes = data.draw(st.lists(section32.interval_lists(n), min_size=1, max_size=3))
    bases = data.draw(st.lists(section32.interval_lists(n), min_size=1, max_size=3))
    grid = score_intervals(lanes, bases, n)
    for lane, row in zip(lanes, grid):
        for base, got in zip(bases, row):
            assert got == section32.score(lane, base, n)
    assert score_phases(lanes[0], bases[0], n) == grid[0][0]
