"""The state-matrix wrappers against the literal transcription in
``section32``.

``score_states_batch`` is the route ``benchmarks/e2e`` scores through,
so every cell must equal ``score_states`` on the same row and the
transcription's score on the rows' P-runs, by ``==`` on every field.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.scoring.boundaries import BaselinePhaseIndex
from repro.scoring.metric import score_states, score_states_batch
from tests.scoring import section32


def check_grid(matrix, bases, overrides=None):
    """Score the bank and compare every cell with both references."""
    rows = overrides or [None] * matrix.shape[0]
    grid = score_states_batch(matrix, bases, detected_phases=overrides)
    n = matrix.shape[1]
    for row, override, scores in zip(matrix, rows, grid):
        matched = section32.runs(row) if override is None else override
        for base, got in zip(bases, scores):
            # Overrides move only the matching; correlation stays on the rows.
            want = section32.score(
                matched, section32.runs(base), n,
                detected_cover=section32.runs(row),
            )
            assert got == want
            assert score_states(row, base, detected_phases=override) == want


@st.composite
def banks(draw):
    """(lanes x N matrix, baseline rows) from drawn interval lists."""
    n = draw(st.integers(0, 40))
    lanes = draw(st.lists(section32.interval_lists(n), min_size=1, max_size=3))
    bases = draw(st.lists(section32.interval_lists(n), min_size=1, max_size=3))
    matrix = np.array([section32.states(lane, n) for lane in lanes]).reshape(len(lanes), n)
    return matrix, [section32.states(base, n) for base in bases]


@settings(max_examples=100, deadline=None)
@given(bank=banks())
def test_batch_matches_scalar_plain(bank):
    check_grid(*bank)


@settings(max_examples=100, deadline=None)
@given(bank=banks(), data=st.data())
def test_batch_matches_scalar_with_corrected_phases(bank, data):
    # Anchor-corrected overrides that need not equal the rows' runs.
    matrix, bases = bank
    n = matrix.shape[1]
    overrides = [data.draw(st.none() | section32.interval_lists(n)) for _ in matrix]
    check_grid(matrix, bases, overrides)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_baseline_index_matches_match_phases(data):
    # Intervals as given, touching and empty ones included.
    n = data.draw(st.integers(0, 40))
    baseline = data.draw(section32.interval_lists(n))
    index = BaselinePhaseIndex(baseline, n)
    for detected in data.draw(st.lists(section32.interval_lists(n), max_size=3)):
        want = section32.matched_pairs(detected, baseline, n)
        assert list(index.match(detected).pairs) == want


def test_all_p_and_empty_phase_edges():
    length = 50
    all_p = np.ones(length, dtype=bool)
    all_t = np.zeros(length, dtype=bool)
    alternating = np.arange(length) % 2 == 0
    check_grid(np.vstack([all_p, all_t, alternating]), [all_p, all_t, alternating])


def test_zero_length_batch():
    check_grid(np.zeros((2, 0), dtype=bool), [np.zeros(0, dtype=bool)])
