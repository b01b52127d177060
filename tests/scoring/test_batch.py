"""Unit tests for the batched scoring path (score_states_batch)."""

import numpy as np
import pytest

from repro.scoring.boundaries import BaselinePhaseIndex, BoundaryMatching
from repro.scoring.metric import score_states, score_states_batch
from repro.scoring.states import states_from_phases
from tests.scoring import section32


class TestBaselinePhaseIndex:
    def test_matches_scalar_matcher(self):
        baseline = [(10, 40), (60, 90)]
        detected = [(12, 45), (50, 55), (65, 95), (96, 99)]
        index = BaselinePhaseIndex(baseline, 100)
        pairs = tuple(section32.matched_pairs(detected, baseline, 100))
        assert index.match(detected) == BoundaryMatching(pairs, 4, 2)
        assert pairs == ((0, 0), (2, 1))

    def test_last_phase_upper_bound(self):
        # Past the last baseline phase, qualification extends to the
        # trace end (num_elements + 1 exclusive).
        baseline = [(10, 50)]
        detected = [(20, 100)]
        index = BaselinePhaseIndex(baseline, 100)
        assert index.match(detected).pairs == ((0, 0),)

    def test_malformed_baseline_rejected(self):
        with pytest.raises(ValueError, match=r"baseline phase \(30, 20\) is malformed"):
            BaselinePhaseIndex([(30, 20)], 100)

    def test_overlapping_baseline_rejected(self):
        with pytest.raises(ValueError, match="overlap or are unsorted"):
            BaselinePhaseIndex([(0, 30), (20, 50)], 100)

    def test_malformed_detected_rejected(self):
        index = BaselinePhaseIndex([(0, 10)], 100)
        with pytest.raises(ValueError, match=r"detected phase \(9, 3\) is malformed"):
            index.match([(9, 3)])

    def test_empty_sides(self):
        index = BaselinePhaseIndex([], 100)
        assert index.match([(1, 2)]).pairs == ()
        full = BaselinePhaseIndex([(0, 10)], 100)
        assert full.match([]) == BoundaryMatching((), 0, 1)


class TestScoreStatesBatch:
    def test_grid_shape(self):
        matrix = np.zeros((3, 20), dtype=bool)
        grid = score_states_batch(matrix, [np.zeros(20, dtype=bool)] * 2)
        assert len(grid) == 3
        assert all(len(row) == 2 for row in grid)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((4, 200)) < 0.5
        baselines = [rng.random(200) < 0.5 for _ in range(3)]
        grid = score_states_batch(matrix, baselines)
        for lane in range(4):
            for column, base in enumerate(baselines):
                scalar = score_states(matrix[lane], base)
                assert grid[lane][column] == scalar

    def test_length_mismatch_rejected(self):
        # Same error message as the scalar scorer's shape check.
        with pytest.raises(ValueError, match="state arrays differ in length"):
            score_states_batch(
                np.zeros((2, 5), dtype=bool), [np.zeros(6, dtype=bool)]
            )

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            score_states_batch(np.zeros(5, dtype=bool), [np.zeros(5, dtype=bool)])

    def test_override_count_mismatch_rejected(self):
        matrix = np.zeros((2, 5), dtype=bool)
        with pytest.raises(ValueError, match="detected_phases"):
            score_states_batch(
                matrix, [np.zeros(5, dtype=bool)], detected_phases=[None]
            )
        with pytest.raises(ValueError, match="baseline_phases"):
            score_states_batch(
                matrix, [np.zeros(5, dtype=bool)], baseline_phases=[None, None]
            )

    def test_empty_matrix(self):
        grid = score_states_batch(
            np.zeros((2, 0), dtype=bool), [np.zeros(0, dtype=bool)]
        )
        assert grid[0][0].score == 1.0
        assert grid[1][0].num_baseline_phases == 0

    def test_baseline_phase_override(self):
        matrix = np.vstack([states_from_phases([(30, 70)], 100)])
        base_states = states_from_phases([(10, 60)], 100)
        override = [[(10, 60)]]
        grid = score_states_batch(
            matrix, [base_states], baseline_phases=override
        )
        scalar = score_states(
            matrix[0], base_states, baseline_phases=override[0]
        )
        assert grid[0][0] == scalar
