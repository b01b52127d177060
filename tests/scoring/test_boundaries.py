"""Boundary-matching tests: the three constraints of Section 3.2."""

import pytest

from repro.scoring.boundaries import BaselinePhaseIndex
from repro.scoring.metric import score_phases, score_states
from repro.scoring.states import states_from_phases, union_phases

N = 1_000  # trace length used throughout


def match(detected, baseline, num_elements):
    return BaselinePhaseIndex(baseline, num_elements).match(detected)


class TestMatchingConstraints:
    def test_exact_match(self):
        matching = match([(100, 200)], [(100, 200)], N)
        assert matching.pairs == ((0, 0),)

    def test_late_detection_matches(self):
        # Start inside the baseline phase; end after it, before the next.
        matching = match([(120, 230)], [(100, 200), (400, 500)], N)
        assert matching.pairs == ((0, 0),)

    def test_start_before_baseline_start_fails(self):
        matching = match([(90, 210)], [(100, 200)], N)
        assert matching.pairs == ()

    def test_start_at_baseline_end_fails(self):
        matching = match([(200, 250)], [(100, 200)], N)
        assert matching.pairs == ()

    def test_end_before_baseline_end_fails(self):
        matching = match([(120, 190)], [(100, 200)], N)
        assert matching.pairs == ()

    def test_end_into_next_phase_fails(self):
        matching = match([(120, 450)], [(100, 200), (400, 500)], N)
        assert matching.pairs == ()

    def test_end_exactly_at_next_start_fails(self):
        matching = match([(120, 400)], [(100, 200), (400, 500)], N)
        assert matching.pairs == ()

    def test_last_phase_end_may_reach_trace_end(self):
        matching = match([(120, N)], [(100, 200)], N)
        assert matching.pairs == ((0, 0),)

    def test_at_most_one_candidate_per_baseline_phase(self):
        # With disjoint detected phases, a second phase that qualifies
        # for the same baseline phase cannot exist: it would have to
        # start before B.end but after the first one's end (>= B.end).
        # Constraint 3's tie-break is therefore vacuous for valid input;
        # the closest single candidate simply matches.
        matching = match(
            [(110, 210), (220, 390)], [(100, 200), (400, 500)], N
        )
        assert matching.pairs == ((0, 0),)

    def test_one_detected_phase_matches_at_most_one_baseline(self):
        matching = match([(120, 230)], [(100, 200), (225, 300)], N)
        # end (230) is inside the next phase [225, 300): no match.
        assert matching.pairs == ()

    def test_multiple_independent_matches(self):
        matching = match(
            [(110, 220), (420, 520)], [(100, 200), (400, 500)], N
        )
        assert matching.pairs == ((0, 0), (1, 1))


#: Hand-worked scores over 10 elements: (detected, baseline, agreeing
#: elements, matched phases).
HAND_WORKED = {
    "exact": ([(2, 6)], [(2, 6)], 10, 1),
    "start at B.end - 1": ([(5, 6)], [(2, 6)], 7, 1),
    "start at B.end": ([(6, 7)], [(2, 6)], 5, 0),
    "end before B.end": ([(3, 5)], [(2, 6)], 8, 0),
    "end at next(B).start - 1": ([(3, 7)], [(2, 6), (8, 9)], 7, 1),
    "end at next(B).start": ([(3, 8)], [(2, 6), (8, 9)], 6, 0),
    "last phase ends by N + 1": ([(3, 10)], [(2, 6)], 5, 1),
    "no tie: a touching second phase": ([(2, 6), (6, 8)], [(2, 6)], 8, 1),
    "touching baseline phases as given": ([(3, 7)], [(2, 4), (4, 6)], 8, 0),
}


@pytest.mark.parametrize("case", HAND_WORKED, ids=list(HAND_WORKED))
def test_hand_worked_scores(case):
    detected, baseline, agreeing, matched = HAND_WORKED[case]
    score = score_phases(detected, baseline, 10)
    assert score.correlation == agreeing / 10
    assert score.num_matched_phases == matched
    assert score.sensitivity == matched / len(baseline)


def test_touching_baseline_phases_merge_in_states():
    # As states, [(2, 4), (4, 6)] is one run, so (3, 7) matches it.
    score = score_states(
        states_from_phases([(3, 7)], 10), states_from_phases([(2, 4), (4, 6)], 10)
    )
    assert score.correlation == 8 / 10
    assert (score.num_baseline_phases, score.num_matched_phases) == (1, 1)
    assert union_phases([(2, 4), (4, 6), (7, 7)]) == [(2, 6)]


class TestRates:
    def test_sensitivity_counts_boundaries(self):
        score = score_phases([(110, 220)], [(100, 200), (400, 500)], N)
        assert score.num_matched_phases == 1
        assert score.sensitivity == 2 / 4

    def test_false_positive_rate(self):
        score = score_phases([(110, 220), (600, 700)], [(100, 200)], N)
        assert score.false_positives == 2 / 4

    def test_no_baseline_phases(self):
        score = score_phases([(10, 20)], [], N)
        assert score.sensitivity == 1.0
        assert score.false_positives == 1.0

    def test_no_detected_phases(self):
        score = score_phases([], [(10, 20)], N)
        assert score.sensitivity == 0.0
        assert score.false_positives == 0.0


class TestValidation:
    def test_unsorted_detected_rejected(self):
        with pytest.raises(ValueError):
            match([(50, 80), (10, 20)], [(1, 5)], N)

    def test_overlapping_baseline_rejected(self):
        with pytest.raises(ValueError):
            match([(1, 2)], [(10, 30), (20, 40)], N)

    def test_malformed_interval_rejected(self):
        with pytest.raises(ValueError):
            match([(30, 10)], [], N)
