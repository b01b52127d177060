"""A literal transcription of the Section 3.2 metric, for the tests.

Correlation is the mean over per-element states; constraints 1-3 run
as nested loops over every detected x baseline pair.  It is slow and
shares no arithmetic with :mod:`repro.scoring`, which is the point.
"""

import numpy as np
from hypothesis import strategies as st

from repro.scoring.metric import AccuracyScore


def states(intervals, n):
    """Element ``i`` is P when some interval holds it."""
    return np.array([any(s <= i < e for s, e in intervals) for i in range(n)], dtype=bool)


def runs(flags):
    """The maximal P-runs of a state sequence, element by element."""
    found, start = [], None
    for i, flag in enumerate(list(flags) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            found.append((start, i))
            start = None
    return found


def matched_pairs(detected, baseline, n):
    """(detected index, baseline index) pairs under constraints 1-3."""
    pairs = []
    for b, (b_start, b_end) in enumerate(baseline):
        next_start = baseline[b + 1][0] if b + 1 < len(baseline) else n + 1
        best = None
        for d, (d_start, d_end) in enumerate(detected):
            # 1: starts inside B.  2: ends at/after B.end, before next(B).
            if b_start <= d_start < b_end and b_end <= d_end < next_start:
                # 3: the closest qualifier wins; the earlier one on a tie.
                candidate = ((d_start - b_start) + (d_end - b_end), d)
                best = candidate if best is None else min(best, candidate)
        if best is not None:
            pairs.append((best[1], b))
    return sorted(pairs)


def score(detected, baseline, n, detected_cover=None, baseline_cover=None):
    """The score of ``detected`` against ``baseline`` over ``n`` elements.

    Both lists are matched as given; correlation compares the states of
    the covers, which default to the matched lists.
    """
    if n == 0:
        return AccuracyScore(1.0, 1.0, 0.0, 0, 0, 0)
    d_states = states(detected if detected_cover is None else detected_cover, n)
    b_states = states(baseline if baseline_cover is None else baseline_cover, n)
    matched = len(matched_pairs(detected, baseline, n))
    d_bounds, b_bounds = 2 * len(detected), 2 * len(baseline)
    return AccuracyScore(
        correlation=float(np.mean(d_states == b_states)),
        sensitivity=2 * matched / b_bounds if b_bounds else 1.0,
        false_positives=(d_bounds - 2 * matched) / d_bounds if d_bounds else 0.0,
        num_detected_phases=len(detected),
        num_baseline_phases=len(baseline),
        num_matched_phases=matched,
    )


@st.composite
def interval_lists(draw, n):
    """Sorted, disjoint intervals in ``[0, n]``; repeated bounds make
    touching and empty intervals."""
    bounds = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return [(bounds[i], bounds[i + 1]) for i in range(0, len(bounds) - 1, 2)]
