"""The combined accuracy score (Section 3.2).

``score = correlation/2 + sensitivity/4 + (1 - falsePositives)/4``

Correlation weighs per-element agreement; sensitivity and false
positives weigh boundary matching; scores fall in [0, 1], higher is
more accurate.  :func:`score_intervals` is the one implementation; it
works on phase intervals, and the state-array entry points are thin
wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.scoring.boundaries import BaselinePhaseIndex, check_sorted_disjoint_arrays
from repro.scoring.states import Interval, check_in_trace, runs_from_states

CORRELATION_WEIGHT = 0.5
SENSITIVITY_WEIGHT = 0.25
FALSE_POSITIVE_WEIGHT = 0.25


@dataclass(frozen=True)
class AccuracyScore:
    """All components of one detector-vs-baseline comparison."""

    correlation: float
    sensitivity: float
    false_positives: float
    num_detected_phases: int
    num_baseline_phases: int
    num_matched_phases: int

    @property
    def score(self) -> float:
        """The combined weighted score in [0, 1]."""
        return (
            CORRELATION_WEIGHT * self.correlation
            + SENSITIVITY_WEIGHT * self.sensitivity
            + FALSE_POSITIVE_WEIGHT * (1.0 - self.false_positives)
        )

    def __str__(self) -> str:
        return (
            f"score={self.score:.4f} (corr={self.correlation:.4f}, "
            f"sens={self.sensitivity:.4f}, fp={self.false_positives:.4f}, "
            f"matched={self.num_matched_phases}/{self.num_baseline_phases})"
        )


def _pack(phases: Sequence[Interval]) -> np.ndarray:
    return np.asarray(phases, dtype=np.int64).reshape(len(phases), 2)


def _stack(arrays: Sequence[np.ndarray]):
    """Concatenate ``(k, 2)`` interval arrays; also return their offsets."""
    offsets = np.cumsum([0] + [array.shape[0] for array in arrays])
    return np.concatenate([np.empty((0, 2), dtype=np.int64), *arrays]), offsets


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    totals = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return totals[offsets[1:]] - totals[offsets[:-1]]


def _score(agreement, num_elements, num_detected, num_baseline, num_matched):
    # Each matched phase matches two of each side's 2 * count boundaries.
    return AccuracyScore(
        correlation=agreement / num_elements,
        sensitivity=num_matched / num_baseline if num_baseline else 1.0,
        false_positives=(
            (num_detected - num_matched) / num_detected if num_detected else 0.0
        ),
        num_detected_phases=num_detected,
        num_baseline_phases=num_baseline,
        num_matched_phases=num_matched,
    )


def score_intervals(
    detected: Sequence[Sequence[Interval]],
    baselines: Sequence[Sequence[Interval]],
    num_elements: int,
    detected_cover: Optional[Sequence[Sequence[Interval]]] = None,
    baseline_cover: Optional[Sequence[Sequence[Interval]]] = None,
) -> List[List[AccuracyScore]]:
    """Score detector lanes against baselines: ``scores[lane][baseline]``.

    Each lane's and each baseline's intervals (lists of pairs or
    ``(k, 2)`` arrays: sorted and disjoint, touching and empty ones
    allowed) are matched as given.  Correlation compares the union
    ``D`` of a lane's cover intervals with the union ``B`` of a
    baseline's; the covers (sorted and disjoint too) default to the
    matched intervals.  The ``N - (|D| + |B| - 2 |D & B|)`` agreeing
    elements are an exact integer, so dividing by ``N`` gives the float
    ``np.mean`` over per-element states would.  Disjoint intervals
    need no merging for this: touching ones add up like one run.

    Per baseline, one cumulative-coverage lookup over every lane's
    cover intervals gives each ``|D & B|``, and one
    :meth:`~repro.scoring.boundaries.BaselinePhaseIndex.qualifying`
    call over every lane's intervals gives each match count.

    Args:
        detected: per-lane phase intervals.
        baselines: per-baseline phase intervals (one per MPL).
        num_elements: the trace length ``N``.
        detected_cover, baseline_cover: per-lane / per-baseline
            intervals whose union the correlation uses instead; the
            state-array wrappers pass the arrays' P-runs here, so that
            an override moves only the matching.

    Raises:
        ValueError: a cover interval is malformed or leaves ``[0, N]``,
            or matched intervals are malformed, unsorted or overlap.
    """
    lanes = [_pack(phases) for phases in detected]
    bases = [_pack(phases) for phases in baselines]
    covers = lanes if detected_cover is None else [_pack(p) for p in detected_cover]
    base_covers = bases if baseline_cover is None else [_pack(p) for p in baseline_cover]
    for cover in covers + base_covers:
        check_in_trace(cover[:, 0], cover[:, 1], num_elements)
    if num_elements == 0:
        empty = AccuracyScore(1.0, 1.0, 0.0, 0, 0, 0)
        return [[empty for _ in bases] for _ in lanes]
    for lane in lanes:
        check_sorted_disjoint_arrays(lane[:, 0], lane[:, 1], "detected")
    indexes = [BaselinePhaseIndex(base, num_elements) for base in bases]

    matched, match_offsets = _stack(lanes)
    cover, cover_offsets = _stack(covers)
    detected_sizes = _segment_sums(cover[:, 1] - cover[:, 0], cover_offsets)
    points = cover.T.ravel()  # every cover start, then every cover end
    grid: List[List[AccuracyScore]] = [[] for _ in lanes]
    for index, base in zip(indexes, base_covers):
        # covered[j] = |B & [0, b_ends[j])|, behind an empty sentinel
        # interval, so below[i] = |B & [0, points[i])|.
        b_starts = np.concatenate(([-1], base[:, 0]))
        b_ends = np.concatenate(([-1], base[:, 1]))
        covered = np.cumsum(b_ends - b_starts)
        last = np.searchsorted(b_starts, points, side="right") - 1
        below = covered[last] - np.maximum(b_ends[last] - points, 0)
        overlap = _segment_sums(
            below[cover.shape[0] :] - below[: cover.shape[0]], cover_offsets
        )
        agreement = num_elements - detected_sizes - covered[-1] + 2 * overlap
        qualified, _ = index.qualifying(matched[:, 0], matched[:, 1])
        hits = _segment_sums(qualified, match_offsets)
        for lane, intervals in enumerate(lanes):
            grid[lane].append(
                _score(
                    int(agreement[lane]),
                    num_elements,
                    intervals.shape[0],
                    len(index),
                    int(hits[lane]),
                )
            )
    return grid


def score_states(
    detected_states: np.ndarray,
    baseline_states: np.ndarray,
    detected_phases: Optional[Sequence[Interval]] = None,
    baseline_phases: Optional[Sequence[Interval]] = None,
) -> AccuracyScore:
    """Score a detector's state sequence against the baseline's.

    Args:
        detected_states: boolean array, True = P, one entry per element.
        baseline_states: same shape, from the oracle.
        detected_phases: optional phase intervals to use for boundary
            matching instead of the maximal P-runs of
            ``detected_states`` — Figure 8 passes anchor-corrected
            intervals here.
        baseline_phases: optional explicit baseline intervals (defaults
            to the P-runs of ``baseline_states``).

    Returns:
        The full :class:`AccuracyScore` (:func:`score_intervals` on the
        arrays' P-runs).
    """
    detected_states = np.asarray(detected_states, dtype=bool)
    baseline_states = np.asarray(baseline_states, dtype=bool)
    if detected_states.shape != baseline_states.shape:
        raise ValueError(
            f"state arrays differ in length: {detected_states.size} vs "
            f"{baseline_states.size}"
        )
    return score_states_batch(
        detected_states[np.newaxis, :],
        [baseline_states],
        detected_phases=[detected_phases],
        baseline_phases=[baseline_phases],
    )[0][0]


def score_states_batch(
    states_matrix: np.ndarray,
    baseline_states_list: Sequence[np.ndarray],
    detected_phases: Optional[Sequence[Optional[Sequence[Interval]]]] = None,
    baseline_phases: Optional[Sequence[Optional[Sequence[Interval]]]] = None,
) -> List[List[AccuracyScore]]:
    """Score a bank of detector state rows against a set of baselines.

    Equal to ``[[score_states(states_matrix[i], base, ...) for base in
    ...] for i ...]``: :func:`score_intervals` on the rows' and the
    baselines' P-runs, which stay the correlation's cover when an
    override replaces what is matched.

    Args:
        states_matrix: ``(lanes, N)`` boolean matrix, one detector state
            row per bank lane.
        baseline_states_list: per-baseline ``(N,)`` boolean arrays
            (typically one per nominal MPL).
        detected_phases: optional per-lane phase-interval overrides
            (``None`` entries fall back to the row's maximal P-runs) —
            anchor-corrected intervals go here, as in
            :func:`score_states`.
        baseline_phases: optional per-baseline interval overrides.

    Returns:
        ``scores[lane][baseline]`` — the full :class:`AccuracyScore`
        grid.
    """
    matrix = np.asarray(states_matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ValueError(f"states matrix must be 2-D, got shape {matrix.shape}")
    num_lanes, num_elements = matrix.shape
    if detected_phases is not None and len(detected_phases) != num_lanes:
        raise ValueError(
            f"detected_phases has {len(detected_phases)} entries for "
            f"{num_lanes} lanes"
        )
    if baseline_phases is not None and len(baseline_phases) != len(
        baseline_states_list
    ):
        raise ValueError(
            f"baseline_phases has {len(baseline_phases)} entries for "
            f"{len(baseline_states_list)} baselines"
        )
    baselines = [np.asarray(base, dtype=bool) for base in baseline_states_list]
    for base in baselines:
        if base.shape != (num_elements,):
            raise ValueError(
                f"state arrays differ in length: {num_elements} vs {base.size}"
            )
    runs = [runs_from_states(row) for row in matrix]
    base_runs = [runs_from_states(base) for base in baselines]
    return score_intervals(
        _overridden(runs, detected_phases),
        _overridden(base_runs, baseline_phases),
        num_elements,
        detected_cover=runs,
        baseline_cover=base_runs,
    )


def _overridden(runs, overrides):
    if overrides is None:
        return runs
    return [run if override is None else override for run, override in zip(runs, overrides)]


def score_phases(
    detected_phases: Sequence[Interval],
    baseline_phases: Sequence[Interval],
    num_elements: int,
) -> AccuracyScore:
    """Score from phase-interval lists alone: each list is matched as
    given, and correlation compares the two lists' unions."""
    return score_intervals([detected_phases], [baseline_phases], num_elements)[0][0]
