"""Phase-boundary matching (the three constraints of Section 3.2).

A detected phase ``D`` *qualifies* for baseline phase ``B`` when

1. ``B.start <= D.start < B.end`` — the detected phase starts inside
   the baseline phase (online detectors are always late), and
2. ``B.end <= D.end < next(B).start`` — the detected phase ends at or
   after the baseline phase ends, but before the next baseline phase
   starts (``next(B).start`` is the trace length + 1 for the last phase).

Constraint 3 resolves ties: among qualifying detected phases, the one
whose boundaries are closest to ``B``'s matches.  With sorted, disjoint
detected phases the tie never arises: a second qualifier would have to
start before ``B.end`` yet at or after the first one's end, which is
``>= B.end``.  So every qualifying detected phase matches the one
baseline phase containing its start.  A matched phase contributes two
matched boundaries (its start and its end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.scoring.states import Interval


@dataclass(frozen=True)
class BoundaryMatching:
    """The outcome of matching detected phases against baseline phases."""

    #: Pairs (detected index, baseline index) for matched phases.
    pairs: Tuple[Tuple[int, int], ...]
    num_detected_phases: int
    num_baseline_phases: int


class BaselinePhaseIndex:
    """The matcher for one baseline phase list.

    A sweep scores every detector config against the same per-MPL
    baseline, so the baseline's validation and its start/end/next-start
    arrays are built once per MPL.  :meth:`qualifying` then tests any
    number of detected phases — one lane's or a whole bank's, since
    qualification looks at each detected phase alone — in a handful of
    vectorized array ops.
    """

    __slots__ = ("num_elements", "_starts", "_ends", "_next_starts")

    def __init__(self, baseline: Sequence[Interval], num_elements: int) -> None:
        intervals = np.asarray(baseline, dtype=np.int64).reshape(len(baseline), 2)
        check_sorted_disjoint_arrays(intervals[:, 0], intervals[:, 1], "baseline")
        self.num_elements = int(num_elements)
        self._starts = intervals[:, 0]
        self._ends = intervals[:, 1]
        # next(B).start for the qualification upper bound, and
        # num_elements + 1 past the last baseline phase.
        self._next_starts = np.append(self._starts[1:], self.num_elements + 1)

    def __len__(self) -> int:
        return int(self._starts.size)

    def qualifying(self, d_starts: np.ndarray, d_ends: np.ndarray):
        """``(qualified, b_idx)``: which detected phases match, and the
        baseline phase that contains each one's start."""
        b_idx = np.searchsorted(self._starts, d_starts, side="right") - 1
        if not self._starts.size:
            return np.zeros(d_starts.size, dtype=bool), b_idx
        safe = np.maximum(b_idx, 0)
        qualified = (
            (b_idx >= 0)
            & (d_starts < self._ends[safe])
            & (self._ends[safe] <= d_ends)
            & (d_ends < self._next_starts[safe])
        )
        return qualified, b_idx

    def match(self, detected: Sequence[Interval]) -> BoundaryMatching:
        """Match a sorted, disjoint ``detected`` list against this baseline."""
        intervals = np.asarray(detected, dtype=np.int64).reshape(len(detected), 2)
        check_sorted_disjoint_arrays(intervals[:, 0], intervals[:, 1], "detected")
        qualified, b_idx = self.qualifying(intervals[:, 0], intervals[:, 1])
        d_idx = np.flatnonzero(qualified)
        pairs = tuple(zip(d_idx.tolist(), b_idx[d_idx].tolist()))
        return BoundaryMatching(pairs, len(detected), len(self))


def check_sorted_disjoint_arrays(
    starts: np.ndarray, ends: np.ndarray, label: str
) -> None:
    """Reject malformed, unsorted or overlapping intervals.

    Reports the *first* offending interval, checking malformedness
    before overlap at that interval.  Touching and empty intervals pass.
    """
    if starts.size == 0:
        return
    malformed = starts > ends
    overlapping = starts < np.concatenate(([-1], ends[:-1]))
    bad = malformed | overlapping
    if bad.any():
        index = int(np.argmax(bad))
        start, end = int(starts[index]), int(ends[index])
        if malformed[index]:
            raise ValueError(f"{label} phase ({start}, {end}) is malformed")
        raise ValueError(f"{label} phases overlap or are unsorted at ({start}, {end})")
