"""Detection latency: how late an online detector reports phase starts.

Section 3.2: "the algorithms will always detect a phase after it has
started. The degree to which an algorithm is late depends on the window
size and is reflected in the correlation portion of the score."  The
combined score only reflects lateness *indirectly*; this module
measures it directly, per matched phase:

- **start lateness** — detected start minus baseline start (>= 0 by the
  matching constraints);
- **end lateness** — detected end minus baseline end (>= 0 likewise);
- both again for anchor-corrected boundaries, which can eliminate the
  start lateness entirely (Figure 8's subject).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.scoring.boundaries import BaselinePhaseIndex
from repro.scoring.states import Interval


@dataclass(frozen=True)
class LatencyReport:
    """Lateness statistics over the matched phases of one comparison."""

    start_lateness: List[int]
    end_lateness: List[int]
    num_matched: int
    num_baseline_phases: int

    @property
    def mean_start_lateness(self) -> float:
        """Mean elements between true and detected phase start."""
        if not self.start_lateness:
            return 0.0
        return sum(self.start_lateness) / len(self.start_lateness)

    @property
    def mean_end_lateness(self) -> float:
        """Mean elements between true and detected phase end."""
        if not self.end_lateness:
            return 0.0
        return sum(self.end_lateness) / len(self.end_lateness)

    @property
    def max_start_lateness(self) -> int:
        return max(self.start_lateness, default=0)


def measure_latency(
    detected: Sequence[Interval],
    baseline: Sequence[Interval],
    num_elements: int,
) -> LatencyReport:
    """Per-matched-phase lateness of ``detected`` against ``baseline``.

    Only matched phases contribute (an unmatched baseline phase has no
    meaningful lateness); the report carries the match count so callers
    can weigh the statistics.

    Note the matching constraints force start lateness >= 0; with
    anchor-*corrected* intervals a detector may claim a start slightly
    before the baseline's, in which case the phase simply fails to
    match (and the correction overshoot shows up as a lower match
    count, not a negative lateness).
    """
    matching = BaselinePhaseIndex(baseline, num_elements).match(detected)
    start_lateness: List[int] = []
    end_lateness: List[int] = []
    for d_index, b_index in matching.pairs:
        d_start, d_end = detected[d_index]
        b_start, b_end = baseline[b_index]
        start_lateness.append(d_start - b_start)
        end_lateness.append(d_end - b_end)
    return LatencyReport(
        start_lateness=start_lateness,
        end_lateness=end_lateness,
        num_matched=len(matching.pairs),
        num_baseline_phases=len(baseline),
    )
