"""Accuracy scoring metric (Section 3.2).

Compares an online detector's phases against the baseline solution's
(:func:`score_intervals`; the state-array entry points wrap it):

- **correlation** — fraction of profile elements on which detector and
  oracle agree;
- **sensitivity** — fraction of oracle phase boundaries matched by a
  detected phase (three-constraint matching rule);
- **false positives** — fraction of detected boundaries that match no
  oracle boundary;
- **score** = correlation/2 + sensitivity/4 + (1 − false positives)/4.
"""

from repro.scoring.states import (
    phases_from_states,
    states_from_phases,
    state_string,
    union_phases,
)
from repro.scoring.boundaries import BaselinePhaseIndex, BoundaryMatching
from repro.scoring.metric import (
    AccuracyScore,
    score_intervals,
    score_phases,
    score_states,
    score_states_batch,
)
from repro.scoring.latency import LatencyReport, measure_latency

__all__ = [
    "phases_from_states",
    "states_from_phases",
    "state_string",
    "union_phases",
    "BaselinePhaseIndex",
    "BoundaryMatching",
    "AccuracyScore",
    "LatencyReport",
    "measure_latency",
    "score_intervals",
    "score_phases",
    "score_states",
    "score_states_batch",
]
