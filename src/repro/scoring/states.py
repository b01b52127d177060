"""State-sequence utilities.

A state sequence assigns each profile element P (in phase) or T
(transition); we represent it as a numpy boolean array with True = P.
Phases are the maximal P-runs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: A phase interval: profile elements ``start .. end - 1`` are P.
Interval = Tuple[int, int]


def runs_from_states(states: np.ndarray) -> np.ndarray:
    """The maximal P-runs of a boolean state array, as a ``(k, 2)``
    int64 array of ``[start, end)`` rows in increasing order."""
    padded = np.concatenate(([False], np.asarray(states, dtype=bool), [False]))
    deltas = np.diff(padded.astype(np.int8))
    return np.column_stack(
        (np.flatnonzero(deltas == 1), np.flatnonzero(deltas == -1))
    ).astype(np.int64, copy=False)


def phases_from_states(states: np.ndarray) -> List[Interval]:
    """Extract maximal P-runs from a boolean state array.

    Returns ``[(start, end), ...]`` in increasing order.
    """
    return [tuple(run) for run in runs_from_states(states).tolist()]


def union_phases(phases: Sequence[Interval]) -> List[Interval]:
    """The maximal runs of the union of ``[start, end)`` intervals.

    The intervals must be sorted by start; empty ones vanish and
    touching or overlapping ones merge, so the result is what
    ``phases_from_states(states_from_phases(...))`` gives, without the
    element-sized array.
    """
    intervals = np.asarray(phases, dtype=np.int64).reshape(len(phases), 2)
    starts, ends = intervals[intervals[:, 0] < intervals[:, 1]].T
    if starts.size == 0:
        return []
    reach = np.maximum.accumulate(ends)
    opens = np.flatnonzero(np.concatenate(([True], starts[1:] > reach[:-1])))
    closes = reach[np.append(opens[1:], starts.size) - 1]
    return list(zip(starts[opens].tolist(), closes.tolist()))


def check_in_trace(starts: np.ndarray, ends: np.ndarray, num_elements: int) -> None:
    """Reject the first interval that is malformed or leaves ``[0, N]``."""
    bad = (starts < 0) | (starts > ends) | (ends > num_elements)
    if bad.any():
        index = int(np.argmax(bad))
        raise ValueError(
            f"phase ({int(starts[index])}, {int(ends[index])}) outside trace "
            f"of {num_elements} elements"
        )


def states_from_phases(phases: Sequence[Interval], num_elements: int) -> np.ndarray:
    """Build a boolean state array from phase intervals.

    Raises:
        ValueError: if intervals are out of range or malformed.
    """
    intervals = np.asarray(phases, dtype=np.int64).reshape(len(phases), 2)
    check_in_trace(intervals[:, 0], intervals[:, 1], num_elements)
    states = np.zeros(num_elements, dtype=bool)
    for start, end in intervals.tolist():
        states[start:end] = True
    return states


def state_string(states: np.ndarray) -> str:
    """Render a state array as a 'TTPPP...' string (for tests and debugging)."""
    return "".join("P" if flag else "T" for flag in np.asarray(states, dtype=bool))


def states_from_string(text: str) -> np.ndarray:
    """Parse a 'TTPPP...' string into a boolean state array."""
    cleaned = text.strip().upper()
    invalid = set(cleaned) - {"P", "T"}
    if invalid:
        raise ValueError(f"state string contains invalid characters {invalid}")
    return np.array([char == "P" for char in cleaned], dtype=bool)
