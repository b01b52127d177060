"""Lu et al. (JILP 2004): the average-PC interval detector.

Their dynamic binary optimizer samples the PC and compares the average
PC address of the most recent 4K samples against an interval built from
the mean and standard deviation of the previous seven 4K windows.  If
the new average falls sufficiently outside that interval for two
consecutive windows, a phase has ended.

We apply it to the branch trace by treating each profile element's
*site* (method id + offset) as the sampled address — the same
information their PC samples carry.  As the paper notes, this algorithm
fits the framework too: the "model" computes window averages and the
"analyzer" does the interval-bound test; we implement it standalone so
its window bookkeeping stays faithful to the original description.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core.decision import (
    CheckpointError,
    DecisionEngine,
    PhaseDecision,
    checkpoint_bool,
    checkpoint_float,
    checkpoint_int,
    checkpoint_window_buffer,
)
from repro.core.state import PhaseState
from repro.profiles.trace import BranchTrace

#: Their sample-window size (4K samples).
LU_WINDOW = 4_096
#: Number of previous windows whose statistics form the interval.
LU_HISTORY = 7
#: Interval half-width in standard deviations.
LU_SIGMA = 2.0
#: Consecutive out-of-interval windows required to end a phase.
LU_CONSECUTIVE = 2


@dataclass
class LuDynamoResult:
    """Per-element states plus per-window averages (for inspection)."""

    states: np.ndarray
    window_averages: List[float]


class LuDynamoDetector:
    """Streaming implementation of the Lu et al. detector."""

    def __init__(
        self,
        window_size: int = LU_WINDOW,
        history: int = LU_HISTORY,
        sigma: float = LU_SIGMA,
        consecutive: int = LU_CONSECUTIVE,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if history < 2:
            raise ValueError("history must be at least 2")
        self.window_size = window_size
        self.history = history
        self.sigma = sigma
        self.consecutive = consecutive
        self._averages: Deque[float] = deque(maxlen=history)
        self._outside_streak = 0

    def process_window(self, average: float) -> bool:
        """Feed one window average; returns True if still in phase."""
        if len(self._averages) < self.history:
            self._averages.append(average)
            return False  # warming up: treat as transition
        mean = sum(self._averages) / len(self._averages)
        variance = sum((a - mean) ** 2 for a in self._averages) / len(self._averages)
        stddev = math.sqrt(variance)
        # Degenerate history (identical averages): any change is "outside".
        outside = abs(average - mean) > self.sigma * stddev if stddev else average != mean
        if outside:
            self._outside_streak += 1
        else:
            self._outside_streak = 0
        if self._outside_streak >= self.consecutive:
            # Phase ended: restart history from the new behavior.
            self._averages.clear()
            self._averages.append(average)
            self._outside_streak = 0
            return False
        self._averages.append(average)
        return True

    def run(self, trace: BranchTrace) -> LuDynamoResult:
        """Run over a whole trace; one state per element."""
        data = trace.array
        total = int(data.size)
        # Strip the taken bit: the sampled "address" is the branch site.
        sites = (data >> np.int64(1)).astype(np.float64)
        states = np.zeros(total, dtype=bool)
        averages: List[float] = []
        for start in range(0, total, self.window_size):
            window = sites[start : start + self.window_size]
            average = float(window.mean())
            averages.append(average)
            in_phase = self.process_window(average)
            if in_phase:
                states[start : start + window.size] = True
        return LuDynamoResult(states=states, window_averages=averages)


def run_lu_dynamo(trace: BranchTrace, window_size: int = LU_WINDOW, **kwargs) -> LuDynamoResult:
    """Convenience one-shot run of the Lu et al. detector."""
    return LuDynamoDetector(window_size=window_size, **kwargs).run(trace)


class LuDynamoEngine(DecisionEngine):
    """The Lu et al. interval test as a :class:`DecisionEngine`.

    An *online projection* of :class:`LuDynamoDetector`:
    ``config.cw_size`` is the sample window, each full window's average
    site address is tested against the mean ± sigma·stddev interval of
    the previous ``LU_HISTORY`` windows, and the resulting in-phase
    flag colors elements going forward (one-window lag versus the batch
    :func:`run_lu_dynamo`, which colors each window retroactively).

    The decision statistic is the deviation in stddev units, so **low**
    means stable; ``stat_threshold`` overrides the :data:`LU_SIGMA`
    interval half-width.
    """

    family = "lu_dynamo"

    def __init__(self, config, observer=None, metrics=None) -> None:
        super().__init__(config, observer=observer, metrics=metrics)
        bar = config.stat_threshold
        self.stat_threshold = LU_SIGMA if bar is None else bar
        self._window = config.cw_size
        self._buffer: List[int] = []
        self._averages: Deque[float] = deque(maxlen=LU_HISTORY)
        self._outside_streak = 0
        self._in_phase = False

    def _process_average(self, average: float) -> Optional[float]:
        """The interval test of :meth:`LuDynamoDetector.process_window`,
        returning the deviation statistic (None while history fills)."""
        averages = self._averages
        if len(averages) < LU_HISTORY:
            averages.append(average)
            self._in_phase = False
            return None
        mean = sum(averages) / len(averages)
        variance = sum((a - mean) ** 2 for a in averages) / len(averages)
        stddev = math.sqrt(variance)
        if stddev:
            deviation = abs(average - mean) / stddev
            outside = deviation > self.stat_threshold
        else:
            outside = average != mean
            deviation = 0.0 if not outside else self.stat_threshold + 1.0
        if outside:
            self._outside_streak += 1
        else:
            self._outside_streak = 0
        if self._outside_streak >= LU_CONSECUTIVE:
            averages.clear()
            averages.append(average)
            self._outside_streak = 0
            self._in_phase = False
        else:
            averages.append(average)
            self._in_phase = True
        return deviation

    def step(self, elements) -> "PhaseDecision":
        group_len = len(elements)
        self._consumed += group_len
        self._buffer.extend(elements)
        statistic: Optional[float] = None
        window = self._window
        while len(self._buffer) >= window:
            chunk = self._buffer[:window]
            del self._buffer[:window]
            sites = np.asarray(chunk, dtype=np.int64) >> np.int64(1)
            average = float(sites.astype(np.float64).mean())
            deviation = self._process_average(average)
            if deviation is not None:
                statistic = deviation
                observer = self._observer
                if observer is not None:
                    step = self._consumed
                    observer.emit(
                        {
                            "ev": "similarity",
                            "step": step,
                            "value": deviation,
                            "cw": 0,
                            "tw": 0,
                        }
                    )
                    observer.emit(
                        {
                            "ev": "decision",
                            "step": step,
                            "state": "P" if self._in_phase else "T",
                            "value": deviation,
                            "bar": self.stat_threshold,
                        }
                    )
        entered = False
        closed = None
        if self._in_phase:
            if not self.state.is_phase():
                start = self._consumed - group_len
                self.tracker.enter(self._consumed, start, start)
                self._phase_stats_reset(statistic if statistic is not None else 0.0)
                entered = True
            elif statistic is not None:
                self._phase_stats_update(statistic)
            self.state = PhaseState.PHASE
        else:
            if self.state.is_phase():
                closed = self._close(self._consumed - group_len)
                self._phase_stats_clear()
            self.state = PhaseState.TRANSITION
        return PhaseDecision(self.state, statistic, entered, closed)

    def _engine_state(self) -> Dict[str, object]:
        return {
            "buffer": list(self._buffer),
            "averages": list(self._averages),
            "streak": self._outside_streak,
            "in_phase": self._in_phase,
        }

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Restore, rejecting any state ``step()`` could never reach."""
        buffer = checkpoint_window_buffer(self, payload["buffer"])
        in_phase = checkpoint_bool(
            payload["in_phase"], "lu_dynamo checkpoint in_phase"
        )
        if in_phase != self.state.is_phase():
            raise CheckpointError(
                f"lu_dynamo checkpoint in_phase={in_phase} contradicts "
                f"state {self.state.value!r}"
            )
        averages = payload["averages"]
        if not isinstance(averages, list):
            raise CheckpointError(
                f"lu_dynamo checkpoint averages={averages!r:.80} is not a list"
            )
        # Every full window appends one average; a phase exit restarts
        # the history from one, and the deque keeps the last LU_HISTORY.
        windows = self.consumed // self._window
        if len(averages) > min(windows, LU_HISTORY) or (windows and not averages):
            raise CheckpointError(
                f"lu_dynamo checkpoint holds {len(averages)} averages after "
                f"{windows} windows (history {LU_HISTORY})"
            )
        averages = [
            checkpoint_float(average, "lu_dynamo checkpoint average")
            for average in averages
        ]
        streak = checkpoint_int(payload["streak"], "lu_dynamo checkpoint streak")
        if not 0 <= streak < LU_CONSECUTIVE:
            raise CheckpointError(
                f"lu_dynamo checkpoint streak={streak} outside [0, {LU_CONSECUTIVE})"
            )
        # Only a full history is tested, and only a test that keeps the
        # phase open leaves an outside streak running.
        if streak and not in_phase:
            raise CheckpointError(
                f"lu_dynamo checkpoint has streak={streak} outside a phase"
            )
        if in_phase and len(averages) < LU_HISTORY:
            raise CheckpointError(
                f"lu_dynamo checkpoint is in phase with only "
                f"{len(averages)} of {LU_HISTORY} averages"
            )
        self._buffer = buffer
        self._averages = deque(averages, maxlen=LU_HISTORY)
        self._outside_streak = streak
        self._in_phase = in_phase
