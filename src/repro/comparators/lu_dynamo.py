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
"analyzer" does the interval-bound test; we implement it as its own
engine so its window bookkeeping stays faithful to the original
description.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.decision import (
    CheckpointError,
    PerWindowEngine,
    checkpoint_float,
    checkpoint_int,
)

#: Their sample-window size (4K samples).
LU_WINDOW = 4_096
#: Number of previous windows whose statistics form the interval.
LU_HISTORY = 7
#: Interval half-width in standard deviations.
LU_SIGMA = 2.0
#: Consecutive out-of-interval windows required to end a phase.
LU_CONSECUTIVE = 2


class LuDynamoEngine(PerWindowEngine):
    """The Lu et al. interval test as a :class:`PerWindowEngine`.

    ``config.cw_size`` is the sample window.  Each window's average
    site address is tested against the mean ± sigma·stddev interval of
    the previous ``LU_HISTORY`` window averages; until the history is
    full (at the start, and again after each phase break restarts it
    from the breaking window) windows only fill it.
    :meth:`~repro.core.decision.PerWindowEngine.window_states` colours
    each window by its own verdict, the related-work table's view.

    The decision statistic is the deviation in stddev units, so **low**
    means stable; ``stat_threshold`` overrides the :data:`LU_SIGMA`
    interval half-width.
    """

    family = "lu_dynamo"

    def __init__(self, config, observer=None, metrics=None) -> None:
        super().__init__(config, observer=observer, metrics=metrics)
        bar = config.stat_threshold
        self.stat_threshold = LU_SIGMA if bar is None else bar
        self._averages: Deque[float] = deque(maxlen=LU_HISTORY)
        self._outside_streak = 0

    def _judge(self, window: List[int]) -> Tuple[Optional[float], bool]:
        # Strip the taken bit: the sampled "address" is the branch site.
        sites = np.asarray(window, dtype=np.int64) >> np.int64(1)
        average = float(sites.astype(np.float64).mean())
        averages = self._averages
        if len(averages) < LU_HISTORY:
            averages.append(average)
            return None, False  # warming up: treat as transition
        mean = sum(averages) / len(averages)
        variance = sum((a - mean) ** 2 for a in averages) / len(averages)
        stddev = math.sqrt(variance)
        if stddev:
            deviation = abs(average - mean) / stddev
            outside = deviation > self.stat_threshold
        else:
            # Degenerate history (identical averages): any change is "outside".
            outside = average != mean
            deviation = 0.0 if not outside else self.stat_threshold + 1.0
        if outside:
            self._outside_streak += 1
        else:
            self._outside_streak = 0
        if self._outside_streak >= LU_CONSECUTIVE:
            # Phase ended: restart history from the new behavior.
            averages.clear()
            averages.append(average)
            self._outside_streak = 0
            return deviation, False
        averages.append(average)
        return deviation, True

    def _engine_state(self) -> Dict[str, object]:
        return {
            "buffer": list(self._buffer),
            "averages": list(self._averages),
            "streak": self._outside_streak,
            "in_phase": self._in_phase,
        }

    def _restore_window_state(self, payload: Dict[str, object]) -> None:
        in_phase = self._in_phase
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
        self._averages = deque(averages, maxlen=LU_HISTORY)
        self._outside_streak = streak
