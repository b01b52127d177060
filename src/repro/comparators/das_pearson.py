"""Das et al. (CGO 2006): Pearson-correlation phase detection.

Their region-monitoring system compares the current window of samples
against the phase's *target set* using Pearson's coefficient of
correlation, against a fixed threshold.  We implement the global
variant: the target is the element-frequency vector of the window that
started the current phase; each subsequent window's frequency vector is
correlated against it.  A window with correlation below the threshold
ends the phase and becomes the new target.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.decision import CheckpointError, PerWindowEngine, checkpoint_int

#: Default sample-window size and similarity threshold.
DAS_WINDOW = 4_096
DAS_THRESHOLD = 0.8


def pearson_correlation(left: Dict[int, int], right: Dict[int, int]) -> float:
    """Pearson's r between two sparse frequency vectors.

    The vectors range over the union of keys; absent keys count 0.
    Degenerate (zero-variance) vectors yield 1.0 when identical and 0.0
    otherwise.
    """
    keys = set(left) | set(right)
    n = len(keys)
    if n == 0:
        return 1.0
    sum_l = sum(left.get(k, 0) for k in keys)
    sum_r = sum(right.get(k, 0) for k in keys)
    mean_l = sum_l / n
    mean_r = sum_r / n
    cov = 0.0
    var_l = 0.0
    var_r = 0.0
    for k in keys:
        dl = left.get(k, 0) - mean_l
        dr = right.get(k, 0) - mean_r
        cov += dl * dr
        var_l += dl * dl
        var_r += dr * dr
    if var_l == 0.0 or var_r == 0.0:
        return 1.0 if left == right else 0.0
    return cov / math.sqrt(var_l * var_r)


class DasPearsonEngine(PerWindowEngine):
    """The global Das et al. detector as a :class:`PerWindowEngine`.

    ``config.cw_size`` is the sample window.  The first window after a
    phase break becomes the target and scores 0; every later window's
    Pearson correlation against the target decides the in-phase flag,
    and a window below the bar (clamped to 1) becomes the new target.
    :meth:`~repro.core.decision.PerWindowEngine.window_states` colours
    each window by its own verdict, the related-work table's view.

    Statistic semantics are the correlation's: **high** means stable
    (phase at ``statistic >= bar``), the reverse of the changepoint
    families.  ``stat_threshold`` overrides :data:`DAS_THRESHOLD`.
    """

    family = "das_pearson"

    def __init__(self, config, observer=None, metrics=None) -> None:
        super().__init__(config, observer=observer, metrics=metrics)
        bar = config.stat_threshold
        self.stat_threshold = DAS_THRESHOLD if bar is None else bar
        # A correlation never exceeds 1, so a higher bar still keeps a
        # perfectly correlated window's target.
        self._reset_bar = min(1.0, self.stat_threshold)
        self._target: Optional[Dict[int, int]] = None

    def _judge(self, window: List[int]) -> Tuple[float, bool]:
        counts = Counter(window)
        if self._target is None:
            self._target = dict(counts)
            correlation = 0.0
        else:
            correlation = pearson_correlation(counts, self._target)
            if correlation < self._reset_bar:
                self._target = dict(counts)
        return correlation, correlation >= self.stat_threshold

    def _engine_state(self) -> Dict[str, object]:
        target = self._target
        return {
            "buffer": list(self._buffer),
            "in_phase": self._in_phase,
            # Pair list keeps the dict's insertion order, which the
            # sparse Pearson's key-set iteration depends on for
            # bit-identical restores.
            "target": None if target is None else [[k, v] for k, v in target.items()],
        }

    def _restore_window_state(self, payload: Dict[str, object]) -> None:
        target = payload["target"]
        windows = self.consumed // self._window
        if target is None:
            if windows:
                raise CheckpointError(
                    f"das_pearson checkpoint has no target after {windows} windows"
                )
            self._target = None
        else:
            if not windows:
                raise CheckpointError(
                    "das_pearson checkpoint has a target before its first window"
                )
            self._target = _target_counts(target, self._window)


def _target_counts(pairs: object, window: int) -> Dict[int, int]:
    """A target: distinct ``[element, count]`` pairs, every count
    positive, the counts summing to one full window."""
    if not isinstance(pairs, list):
        raise CheckpointError(
            f"das_pearson checkpoint target={pairs!r:.80} is not a list"
        )
    target: Dict[int, int] = {}
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise CheckpointError(
                f"das_pearson checkpoint target entry {pair!r} is not an "
                "[element, count] pair"
            )
        element = checkpoint_int(pair[0], "das_pearson checkpoint target element")
        count = checkpoint_int(pair[1], "das_pearson checkpoint target count")
        if count < 1:
            raise CheckpointError(
                f"das_pearson checkpoint target count {count} for element "
                f"{element} is not positive"
            )
        if element in target:
            raise CheckpointError(
                f"das_pearson checkpoint target repeats element {element}"
            )
        target[element] = count
    total = sum(target.values())
    if total != window:
        raise CheckpointError(
            f"das_pearson checkpoint target counts sum to {total}, "
            f"not one {window}-element window"
        )
    return target
