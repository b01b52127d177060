"""Das et al. (CGO 2006): Pearson-correlation phase detection.

Their region-monitoring system compares the current window of samples
against the phase's *target set* using Pearson's coefficient of
correlation, against a fixed threshold.  We implement the global
variant: the target is the element-frequency vector of the window that
started the current phase; each subsequent window's frequency vector is
correlated against it.  A window with correlation below the threshold
ends the phase (and the next window becomes a new target candidate).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.decision import (
    CheckpointError,
    DecisionEngine,
    PhaseDecision,
    checkpoint_bool,
    checkpoint_int,
    checkpoint_window_buffer,
)
from repro.core.state import PhaseState
from repro.profiles.trace import BranchTrace

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


@dataclass
class DasPearsonResult:
    """Per-element states plus per-window correlations (for inspection)."""

    states: np.ndarray
    correlations: List[float]


class DasPearsonDetector:
    """Streaming implementation of the Das et al. detector."""

    def __init__(
        self, window_size: int = DAS_WINDOW, threshold: float = DAS_THRESHOLD
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if not -1.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [-1, 1]")
        self.window_size = window_size
        self.threshold = threshold
        self._target: Optional[Dict[int, int]] = None

    def process_window(self, counts: Dict[int, int]) -> float:
        """Feed one window's frequency vector; returns its correlation.

        The first window after a phase break becomes the new target and
        scores 0 (transition).
        """
        if self._target is None:
            self._target = dict(counts)
            return 0.0
        correlation = pearson_correlation(counts, self._target)
        if correlation < self.threshold:
            self._target = dict(counts)
        return correlation

    def run(self, trace: BranchTrace) -> DasPearsonResult:
        """Run over a whole trace; one state per element."""
        data = trace.array
        total = int(data.size)
        states = np.zeros(total, dtype=bool)
        correlations: List[float] = []
        for start in range(0, total, self.window_size):
            window = data[start : start + self.window_size]
            counts = Counter(window.tolist())
            correlation = self.process_window(counts)
            correlations.append(correlation)
            if correlation >= self.threshold:
                states[start : start + window.size] = True
        return DasPearsonResult(states=states, correlations=correlations)


def run_das_pearson(
    trace: BranchTrace,
    window_size: int = DAS_WINDOW,
    threshold: float = DAS_THRESHOLD,
) -> DasPearsonResult:
    """Convenience one-shot run of the Das et al. detector."""
    return DasPearsonDetector(window_size, threshold).run(trace)


class DasLocalDetector:
    """The *local* variant Das et al. actually advocate: one detector
    per program region.

    Their CGO 2006 paper argues for monitoring events per region rather
    than globally, so a phase change confined to one region is not
    drowned out by stable behavior elsewhere.  We take a region to be a
    method (the natural unit our profile elements encode): the trace is
    demultiplexed by method id, each region runs its own
    :class:`DasPearsonDetector` (with the window scaled down by the
    region count so the total state is comparable), and an element is
    in phase when its *own region's* detector says so.
    """

    def __init__(
        self,
        window_size: int = DAS_WINDOW,
        threshold: float = DAS_THRESHOLD,
        min_region_elements: int = 64,
    ) -> None:
        self.window_size = window_size
        self.threshold = threshold
        self.min_region_elements = min_region_elements

    def run(self, trace: BranchTrace) -> DasPearsonResult:
        """Run per-region detection; one state per merged element."""
        from repro.profiles.element import METHOD_SHIFT

        data = trace.array
        total = int(data.size)
        states = np.zeros(total, dtype=bool)
        correlations: List[float] = []
        if total == 0:
            return DasPearsonResult(states=states, correlations=correlations)
        regions = data >> np.int64(METHOD_SHIFT)
        unique_regions = np.unique(regions)
        window = max(16, self.window_size // max(1, len(unique_regions)))
        for region in unique_regions.tolist():
            positions = np.flatnonzero(regions == region)
            if positions.size < self.min_region_elements:
                continue  # too little data to monitor; stays transition
            sub_trace = BranchTrace(data[positions], name=f"{trace.name}#m{region}")
            result = DasPearsonDetector(window, self.threshold).run(sub_trace)
            states[positions] = result.states
            correlations.extend(result.correlations)
        return DasPearsonResult(states=states, correlations=correlations)


def run_das_local(
    trace: BranchTrace,
    window_size: int = DAS_WINDOW,
    threshold: float = DAS_THRESHOLD,
) -> DasPearsonResult:
    """Convenience one-shot run of the Das et al. local-region variant."""
    return DasLocalDetector(window_size, threshold).run(trace)


class DasPearsonEngine(DecisionEngine):
    """The global Das et al. detector as a :class:`DecisionEngine`.

    An *online projection* of :class:`DasPearsonDetector`:
    ``config.cw_size`` is the sample window, elements buffer until a
    window fills, and each full window's Pearson correlation against
    the phase target updates the in-phase flag.  Because the decision
    protocol colors elements going forward, the per-element states lag
    the batch formulation (:func:`run_das_pearson`, which colors each
    window retroactively) by one window — the batch functions remain
    the faithful reference implementation.

    Statistic semantics are the correlation's: **high** means stable
    (phase at ``statistic >= bar``), the reverse of the changepoint
    families.  ``stat_threshold`` overrides :data:`DAS_THRESHOLD`.
    """

    family = "das_pearson"

    def __init__(self, config, observer=None, metrics=None) -> None:
        super().__init__(config, observer=observer, metrics=metrics)
        bar = config.stat_threshold
        self.stat_threshold = DAS_THRESHOLD if bar is None else bar
        self._window = config.cw_size
        self._detector = DasPearsonDetector(self._window, min(1.0, self.stat_threshold))
        self._buffer: List[int] = []
        self._in_phase = False

    def step(self, elements) -> "PhaseDecision":
        group_len = len(elements)
        self._consumed += group_len
        self._buffer.extend(elements)
        statistic: Optional[float] = None
        window = self._window
        while len(self._buffer) >= window:
            chunk = self._buffer[:window]
            del self._buffer[:window]
            correlation = self._detector.process_window(Counter(chunk))
            statistic = correlation
            self._in_phase = correlation >= self.stat_threshold
            observer = self._observer
            if observer is not None:
                step = self._consumed
                observer.emit(
                    {
                        "ev": "similarity",
                        "step": step,
                        "value": correlation,
                        "cw": 0,
                        "tw": 0,
                    }
                )
                observer.emit(
                    {
                        "ev": "decision",
                        "step": step,
                        "state": "P" if self._in_phase else "T",
                        "value": correlation,
                        "bar": self.stat_threshold,
                    }
                )
        entered = False
        closed = None
        if self._in_phase:
            if not self.state.is_phase():
                start = self._consumed - group_len
                self.tracker.enter(self._consumed, start, start)
                # The flag only flips at a window boundary, so a fresh
                # correlation is always in hand on enter.
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
        target = self._detector._target
        return {
            "buffer": list(self._buffer),
            "in_phase": self._in_phase,
            # Pair list keeps the dict's insertion order, which the
            # sparse Pearson's key-set iteration depends on for
            # bit-identical restores.
            "target": None if target is None else [[k, v] for k, v in target.items()],
        }

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Restore, rejecting any state ``step()`` could never reach."""
        buffer = checkpoint_window_buffer(self, payload["buffer"])
        in_phase = checkpoint_bool(
            payload["in_phase"], "das_pearson checkpoint in_phase"
        )
        if in_phase != self.state.is_phase():
            raise CheckpointError(
                f"das_pearson checkpoint in_phase={in_phase} contradicts "
                f"state {self.state.value!r}"
            )
        target = payload["target"]
        windows = self.consumed // self._window
        if target is None:
            if windows:
                raise CheckpointError(
                    f"das_pearson checkpoint has no target after {windows} windows"
                )
            restored_target = None
        else:
            if not windows:
                raise CheckpointError(
                    "das_pearson checkpoint has a target before its first window"
                )
            restored_target = _target_counts(target, self._window)
        self._buffer = buffer
        self._in_phase = in_phase
        self._detector._target = restored_target


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
