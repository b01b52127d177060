"""Additional models and analyzers beyond the paper's grid.

Section 7 opens with "In addition to investigating further other
algorithms for phase detection...".  The paper evaluates two corners of
the model design space — *asymmetric unweighted* and *symmetric
weighted*.  This module fills in the other two corners plus a smoother
analyzer, demonstrating how the framework extends:

- :class:`JaccardSetModel` — **symmetric unweighted**: the Jaccard
  index of the two windows' distinct-element sets.
- :class:`AsymmetricWeightedModel` — **asymmetric weighted**: the
  fraction of the CW's *mass* whose per-element relative weight is
  covered by the TW (biased toward the CW like the paper's unweighted
  model, frequency-sensitive like its weighted one).
- :class:`EwmaAnalyzer` — an exponentially-weighted moving-average
  analyzer: like the Average analyzer but forgetting old values, so a
  slowly drifting phase does not accumulate a stale mean.

All three are drop-in: build a detector with
:func:`build_extended_detector` or plug them into
:class:`~repro.core.detector.PhaseDetector` manually.
"""

from __future__ import annotations

from typing import Optional

from repro.core.analyzers import Analyzer
from repro.core.config import DetectorConfig
from repro.core.detector import PhaseDetector
from repro.core.models import SimilarityModel
from repro.core.state import PhaseState


class JaccardSetModel(SimilarityModel):
    """Symmetric unweighted similarity: |CW ∩ TW| / |CW ∪ TW| (distinct).

    Unlike the paper's asymmetric working-set model, elements unique to
    the *trailing* window also lower the similarity — useful when a
    client cares about behavior disappearing, not only appearing.
    """

    def __init__(self, cw_capacity: int, tw_capacity: int) -> None:
        self._distinct_cw = 0
        self._distinct_tw = 0
        self._shared = 0
        super().__init__(cw_capacity, tw_capacity)

    def _reset_aggregates(self) -> None:
        self._distinct_cw = 0
        self._distinct_tw = 0
        self._shared = 0

    def _rebuild_aggregates(self) -> None:
        self._distinct_cw = len(self.cw_counts)
        self._distinct_tw = len(self.tw_counts)
        self._shared = len(self.cw_counts.keys() & self.tw_counts.keys())

    def _on_cw_add(self, element: int, new_count: int) -> None:
        if new_count == 1:
            self._distinct_cw += 1
            if element in self.tw_counts:
                self._shared += 1

    def _on_cw_remove(self, element: int, new_count: int) -> None:
        if new_count == 0:
            self._distinct_cw -= 1
            if element in self.tw_counts:
                self._shared -= 1

    def _on_tw_add(self, element: int, new_count: int) -> None:
        if new_count == 1:
            self._distinct_tw += 1
            if element in self.cw_counts:
                self._shared += 1

    def _on_tw_remove(self, element: int, new_count: int) -> None:
        if new_count == 0:
            self._distinct_tw -= 1
            if element in self.cw_counts:
                self._shared -= 1

    def similarity(self) -> float:
        union = self._distinct_cw + self._distinct_tw - self._shared
        if union == 0:
            return 0.0
        return self._shared / union


class AsymmetricWeightedModel(SimilarityModel):
    """Asymmetric weighted similarity.

    ``sum_e min(w_cw(e), w_tw(e)) / sum_e w_cw(e)`` over the CW's
    elements — i.e. the fraction of the CW's weight distribution the TW
    covers.  Because ``sum_e w_cw(e) = 1`` this reduces to the paper's
    symmetric sum, but the *bias* differs: mass the TW has beyond the
    CW's (the ``d`` element of the paper's example) never matters, and
    neither does TW-relative dilution of shared mass below the CW's —
    we renormalize the TW to its restriction to the CW's support.
    """

    def similarity(self) -> float:
        cw_length = len(self._cw)
        tw_length = len(self._tw)
        if cw_length == 0 or tw_length == 0:
            return 0.0
        tw_counts = self.tw_counts
        # TW mass restricted to the CW's support.
        restricted = sum(
            tw_counts[element] for element in self.cw_counts if element in tw_counts
        )
        if restricted == 0:
            return 0.0
        total = 0.0
        for element, cw_count in self.cw_counts.items():
            tw_count = tw_counts.get(element)
            if tw_count is not None:
                total += min(cw_count * restricted, tw_count * cw_length)
        return total / (cw_length * restricted)


class EwmaAnalyzer(Analyzer):
    """P iff similarity >= (EWMA of recent in-phase values − delta).

    ``alpha`` controls the memory: 1.0 degenerates to "compare against
    the previous value", small alpha approaches the running average.
    Entry uses a fixed threshold like the Average analyzer.
    """

    def __init__(
        self, delta: float, alpha: float = 0.2, enter_threshold: float = 0.5
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {delta}")
        if not 0.0 <= enter_threshold <= 1.0:
            raise ValueError(f"enter_threshold must be in [0, 1], got {enter_threshold}")
        super().__init__()
        self.delta = delta
        self.alpha = alpha
        self.enter_threshold = enter_threshold
        self._ewma: Optional[float] = None

    def effective_bar(self, current_state: PhaseState) -> float:
        if current_state.is_phase() and self._ewma is not None:
            return self._ewma - self.delta
        return self.enter_threshold

    def reset_stats(self, seed: float) -> None:
        super().reset_stats(seed)
        self._ewma = seed

    def update_stats(self, similarity: float) -> None:
        super().update_stats(similarity)
        assert self._ewma is not None
        self._ewma = (1 - self.alpha) * self._ewma + self.alpha * similarity

    def clear(self) -> None:
        super().clear()
        self._ewma = None


class HysteresisAnalyzer(Analyzer):
    """Dual-threshold analyzer: enter high, leave low.

    A classic debouncing design real VMs use: a phase starts only when
    similarity reaches ``enter_threshold`` but survives until it falls
    below the lower ``exit_threshold`` — short similarity dips inside a
    phase (warm-up jitter, an unrolled cold path) don't end it, while
    entry stays conservative.
    """

    def __init__(self, enter_threshold: float = 0.7, exit_threshold: float = 0.5) -> None:
        if not 0.0 <= exit_threshold <= enter_threshold <= 1.0:
            raise ValueError(
                "need 0 <= exit_threshold <= enter_threshold <= 1, got "
                f"exit={exit_threshold}, enter={enter_threshold}"
            )
        super().__init__()
        self.enter_threshold = enter_threshold
        self.exit_threshold = exit_threshold

    def effective_bar(self, current_state: PhaseState) -> float:
        if current_state.is_phase():
            return self.exit_threshold
        return self.enter_threshold


def build_extended_detector(
    config: DetectorConfig,
    model: Optional[SimilarityModel] = None,
    analyzer: Optional[Analyzer] = None,
) -> PhaseDetector:
    """A PhaseDetector with extension components swapped in.

    ``config`` still controls the window policy (and any component not
    overridden).
    """
    detector = PhaseDetector(config)
    if model is not None:
        detector.model = model
    if analyzer is not None:
        detector.analyzer = analyzer
    return detector
