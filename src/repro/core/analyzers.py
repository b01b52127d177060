"""Similarity analyzers (Section 2, "Analyzer Policy").

- :class:`ThresholdAnalyzer` — P iff the similarity value meets a fixed
  threshold (the policy used by most prior work).
- :class:`AverageAnalyzer` — adapts its threshold to the phase: while in
  phase it keeps a running average of the phase's similarity values and
  reports P for values no more than ``delta`` below that average.  The
  paper specifies only the in-phase behavior; to *enter* a phase we use
  a fixed ``enter_threshold`` (see DESIGN.md).

Both analyzers also track simple phase statistics (count, mean) which a
client could use as a confidence signal — an optional framework feature
mentioned in Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import AnalyzerKind, DetectorConfig
from repro.core.state import PhaseState


@dataclass
class PhaseStats:
    """Running statistics of the decision statistic over the current phase.

    Every :class:`~repro.core.decision.DecisionEngine` keeps one (the
    windowed runtime's is its analyzer's); the closed phase's ``mean``
    becomes its ``mean_similarity``, and checkpoints carry both fields.
    """

    count: int = 0
    total: float = 0.0

    def start(self, value: float) -> None:
        """A phase opened with ``value`` as its first statistic."""
        self.count = 1
        self.total = value

    def add(self, value: float) -> None:
        """Fold one more statistic into the phase."""
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean statistic of the phase so far (0.0 before any value)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Clear the statistics (phase ended)."""
        self.count = 0
        self.total = 0.0


class Analyzer:
    """Base analyzer: maps similarity values to P/T states."""

    def __init__(self) -> None:
        self.stats = PhaseStats()

    def process_value(self, similarity: float, current_state: PhaseState) -> PhaseState:
        """Decide the new state for ``similarity`` given the current state."""
        bar = self.effective_bar(current_state)
        return PhaseState.PHASE if similarity >= bar else PhaseState.TRANSITION

    def effective_bar(self, current_state: PhaseState) -> float:
        """The threshold in force for the next decision.

        This is the diagnostic the ``decision`` observability event
        records: what value the similarity had to clear, *before* the
        decision mutates any running statistics.
        """
        raise NotImplementedError

    def reset_stats(self, seed: float) -> None:
        """A new phase started; seed the statistics with its first value."""
        self.stats.start(seed)

    def update_stats(self, similarity: float) -> None:
        """Still in phase; fold in the latest similarity value."""
        self.stats.add(similarity)

    def clear(self) -> None:
        """The phase ended; drop its statistics."""
        self.stats.reset()

    @property
    def confidence(self) -> float:
        """An optional client signal: how far the phase mean clears the
        analyzer's effective threshold (0 when no phase is active)."""
        return 0.0


class ThresholdAnalyzer(Analyzer):
    """P iff similarity >= a fixed threshold."""

    def __init__(self, threshold: float) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        super().__init__()
        self.threshold = threshold

    def effective_bar(self, current_state: PhaseState) -> float:
        return self.threshold

    @property
    def confidence(self) -> float:
        if self.stats.count == 0:
            return 0.0
        return max(0.0, self.stats.mean - self.threshold)


class AverageAnalyzer(Analyzer):
    """P iff similarity >= (running in-phase average - delta).

    Phase entry uses ``enter_threshold`` (fixed); once in phase the
    threshold adapts to the phase's own similarity level.
    """

    def __init__(self, delta: float, enter_threshold: float = 0.5) -> None:
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {delta}")
        if not 0.0 <= enter_threshold <= 1.0:
            raise ValueError(
                f"enter_threshold must be in [0, 1], got {enter_threshold}"
            )
        super().__init__()
        self.delta = delta
        self.enter_threshold = enter_threshold

    def effective_bar(self, current_state: PhaseState) -> float:
        if current_state.is_phase() and self.stats.count:
            return self.stats.mean - self.delta
        return self.enter_threshold

    @property
    def confidence(self) -> float:
        if self.stats.count == 0:
            return 0.0
        return max(0.0, self.stats.mean - (self.stats.mean - self.delta))


def build_analyzer(config: DetectorConfig) -> Analyzer:
    """Instantiate the analyzer named by ``config``."""
    if config.analyzer is AnalyzerKind.THRESHOLD:
        return ThresholdAnalyzer(config.threshold)
    return AverageAnalyzer(config.delta, config.enter_threshold)
