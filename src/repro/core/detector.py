"""The online phase detector (Figure 3's framework loop).

:class:`PhaseDetector` is the reference front over the unified
:class:`~repro.core.runtime.DetectorRuntime`: it always drives the
runtime's component-based :meth:`~repro.core.runtime.DetectorRuntime.step`
path, structured exactly like the paper's pseudo-code, and therefore
supports injected custom models/analyzers (see
:mod:`repro.core.extensions`).  The optimized path lives in the same
runtime and is what :func:`repro.core.engine.run_detector` uses; the two
are verified bit-identical by the equivalence tests.

The detector consumes ``skipFactor`` profile elements per step and
outputs its phases; the per-element states are a view of them.  It
also records, for each detected phase, the anchor-corrected start
position (Section 5 / Figure 8): once a phase is detected, the
anchoring policy identifies where in the trailing window the phase
actually began.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.analyzers import Analyzer
from repro.core.config import DetectorConfig
from repro.core.models import SimilarityModel
from repro.core.runtime import (
    DetectedPhase,
    DetectionResult,
    DetectorRuntime,
    StepOutcome,
)
from repro.core.state import PhaseState
from repro.profiles.trace import BranchTrace

__all__ = [
    "DetectedPhase",
    "DetectionResult",
    "PhaseDetector",
    "StepOutcome",
    "detect",
]


class PhaseDetector:
    """Online phase detector: one Model plus one Analyzer (Figure 3).

    ``observer`` is an optional observability sink (anything with an
    ``emit(event: dict)`` method — see :mod:`repro.obs`).  When set,
    the detector emits the structured per-step event stream documented
    in ``docs/observability.md`` — only the event types the observer's
    optional ``kinds`` names, when it carries one; when None (the
    default) no events are built at all.
    """

    def __init__(self, config: DetectorConfig, observer=None) -> None:
        self.runtime = DetectorRuntime(config, observer=observer)

    # The model/analyzer/state/observer live in the runtime; these
    # delegating properties keep the established surface, including
    # post-construction component injection (extensions, metering).

    @property
    def config(self) -> DetectorConfig:
        return self.runtime.config

    @property
    def model(self) -> SimilarityModel:
        return self.runtime.model

    @model.setter
    def model(self, value: SimilarityModel) -> None:
        self.runtime.model = value
        value.observer = self.runtime.observer

    @property
    def analyzer(self) -> Analyzer:
        return self.runtime.analyzer

    @analyzer.setter
    def analyzer(self, value: Analyzer) -> None:
        self.runtime.analyzer = value
        self.runtime.stats = value.stats

    @property
    def state(self) -> PhaseState:
        return self.runtime.state

    @state.setter
    def state(self, value: PhaseState) -> None:
        self.runtime.state = value

    @property
    def observer(self):
        return self.runtime.observer

    @observer.setter
    def observer(self, value) -> None:
        self.runtime.observer = value

    def process_profile(self, elements: Sequence[int]) -> PhaseState:
        """Consume the most recent ``skipFactor`` profile elements.

        Returns the new state, which applies to every element passed in.
        This is the framework's ``processProfile`` entry point.
        """
        return self.runtime.step(elements).state

    def finish(self, total_elements: int) -> List[DetectedPhase]:
        """All phases, any still open closed at ``total_elements`` (the
        detector itself is left as it was)."""
        return self.runtime.finish(total_elements)

    def run(self, trace: BranchTrace) -> DetectionResult:
        """Run the reference loop over a whole trace.

        The similarity each step's decision used is what an observer
        with ``kinds={"similarity"}`` receives.
        """
        return self.runtime.run(trace, fused=False)


def detect(trace: BranchTrace, config: DetectorConfig, observer=None) -> DetectionResult:
    """Convenience one-shot: run a fresh detector for ``config`` over ``trace``."""
    return PhaseDetector(config, observer=observer).run(trace)
