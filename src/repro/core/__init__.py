"""The online phase detection framework (Section 2 of the paper).

A detector is an instantiation of three orthogonal policies:

- **window policy** — CW/TW sizes, skip factor, trailing-window policy
  (Constant / Adaptive / the Fixed-Interval special case), anchoring
  (RN / LNN) and resizing (Slide / Move) — :mod:`repro.core.config`,
  :mod:`repro.core.windows`;
- **model policy** — unweighted or weighted set similarity —
  :mod:`repro.core.models`;
- **analyzer policy** — fixed Threshold or adaptive Average —
  :mod:`repro.core.analyzers`.

:class:`~repro.core.detector.PhaseDetector` is the readable reference
implementation of the framework loop; :func:`~repro.core.engine.run_detector`
is the optimized engine used by the experiment sweeps (bit-identical
output, verified by property tests).
"""

from repro.core.analyzers import (
    Analyzer,
    AverageAnalyzer,
    PhaseStats,
    ThresholdAnalyzer,
    build_analyzer,
)
from repro.core.config import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.bank import DetectorBank
from repro.core.detector import (
    DetectedPhase,
    DetectionResult,
    PhaseDetector,
    detect,
)
from repro.core.engine import run_detector
from repro.core.kernels import vectorized_eligible
from repro.core.runtime import (
    CheckpointError,
    DetectorRuntime,
    PhaseTracker,
    StepOutcome,
    validate_checkpoint,
)
from repro.core.models import (
    SimilarityModel,
    UnweightedSetModel,
    WeightedSetModel,
    build_model,
)
from repro.core.stream import StreamingDetector, detect_stream
from repro.core.prediction import (
    LastPhasePredictor,
    MarkovPhasePredictor,
    PredictionOutcome,
    evaluate_predictor,
)
from repro.core.recurrence import (
    PhaseRegistry,
    PhaseSignature,
    RecurrenceResult,
    RecurringPhase,
    RecurringPhaseDetector,
)
from repro.core.state import PhaseState

__all__ = [
    "AnalyzerKind",
    "AnchorPolicy",
    "DetectorConfig",
    "ModelKind",
    "ResizePolicy",
    "TrailingPolicy",
    "PhaseState",
    "StreamingDetector",
    "detect_stream",
    "LastPhasePredictor",
    "MarkovPhasePredictor",
    "PredictionOutcome",
    "evaluate_predictor",
    "PhaseRegistry",
    "PhaseSignature",
    "RecurrenceResult",
    "RecurringPhase",
    "RecurringPhaseDetector",
    "Analyzer",
    "ThresholdAnalyzer",
    "AverageAnalyzer",
    "PhaseStats",
    "build_analyzer",
    "SimilarityModel",
    "UnweightedSetModel",
    "WeightedSetModel",
    "build_model",
    "PhaseDetector",
    "DetectedPhase",
    "DetectionResult",
    "detect",
    "run_detector",
    "DetectorRuntime",
    "DetectorBank",
    "vectorized_eligible",
    "PhaseTracker",
    "StepOutcome",
    "CheckpointError",
    "validate_checkpoint",
]
