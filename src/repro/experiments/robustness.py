"""Robustness study: detector accuracy under profile corruption.

An extension experiment beyond the paper: the oracle is always solved
on the *clean* call-loop trace (the ground truth does not change when
the collection channel is lossy), while the detector sees a perturbed
branch trace.  The study sweeps a corruption parameter and reports the
score degradation per detector family — quantifying which window policy
tolerates lossy profiles best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.baseline.oracle import solve_baseline
from repro.core.config import DetectorConfig, ModelKind, TrailingPolicy
from repro.core.engine import run_detector
from repro.profiles.callloop import CallLoopTrace
from repro.profiles.perturb import inject_noise
from repro.profiles.trace import BranchTrace
from repro.scoring.metric import score_phases
from repro.scoring.states import union_phases


@dataclass(frozen=True)
class RobustnessPoint:
    """Score of one detector at one corruption level."""

    detector: str
    noise_rate: float
    score: float
    correlation: float


def noise_robustness(
    branch_trace: BranchTrace,
    call_loop: CallLoopTrace,
    mpl: int,
    noise_rates: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    detectors: Dict[str, DetectorConfig] = None,
    seed: int = 7,
) -> List[RobustnessPoint]:
    """Sweep noise injection rates; score each detector at each rate.

    The element-level noise model replaces a fraction of profile
    elements with never-seen elements, which depresses window
    similarity uniformly — the question is which policy's threshold
    margin absorbs it.
    """
    if detectors is None:
        cw = max(2, mpl // 2)
        detectors = default_robustness_detectors(cw)
    truth = union_phases(solve_baseline(call_loop, mpl).intervals())
    points: List[RobustnessPoint] = []
    for rate in noise_rates:
        corrupted = inject_noise(branch_trace, rate, seed=seed)
        for label, config in detectors.items():
            result = run_detector(corrupted, config)
            score = score_phases(
                union_phases(result.phases()), truth, result.num_elements
            )
            points.append(
                RobustnessPoint(
                    detector=label,
                    noise_rate=rate,
                    score=score.score,
                    correlation=score.correlation,
                )
            )
    return points


def default_robustness_detectors(cw: int) -> Dict[str, DetectorConfig]:
    """The study's detector set: both models under both skip-1 policies.

    The model contrast is the point of the study: unweighted
    (distinct-set) similarity dilutes as ``b / (b + r * cw)`` when a
    fraction ``r`` of window elements is unique noise, while weighted
    similarity only loses the noise's *mass* (~``r``).
    """
    return {
        "fixed-interval": DetectorConfig.fixed_interval(cw),
        "constant-unweighted": DetectorConfig(cw_size=cw, threshold=0.6),
        "adaptive-unweighted": DetectorConfig(
            cw_size=cw, trailing=TrailingPolicy.ADAPTIVE, threshold=0.6
        ),
        "constant-weighted": DetectorConfig(
            cw_size=cw, model=ModelKind.WEIGHTED, threshold=0.6
        ),
        "adaptive-weighted": DetectorConfig(
            cw_size=cw,
            model=ModelKind.WEIGHTED,
            trailing=TrailingPolicy.ADAPTIVE,
            threshold=0.6,
        ),
    }


def degradation(points: Sequence[RobustnessPoint], detector: str) -> float:
    """Score lost between the cleanest and dirtiest rate for a detector."""
    own = sorted(
        (p for p in points if p.detector == detector), key=lambda p: p.noise_rate
    )
    if len(own) < 2:
        raise ValueError(f"need at least two rates for {detector!r}")
    return own[0].score - own[-1].score
