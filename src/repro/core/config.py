"""Detector configuration: the framework's three orthogonal design choices.

A concrete online phase detection algorithm is a :class:`DetectorConfig`:
a window policy (CW size, TW size, skip factor, trailing-window policy,
anchoring and resizing for the Adaptive TW), a model policy (unweighted
or weighted set), and an analyzer policy (fixed Threshold or adaptive
Average).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple


class TrailingPolicy(enum.Enum):
    """How the trailing window behaves (Section 2 / Figure 2)."""

    CONSTANT = "constant"
    ADAPTIVE = "adaptive"


class AnchorPolicy(enum.Enum):
    """Where the anchor point is placed at phase start (Section 5)."""

    RN = "rn"    # one element right of the rightmost noisy element
    LNN = "lnn"  # at the leftmost non-noisy element


class ResizePolicy(enum.Enum):
    """How windows are resized at the anchor point (Section 5)."""

    SLIDE = "slide"  # slide the TW right, shrinking the CW
    MOVE = "move"    # move the TW's left boundary right, CW unaffected


class ModelKind(enum.Enum):
    """Similarity model policy (Section 2)."""

    UNWEIGHTED = "unweighted"  # asymmetric working-set similarity
    WEIGHTED = "weighted"      # symmetric min-relative-weight similarity


class AnalyzerKind(enum.Enum):
    """Similarity analyzer policy (Section 2)."""

    THRESHOLD = "threshold"  # fixed threshold
    AVERAGE = "average"      # running in-phase average minus a delta


@dataclass(frozen=True)
class DetectorConfig:
    """Full parameterization of one online phase detector.

    Attributes:
        cw_size: current-window size in profile elements.
        tw_size: trailing-window (initial) size; defaults to ``cw_size``.
        skip_factor: number of profile elements consumed per step.
        trailing: trailing-window policy.
        anchor: anchor policy (Adaptive TW phase starts; also used for
            the anchor-corrected boundaries of Figure 8).
        resize: resize policy applied at the anchor point (Adaptive TW).
        model: similarity model policy.
        analyzer: similarity analyzer policy.
        threshold: the fixed threshold (Threshold analyzer).
        delta: the below-average delta (Average analyzer).
        enter_threshold: similarity needed to *enter* a phase under the
            Average analyzer (the paper specifies only the in-phase
            behavior; see DESIGN.md for this interpretation).
        family: which detector family interprets this configuration —
            ``"windowed"`` (the paper's grid, the default) or a name
            from the :mod:`repro.comparators` registry (``"focus"``,
            ``"newma"``, ...).  Non-windowed families read ``cw_size``
            as their warm-up/window scale and ``skip_factor`` as the
            elements-per-step group size; the window-policy fields are
            ignored.
        stat_threshold: the changepoint families' decision bar (FOCuS
            statistic / NEWMA distance).  ``None`` picks the family's
            documented default.
        newma_fast: NEWMA's fast forgetting factor (lambda).
        newma_slow: NEWMA's slow forgetting factor (Lambda); must be
            below ``newma_fast``.
        sketch_dim: NEWMA's hashed feature-sketch dimensionality.
    """

    cw_size: int
    tw_size: Optional[int] = None
    skip_factor: int = 1
    trailing: TrailingPolicy = TrailingPolicy.CONSTANT
    anchor: AnchorPolicy = AnchorPolicy.RN
    resize: ResizePolicy = ResizePolicy.SLIDE
    model: ModelKind = ModelKind.UNWEIGHTED
    analyzer: AnalyzerKind = AnalyzerKind.THRESHOLD
    threshold: float = 0.5
    delta: float = 0.05
    enter_threshold: float = 0.5
    family: str = "windowed"
    stat_threshold: Optional[float] = None
    newma_fast: float = 0.2
    newma_slow: float = 0.05
    sketch_dim: int = 64

    def __post_init__(self) -> None:
        if self.cw_size <= 0:
            raise ValueError(f"cw_size must be positive, got {self.cw_size}")
        if self.tw_size is not None and self.tw_size <= 0:
            raise ValueError(f"tw_size must be positive, got {self.tw_size}")
        if self.skip_factor <= 0:
            raise ValueError(f"skip_factor must be positive, got {self.skip_factor}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if not 0.0 <= self.enter_threshold <= 1.0:
            raise ValueError(
                f"enter_threshold must be in [0, 1], got {self.enter_threshold}"
            )
        if not self.family or not isinstance(self.family, str):
            raise ValueError(f"family must be a non-empty string, got {self.family!r}")
        if self.stat_threshold is not None and self.stat_threshold <= 0.0:
            raise ValueError(
                f"stat_threshold must be positive, got {self.stat_threshold}"
            )
        if not 0.0 < self.newma_slow < self.newma_fast < 1.0:
            raise ValueError(
                "need 0 < newma_slow < newma_fast < 1, got "
                f"slow={self.newma_slow}, fast={self.newma_fast}"
            )
        if self.sketch_dim <= 0:
            raise ValueError(f"sketch_dim must be positive, got {self.sketch_dim}")

    @property
    def is_windowed(self) -> bool:
        """True for the paper's windowed grid (the default family)."""
        return self.family == "windowed"

    @property
    def effective_tw_size(self) -> int:
        """The TW's (initial) size: ``tw_size`` or, if unset, ``cw_size``."""
        return self.tw_size if self.tw_size is not None else self.cw_size

    @property
    def is_fixed_interval(self) -> bool:
        """The extant-work configuration: Constant TW with skip = CW size."""
        return (
            self.trailing is TrailingPolicy.CONSTANT
            and self.skip_factor == self.cw_size
            and self.effective_tw_size == self.cw_size
        )

    @staticmethod
    def fixed_interval(
        cw_size: int,
        model: ModelKind = ModelKind.UNWEIGHTED,
        analyzer: AnalyzerKind = AnalyzerKind.THRESHOLD,
        threshold: float = 0.5,
        delta: float = 0.05,
    ) -> "DetectorConfig":
        """Build the Fixed-Interval configuration used by prior work.

        ``skipFactor`` = TW size = CW size (Dhodapkar & Smith and others).
        """
        return DetectorConfig(
            cw_size=cw_size,
            tw_size=cw_size,
            skip_factor=cw_size,
            trailing=TrailingPolicy.CONSTANT,
            model=model,
            analyzer=analyzer,
            threshold=threshold,
            delta=delta,
        )

    def key(self) -> Tuple:
        """A compact, hashable cache key for this configuration."""
        base = (
            self.cw_size,
            self.effective_tw_size,
            self.skip_factor,
            self.trailing.value,
            self.anchor.value,
            self.resize.value,
            self.model.value,
            self.analyzer.value,
            round(self.threshold, 6),
            round(self.delta, 6),
            round(self.enter_threshold, 6),
        )
        if self.is_windowed:
            return base
        return base + (
            self.family,
            None if self.stat_threshold is None else round(self.stat_threshold, 6),
            round(self.newma_fast, 6),
            round(self.newma_slow, 6),
            self.sketch_dim,
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict of every field (detector checkpoints and the
        serve layer's ``open`` message)."""
        return {
            "cw_size": self.cw_size,
            "tw_size": self.tw_size,
            "skip_factor": self.skip_factor,
            "trailing": self.trailing.value,
            "anchor": self.anchor.value,
            "resize": self.resize.value,
            "model": self.model.value,
            "analyzer": self.analyzer.value,
            "threshold": self.threshold,
            "delta": self.delta,
            "enter_threshold": self.enter_threshold,
            "family": self.family,
            "stat_threshold": self.stat_threshold,
            "newma_fast": self.newma_fast,
            "newma_slow": self.newma_slow,
            "sketch_dim": self.sketch_dim,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DetectorConfig":
        """Inverse of :meth:`to_dict`; validates via ``__post_init__``."""
        stat_threshold = data.get("stat_threshold")
        return cls(
            cw_size=int(data["cw_size"]),
            tw_size=None if data.get("tw_size") is None else int(data["tw_size"]),
            skip_factor=int(data.get("skip_factor", 1)),
            trailing=TrailingPolicy(data["trailing"]),
            anchor=AnchorPolicy(data["anchor"]),
            resize=ResizePolicy(data["resize"]),
            model=ModelKind(data["model"]),
            analyzer=AnalyzerKind(data["analyzer"]),
            threshold=float(data["threshold"]),
            delta=float(data["delta"]),
            enter_threshold=float(data["enter_threshold"]),
            family=str(data.get("family", "windowed")),
            stat_threshold=None if stat_threshold is None else float(stat_threshold),
            newma_fast=float(data.get("newma_fast", 0.2)),
            newma_slow=float(data.get("newma_slow", 0.05)),
            sketch_dim=int(data.get("sketch_dim", 64)),
        )

    def describe(self) -> str:
        """A short human-readable label for reports."""
        if not self.is_windowed:
            bar = "auto" if self.stat_threshold is None else f"{self.stat_threshold}"
            label = (
                f"{self.family} cw={self.cw_size},skip={self.skip_factor} "
                f"stat_thr={bar}"
            )
            if self.family == "newma":
                label += (
                    f" fast={self.newma_fast},slow={self.newma_slow}"
                    f",dim={self.sketch_dim}"
                )
            return label
        window = f"cw={self.cw_size},tw={self.effective_tw_size},skip={self.skip_factor}"
        policy = self.trailing.value
        if self.trailing is TrailingPolicy.ADAPTIVE:
            policy += f"[{self.anchor.value},{self.resize.value}]"
        if self.analyzer is AnalyzerKind.THRESHOLD:
            analyzer = f"thr={self.threshold}"
        else:
            analyzer = f"avg(delta={self.delta})"
        return f"{policy} {window} {self.model.value} {analyzer}"

    def scaled(self, factor: float) -> "DetectorConfig":
        """Return a copy with window sizes and skip scaled by ``factor``.

        Used to map the paper's nominal parameter grid onto shorter
        traces; sizes are rounded and floored at 1.
        """
        def _scale(value: int) -> int:
            return max(1, round(value * factor))

        return replace(
            self,
            cw_size=_scale(self.cw_size),
            tw_size=None if self.tw_size is None else _scale(self.tw_size),
            skip_factor=_scale(self.skip_factor) if self.skip_factor > 1 else 1,
        )
