"""Detector families beyond the paper's windowed grid, plus the registry.

Related-work detectors (Section 6) and post-paper changepoint families,
for comparison against the framework's instantiations:

- :mod:`repro.comparators.dhodapkar_smith` — working-set analysis with a
  fixed 100K window, skipFactor = window, threshold 0.5 (expressible as
  a framework instantiation — the paper's "Fixed Interval" family);
- :mod:`repro.comparators.lu_dynamo` — the Lu et al. dynamic-binary-
  optimizer detector: average sampled PC vs a mean±stddev interval of
  the previous seven windows;
- :mod:`repro.comparators.das_pearson` — the Das et al. detector:
  Pearson correlation between the current sample window and the
  phase's target window, against a fixed threshold;
- :mod:`repro.comparators.focus` — FOCuS, the functional-pruning CUSUM
  changepoint statistic over the hashed branch stream;
- :mod:`repro.comparators.newma` — NEWMA, the dual-forgetting-factor
  EWMA distance over hashed feature sketches.

Lu et al. and Das et al. decide once per window: their engines share
:class:`~repro.core.decision.PerWindowEngine`, whose ``window_states``
gives the retroactive per-window colouring the related-work table
scores.

The **family registry** is the one code path from a family name (the
``family`` field of :class:`~repro.core.config.DetectorConfig` and the
``family`` tag of checkpoints) to a live :class:`~repro.core.decision.DecisionEngine`:
:func:`engine_family` resolves a name to its :class:`FamilySpec`,
:func:`family_names` enumerates what is registered.  The decision
layer's :func:`~repro.core.decision.build_engine` and
:func:`~repro.core.decision.restore_engine` dispatch through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.core.config import (
    AnalyzerKind,
    DetectorConfig,
    ModelKind,
    TrailingPolicy,
)
from repro.core.decision import CheckpointError, DecisionEngine
from repro.core.runtime import DetectorRuntime

from repro.comparators.dhodapkar_smith import (
    DHODAPKAR_SMITH_THRESHOLD,
    DHODAPKAR_SMITH_WINDOW,
    dhodapkar_smith_config,
    run_dhodapkar_smith,
)
from repro.comparators.lu_dynamo import (
    LU_SIGMA,
    LU_WINDOW,
    LuDynamoEngine,
)
from repro.comparators.das_pearson import (
    DAS_THRESHOLD,
    DAS_WINDOW,
    DasPearsonEngine,
)
from repro.comparators.focus import FOCUS_STAT_THRESHOLD, FocusEngine
from repro.comparators.newma import NEWMA_STAT_THRESHOLD, NewmaEngine

__all__ = [
    "DHODAPKAR_SMITH_WINDOW",
    "dhodapkar_smith_config",
    "run_dhodapkar_smith",
    "LuDynamoEngine",
    "DasPearsonEngine",
    "FocusEngine",
    "FOCUS_STAT_THRESHOLD",
    "NewmaEngine",
    "NEWMA_STAT_THRESHOLD",
    "FamilySpec",
    "engine_family",
    "family_names",
]


@dataclass(frozen=True)
class FamilySpec:
    """One registered detector family: how to build, restore, label it.

    ``build(config, observer=..., metrics=...)`` returns a live engine;
    ``restore(data, observer=..., metrics=...)`` rebuilds one from a
    checkpoint dict; ``default_config()`` returns a runnable
    representative configuration (callers ``replace()`` fields to
    taste).  ``statistic`` documents the family's decision statistic
    and which direction means stable.
    """

    name: str
    summary: str
    statistic: str
    build: Callable[..., DecisionEngine]
    restore: Callable[..., DecisionEngine]
    default_config: Callable[[], DetectorConfig]


def _build_dhodapkar_smith(
    config: DetectorConfig, observer=None, metrics=None
) -> DecisionEngine:
    """Normalize to the Fixed-Interval windowed instantiation.

    The family name is an alias: the engine is a plain windowed
    :class:`~repro.core.runtime.DetectorRuntime` pinned to Dhodapkar &
    Smith's policies (unweighted model, threshold 0.5, skipFactor =
    TW = CW), with only ``cw_size`` taken from the caller's config.
    Its checkpoints are therefore windowed-family checkpoints.
    """
    normalized = replace(
        config,
        family="windowed",
        tw_size=config.cw_size,
        skip_factor=config.cw_size,
        trailing=TrailingPolicy.CONSTANT,
        model=ModelKind.UNWEIGHTED,
        analyzer=AnalyzerKind.THRESHOLD,
        threshold=DHODAPKAR_SMITH_THRESHOLD,
    )
    return DetectorRuntime(normalized, observer=observer, metrics=metrics)


def _restore_dhodapkar_smith(data, observer=None, metrics=None) -> DecisionEngine:
    raise CheckpointError(
        "dhodapkar_smith engines checkpoint as the windowed family; "
        "restore through repro.core.decision.restore_engine"
    )


_REGISTRY: Dict[str, FamilySpec] = {}


def _register(spec: FamilySpec) -> None:
    _REGISTRY[spec.name] = spec


_register(
    FamilySpec(
        name="windowed",
        summary="The paper's grid: windowed working-set similarity "
        "(Model x Analyzer x WindowPolicy).",
        statistic="similarity in [0, 1]; high = stable",
        build=lambda config, observer=None, metrics=None: DetectorRuntime(
            config, observer=observer, metrics=metrics
        ),
        restore=DetectorRuntime.restore,
        default_config=lambda: DetectorConfig(cw_size=250),
    )
)
_register(
    FamilySpec(
        name="focus",
        summary="FOCuS functional-pruning CUSUM over the hashed "
        "branch-frequency stream (arXiv 2110.08205).",
        statistic="max CUSUM statistic; low = stable, "
        f"bar defaults to {FOCUS_STAT_THRESHOLD}",
        build=lambda config, observer=None, metrics=None: FocusEngine(
            config, observer=observer, metrics=metrics
        ),
        restore=FocusEngine.restore,
        default_config=lambda: DetectorConfig(cw_size=250, family="focus"),
    )
)
_register(
    FamilySpec(
        name="newma",
        summary="NEWMA dual-forgetting-factor EWMA distance on hashed "
        "feature sketches (arXiv 1805.08061).",
        statistic="EWMA L2 distance; low = stable, adaptive bar = "
        f"running mean + {NEWMA_STAT_THRESHOLD} std by default",
        build=lambda config, observer=None, metrics=None: NewmaEngine(
            config, observer=observer, metrics=metrics
        ),
        restore=NewmaEngine.restore,
        default_config=lambda: DetectorConfig(cw_size=250, family="newma"),
    )
)
_register(
    FamilySpec(
        name="das_pearson",
        summary="Das et al. (CGO 2006) Pearson correlation against the "
        "phase's target window, judged once per window.",
        statistic="Pearson r; HIGH = stable, "
        f"bar defaults to {DAS_THRESHOLD}",
        build=lambda config, observer=None, metrics=None: DasPearsonEngine(
            config, observer=observer, metrics=metrics
        ),
        restore=DasPearsonEngine.restore,
        default_config=lambda: DetectorConfig(
            cw_size=DAS_WINDOW, family="das_pearson"
        ),
    )
)
_register(
    FamilySpec(
        name="lu_dynamo",
        summary="Lu et al. (JILP 2004) average-site interval test, "
        "judged once per window.",
        statistic="deviation in stddev units; low = stable, "
        f"bar defaults to {LU_SIGMA}",
        build=lambda config, observer=None, metrics=None: LuDynamoEngine(
            config, observer=observer, metrics=metrics
        ),
        restore=LuDynamoEngine.restore,
        default_config=lambda: DetectorConfig(
            cw_size=LU_WINDOW, family="lu_dynamo"
        ),
    )
)
_register(
    FamilySpec(
        name="dhodapkar_smith",
        summary="Dhodapkar & Smith (ISCA 2002) fixed-interval working "
        "sets — an alias for the windowed Fixed-Interval instantiation.",
        statistic="working-set similarity in [0, 1]; high = stable",
        build=_build_dhodapkar_smith,
        restore=_restore_dhodapkar_smith,
        default_config=lambda: DetectorConfig(
            cw_size=DHODAPKAR_SMITH_WINDOW, family="dhodapkar_smith"
        ),
    )
)


def family_names() -> List[str]:
    """Registered family names, registration order (windowed first)."""
    return list(_REGISTRY)


def engine_family(name: str) -> FamilySpec:
    """Resolve a family name to its :class:`FamilySpec`.

    Raises ``ValueError`` naming the registered families on a miss —
    the error surfaces verbatim through the CLI's ``--family`` flag.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown detector family {name!r} (registered: {known})"
        ) from None
