"""Optimized detector entry point.

:func:`run_detector` builds the engine for one configuration and runs
it over a whole trace with
:meth:`~repro.core.decision.DecisionEngine.run`, letting it take the
vectorized kernels or the optimized fused path (the inlined
window/count loop described in :mod:`repro.core.runtime`).  Output is identical to the reference
:class:`~repro.core.detector.PhaseDetector` — verified by the
equivalence tests in ``tests/core/`` — at several times the speed; this
is what the experiment sweeps call.  For many configurations over one
trace, prefer :class:`~repro.core.bank.DetectorBank`, which decodes and
chunks the trace once.
"""

from __future__ import annotations

from repro.core.config import DetectorConfig
from repro.core.decision import DetectionResult, build_engine
from repro.profiles.trace import BranchTrace

__all__ = ["run_detector"]


def run_detector(
    trace: BranchTrace,
    config: DetectorConfig,
    observer=None,
    kernels: bool = True,
) -> DetectionResult:
    """Run ``config`` over ``trace`` with the optimized runtime path.

    The engine is whatever ``config.family`` names (the windowed
    :class:`~repro.core.runtime.DetectorRuntime` by default — see
    :func:`repro.core.decision.build_engine`).

    ``observer`` is an optional observability sink (see
    :mod:`repro.obs`); it receives the identical event stream the
    reference :class:`~repro.core.detector.PhaseDetector` emits.  The
    default ``None`` keeps the hot loop free of event construction —
    the only added cost is one ``is not None`` test per step.

    ``kernels=False`` forces the fused loop (the ``step()`` loop for
    non-window families).  By default windowed Threshold-analyzer
    configs — Constant *and* Adaptive trailing, unweighted *and*
    weighted, any geometry — and NEWMA configs take the vectorized
    whole-trace path when unobserved, as a bank of one; everything else
    (the Average analyzer, observed runs, the other families) takes the
    fused or ``step()`` loop, with bit-identical results either way
    (see ``docs/performance.md`` for the eligibility matrix).
    """
    return build_engine(config, observer=observer).run(trace, kernels=kernels)
