"""The per-spec reference the sweep tests compare banked records with.

One solo :func:`~repro.core.engine.run_detector` run per grid point,
scored at each MPL with :func:`~repro.scoring.metric.score_phases` on
the P-runs of the result's and the oracle's state arrays.
"""

from repro.core.engine import run_detector
from repro.experiments.runner import SweepRecord
from repro.scoring.metric import score_phases
from repro.scoring.states import phases_from_states


def solo_records(trace, baselines, spec, profile, kernels=True):
    """One :class:`SweepRecord` per MPL for ``spec`` run alone."""
    result = run_detector(trace, spec.to_config(profile), kernels=kernels)
    detected = phases_from_states(result.states)
    records = []
    for nominal in baselines.mpl_nominals:
        truth = phases_from_states(baselines.states(nominal))
        plain = score_phases(detected, truth, result.num_elements)
        corrected = score_phases(result.corrected_phases(), truth, result.num_elements)
        records.append(
            SweepRecord(
                benchmark=baselines.name,
                family=spec.family,
                cw_nominal=spec.cw_nominal,
                model=spec.model.value,
                analyzer=spec.analyzer_label(),
                anchor=spec.anchor.value,
                resize=spec.resize.value,
                mpl_nominal=nominal,
                score=plain.score,
                correlation=plain.correlation,
                sensitivity=plain.sensitivity,
                false_positives=plain.false_positives,
                corrected_score=corrected.score,
                num_detected_phases=plain.num_detected_phases,
                num_baseline_phases=plain.num_baseline_phases,
            )
        )
    return records
