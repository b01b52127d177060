"""Property-based: structural invariants of the optimized engine's output.

Its equivalence to the reference ``step()`` loop is checked in
``test_oracle_harness.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.engine import run_detector
from repro.profiles.trace import BranchTrace

# Small alphabets make both repetition and collisions likely.
elements = st.integers(min_value=0, max_value=12)

configs = st.builds(
    DetectorConfig,
    cw_size=st.integers(min_value=1, max_value=12),
    tw_size=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    skip_factor=st.integers(min_value=1, max_value=9),
    trailing=st.sampled_from(list(TrailingPolicy)),
    anchor=st.sampled_from(list(AnchorPolicy)),
    resize=st.sampled_from(list(ResizePolicy)),
    model=st.sampled_from(list(ModelKind)),
    analyzer=st.sampled_from(list(AnalyzerKind)),
    threshold=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    delta=st.sampled_from([0.01, 0.1, 0.3]),
    enter_threshold=st.sampled_from([0.4, 0.6]),
)


@settings(max_examples=100, deadline=None)
@given(trace=st.lists(elements, min_size=0, max_size=300), config=configs)
def test_detector_output_invariants(trace, config):
    """States/phases structural invariants hold for any input."""
    result = run_detector(BranchTrace(trace), config)
    assert result.states.shape == (len(trace),)
    previous_end = 0
    for phase in result.detected_phases:
        assert 0 <= phase.corrected_start <= phase.detected_start
        assert previous_end <= phase.detected_start < phase.end <= len(trace)
        previous_end = phase.end
    # Detected phases agree with the state array's P-runs.
    from repro.scoring.states import phases_from_states

    assert [(p.detected_start, p.end) for p in result.detected_phases] == (
        phases_from_states(result.states)
    )
