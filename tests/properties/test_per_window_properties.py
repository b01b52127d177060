"""Property-based: the per-window families' online run vs ``window_states``.

Das Pearson and Lu DYNAMO judge each full ``cw_size``-element window
once.  The online ``step()`` loop colours elements after their window
is judged, so window ``k``'s verdict first shows on element
``(k+1)·cw − 1`` — the documented one-window lag — while
``window_states`` colours each window, the partial last one included,
by its own verdict.  Both judge the same full windows in the same order
from a fresh engine, so the verdicts must agree window for window.

The routed run, chunked ``advance`` and park/rehydrate are checked
against the ``step()`` loop in ``test_oracle_harness.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DetectorConfig
from repro.core.decision import build_engine
from repro.profiles.trace import BranchTrace

FAMILIES = ("das_pearson", "lu_dynamo")

# Few distinct elements keep Pearson's and Lu's statistics lively on
# short windows; skip never exceeds cw, so each group completes at most
# one window and its state is that window's verdict.
configs = st.integers(min_value=1, max_value=24).flatmap(
    lambda cw: st.builds(
        DetectorConfig,
        family=st.sampled_from(FAMILIES),
        cw_size=st.just(cw),
        skip_factor=st.integers(min_value=1, max_value=cw),
        stat_threshold=st.one_of(
            st.none(), st.sampled_from([0.3, 0.8, 0.99, 1.5, 3.0])
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=9), max_size=400),
    config=configs,
)
def test_online_run_lags_window_states_by_one_window(trace, config):
    branch_trace = BranchTrace(trace, name="random")
    online = build_engine(config).run(branch_trace, fused=False).states
    engine = build_engine(config)
    states, statistics = engine.window_states(branch_trace)
    window = config.cw_size
    assert states.shape == online.shape
    assert statistics.shape == (-(-len(trace) // window),)
    for k in range(len(trace) // window):
        assert online[(k + 1) * window - 1] == states[k * window], k
    # One verdict per window span, the partial tail included.
    for start in range(0, len(trace), window):
        span = states[start : start + window]
        assert span.all() or not span.any()
    # window_states runs on a fresh engine and leaves this one untouched.
    assert engine.consumed == 0


#: Streams ending in a 3-element partial window whose verdict differs
#: from the last full window's, in both directions.  Das Pearson: the
#: tail shares nothing with the target / resembles the target the last
#: full window just became.  Lu DYNAMO: the tail is the second window in
#: a row off a constant history, which closes the phase / the first
#: window tested against a history the last full window just filled.
TAIL_CASES = [
    ("das_pearson", 8, [0, 0, 0, 0, 1, 1, 2, 3] * 4 + [7, 8, 9], False),
    ("das_pearson", 8, [0, 0, 0, 0, 1, 1, 2, 3] * 3 + [5, 5, 5, 5, 6, 6, 7, 8]
     + [5, 5, 6], True),
    ("lu_dynamo", 4, [2, 2, 2, 2] * 8 + [40, 40, 40, 40] + [40, 40, 40], False),
    ("lu_dynamo", 4, [2, 2, 2, 2] * 7 + [2, 2, 2], True),
]


@pytest.mark.parametrize(
    "family, window, trace, tail_in_phase",
    TAIL_CASES,
    ids=["das-closes", "das-opens", "lu-closes", "lu-opens"],
)
def test_partial_tail_window_alone_decides_the_last_span(
    family, window, trace, tail_in_phase
):
    branch_trace = BranchTrace(trace, name="tail")
    config = DetectorConfig(cw_size=window, family=family)
    tail = len(trace) - len(trace) % window
    states, _ = build_engine(config).window_states(branch_trace)
    online = build_engine(config).run(branch_trace, fused=False).states
    # The last full window's verdict is the same in both views ...
    assert (states[tail - window : tail] == (not tail_in_phase)).all()
    assert online[tail - 1] == (not tail_in_phase)
    # ... the online run never judges the tail, window_states does.
    assert (online[tail:] == (not tail_in_phase)).all()
    assert (states[tail:] == tail_in_phase).all()
    # Without the tail the last span is the full window's verdict.
    head_states, _ = build_engine(config).window_states(
        BranchTrace(trace[:tail], name="head")
    )
    np.testing.assert_array_equal(head_states, states[:tail])
