"""The fused loop's weighted numerator is pinned to the ``step()`` oracle.

``DetectorRuntime._advance_fused`` keeps the weighted model's scaled
numerator ``S = sum_e min(cw_e * T, tw_e * C)`` (``C`` / ``T`` the
CW / TW capacities) as an exact integer.  In steady state each count
change is applied as a delta ``min(a, b) - min(a -+ T, b)`` (or the
same on the TW side, ``+- C``), written as comparisons instead of
``min()``.  This file pins that arithmetic to
:meth:`~repro.core.runtime.DetectorRuntime.step` over
:class:`~repro.core.models.WeightedSetModel`:

- every weighted configuration (``cw == tw`` and ``cw != tw``, both TW
  policies, both analyzers, every anchor / resize combination) streamed
  at random chunk cuts, parked and restored at a random cut: state
  bytes, phase float bits and every checkpoint's JSON are identical;
- a table of the four steady-state deltas (CW push, CW pop, TW push,
  TW pop) plus the TW term that appears, each at its ties (``a == b``,
  ``a - T == b`` and their TW-side twins), where the similarity the
  fused loop emits must equal the oracle's bit for bit.
"""

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.runtime import DetectorRuntime

elements = st.integers(min_value=0, max_value=6)
# Repeated bodies give long phases, and so long steady-state stretches
# where the deltas (not the recompute) carry the numerator.
segments = st.one_of(
    st.lists(elements, max_size=30),
    st.tuples(
        st.lists(elements, min_size=1, max_size=6), st.integers(1, 25)
    ).map(lambda pair: pair[0] * pair[1]),
)
traces = st.lists(segments, max_size=8).map(
    lambda parts: [element for part in parts for element in part]
)

COMBINATIONS = list(
    itertools.product(
        TrailingPolicy, AnalyzerKind, AnchorPolicy, ResizePolicy, [True, False]
    )
)


def dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def phase_bits(phases):
    return [
        (p.detected_start, p.corrected_start, p.end, p.mean_similarity.hex())
        for p in phases
    ]


def drive(config, trace, cuts, park, fused):
    """Feed ``trace`` cut at ``cuts`` through the fused loop or one
    ``step()`` per element, checkpointing after every chunk and
    restoring from the checkpoint after chunk ``park``."""
    runtime = DetectorRuntime(config)
    states = bytearray(len(trace))
    checkpoints = []
    start = 0
    for index, stop in enumerate(cuts + [len(trace)]):
        chunk = trace[start:stop]
        if fused:
            runtime._advance_fused(chunk, states, start)
        else:
            for offset, element in enumerate(chunk, start):
                if runtime.step((element,)).state.is_phase():
                    states[offset] = 1
        start = stop
        blob = dumps(runtime.checkpoint())
        checkpoints.append(blob)
        if index == park:
            runtime = DetectorRuntime.restore(json.loads(blob))
    phases = runtime.finish(runtime.consumed)
    checkpoints.append(dumps(runtime.checkpoint()))
    return bytes(states), phase_bits(phases), checkpoints


@pytest.mark.parametrize(
    "trailing, analyzer, anchor, resize, equal_windows",
    COMBINATIONS,
    ids=[
        f"{t.value}-{a.value}-{an.value}-{r.value}-{'cw=tw' if eq else 'cw!=tw'}"
        for t, a, an, r, eq in COMBINATIONS
    ],
)
@settings(max_examples=25, deadline=None)
@given(
    trace=traces,
    cw=st.integers(min_value=2, max_value=9),
    tw_offset=st.integers(min_value=1, max_value=6),
    threshold=st.sampled_from([0.3, 0.5, 0.6, 0.75, 0.9]),
    delta=st.sampled_from([0.0, 0.05, 0.2]),
    cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
    park=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_fused_weighted_matches_step(
    trailing, analyzer, anchor, resize, equal_windows,
    trace, cw, tw_offset, threshold, delta, cuts, park, data,
):
    tw = cw if equal_windows else data.draw(
        st.sampled_from([max(1, cw - tw_offset), cw + tw_offset])
    )
    config = DetectorConfig(
        cw_size=cw,
        tw_size=tw,
        trailing=trailing,
        anchor=anchor,
        resize=resize,
        model=ModelKind.WEIGHTED,
        analyzer=analyzer,
        threshold=threshold,
        delta=delta,
        enter_threshold=threshold,
    )
    cuts = sorted(min(cut, len(trace)) for cut in cuts)
    assert drive(config, trace, cuts, park, fused=True) == drive(
        config, trace, cuts, park, fused=False
    )


# -- the delta arms at their ties ---------------------------------------------

#: (arm, tie, C, T, TW, CW, fed): Constant-TW windows at capacity
#: (oldest first) and two elements to feed.  The first element pays the
#: recompute every chunk starts with; the second applies the named arm
#: with operands on the named tie.
TIES = [
    ("cw_push", "a == b", 2, 3, [0, 0, 0], [0, 0], [1, 0]),
    ("cw_push", "a - T == b", 2, 2, [0, 0], [1, 0], [2, 0]),
    ("cw_pop", "a + T == b", 2, 3, [0, 0, 0], [0, 0], [1, 0]),
    ("cw_pop", "a == b", 2, 2, [0, 0], [1, 0], [0, 1]),
    ("tw_push", "b + C == a", 2, 3, [0, 0, 0], [1, 0], [0, 0]),
    ("tw_push", "a == b", 2, 2, [0, 0], [1, 0], [0, 1]),
    ("tw_pop", "b + C == a", 2, 3, [0, 0, 0], [0, 1], [0, 0]),
    ("tw_pop", "a == b", 2, 2, [0, 0], [0, 1], [0, 1]),
    ("tw_new", "a == C", 2, 2, [0, 0], [0, 1], [0, 1]),
]

TIE_HOLDS = {
    "a == b": lambda a, b, C, T: a == b,
    "a - T == b": lambda a, b, C, T: a - T == b,
    "a + T == b": lambda a, b, C, T: a + T == b,
    "b + C == a": lambda a, b, C, T: b + C == a,
    "a == C": lambda a, b, C, T: a == C,
}


def slide(cw, tw, element, C, T):
    """One steady-state step of the windows, naively.  Returns the new
    windows and each delta's operands ``(a, b)`` as the fused loop forms
    them (only the deltas whose guard lets them run)."""
    cw, tw = cw + [element], list(tw)
    cw_counts, tw_counts = Counter(cw), Counter(tw)
    operands = {}
    if tw_counts[element]:
        operands["cw_push"] = (cw_counts[element] * T, tw_counts[element] * C)
    old = cw.pop(0)
    cw_counts[old] -= 1
    old_count, old_tw = cw_counts[old], tw_counts[old]
    if old_tw:
        operands["cw_pop"] = (old_count * T, old_tw * C)
        if old_count:
            operands["tw_push"] = (old_count * T, old_tw * C)
    elif old_count:
        operands["tw_new"] = (old_count * T, C)
    tw.append(old)
    tw_counts[old] += 1
    dead = tw.pop(0)
    tw_counts[dead] -= 1
    if cw_counts[dead]:
        operands["tw_pop"] = (cw_counts[dead] * T, tw_counts[dead] * C)
    return cw, tw, operands


def similarity(cw, tw, C, T):
    cw_counts, tw_counts = Counter(cw), Counter(tw)
    numerator = sum(
        min(count * T, tw_counts[element] * C)
        for element, count in cw_counts.items()
        if element in tw_counts
    )
    return numerator / (C * T)


class Similarities:
    kinds = frozenset({"similarity"})

    def __init__(self):
        self.values = []

    def emit(self, event):
        self.values.append(event["value"])


def similarities_after(C, T, tw, cw, fed, fused):
    config = DetectorConfig(
        cw_size=C, tw_size=T, model=ModelKind.WEIGHTED, threshold=1.0
    )
    document = DetectorRuntime(config).checkpoint()
    document["consumed"] = C + T
    document["engine"] = {"filled": True, "growing": False, "cw": cw, "tw": tw}
    observer = Similarities()
    runtime = DetectorRuntime.restore(document, observer=observer)
    states = bytearray(len(fed))
    if fused:
        runtime._advance_fused(fed, states, 0)
    else:
        for element in fed:
            runtime.step((element,))
    return observer.values


@pytest.mark.parametrize(
    "arm, tie, C, T, tw, cw, fed", TIES, ids=[f"{r[0]}: {r[1]}" for r in TIES]
)
def test_delta_arm_ties(arm, tie, C, T, tw, cw, fed):
    first_cw, first_tw, _ = slide(cw, tw, fed[0], C, T)
    second_cw, second_tw, operands = slide(first_cw, first_tw, fed[1], C, T)
    a, b = operands[arm]
    assert TIE_HOLDS[tie](a, b, C, T)
    expected = [
        similarity(first_cw, first_tw, C, T),
        similarity(second_cw, second_tw, C, T),
    ]
    assert expected[0] < 1.0  # the first element opens no phase
    fused = similarities_after(C, T, tw, cw, fed, fused=True)
    reference = similarities_after(C, T, tw, cw, fed, fused=False)
    assert [value.hex() for value in fused] == [value.hex() for value in reference]
    assert fused == expected
