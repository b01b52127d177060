"""The fused loop's weighted numerator at the ties of its delta arms.

``DetectorRuntime._advance_fused`` keeps the weighted model's scaled
numerator ``S = sum_e min(cw_e * T, tw_e * C)`` (``C`` / ``T`` the
CW / TW capacities) as an exact integer.  In steady state each count
change is applied as a delta ``min(a, b) - min(a -+ T, b)`` (or the
same on the TW side, ``+- C``), written as comparisons instead of
``min()``.  ``test_oracle_harness.py`` pins the fused loop to
:meth:`~repro.core.runtime.DetectorRuntime.step` over every weighted
configuration at random chunk cuts and park points; this file adds a
table of the four steady-state deltas (CW push, CW pop, TW push, TW
pop) plus the TW term that appears, each at its ties (``a == b``,
``a - T == b`` and their TW-side twins), where the similarity the
fused loop emits must equal the oracle's bit for bit.
"""

from collections import Counter

import pytest

from repro.core import DetectorConfig, ModelKind
from repro.core.runtime import DetectorRuntime

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
