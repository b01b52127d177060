"""Checkpoints: what ``step()`` can reach restores, nothing else does.

Park/rehydrate being invisible bit for bit — at random chunk
boundaries, as a fixed point of restore, and after a whole-trace
``run()`` — is checked for every family in ``test_oracle_harness.py``.
This file holds the other side of the contract: a checkpoint holding a
state ``step()`` could never reach is rejected at restore time with
``CheckpointError`` — a malformed windowed, FOCuS, NEWMA, Das Pearson
or Lu DYNAMO payload, and in any family an envelope whose statistics or
phases are impossible, or whose state and open phase disagree — while
real checkpoints, ``finish()`` included, restore with no exemption.
"""

import json

import pytest

from repro.core.config import DetectorConfig, TrailingPolicy
from repro.core.decision import CheckpointError, build_engine, restore_engine
from repro.profiles.trace import BranchTrace


@pytest.mark.parametrize("family", ["das_pearson", "lu_dynamo"])
@pytest.mark.parametrize("reference", [False, True], ids=["routed", "reference"])
def test_per_window_checkpoint_after_finish_restores(family, reference):
    """``finish()`` closes the phase only in the result it returns, so
    the engine after a run is one ``step()`` reaches: in phase, flag
    set, and its checkpoint restores as a fixed point."""
    engine = build_engine(DetectorConfig(cw_size=2, family=family))
    result = engine.run(BranchTrace([0] * 40), fused=False if reference else None)
    assert result.detected_phases[-1].end == 40
    data = json.loads(json.dumps(engine.checkpoint()))
    assert data["state"] == "P" and data["engine"]["in_phase"] is True
    assert restore_engine(data).checkpoint() == data
    # A flag set outside a phase is rejected: what a finish() that
    # closed the phase in the engine used to leave behind.
    data.update(state="T", open_phase=None)
    data["stats"]["count"] = 0
    with pytest.raises(CheckpointError, match="contradicts"):
        restore_engine(data)


# -- malformed FOCuS checkpoints fail at restore time -------------------------

FOCUS_STREAM = [0, 1, 2, 3] * 20 + [5, 9, 5, 9] * 15


def focus_checkpoint(length):
    """A real FOCuS checkpoint after ``length`` elements (warm-up 8)."""
    engine = build_engine(DetectorConfig(family="focus", cw_size=8))
    engine.advance(FOCUS_STREAM[:length])
    return json.loads(json.dumps(engine.checkpoint()))


def test_real_focus_checkpoints_restore():
    for length in (0, 3, 8, 40, len(FOCUS_STREAM)):
        data = focus_checkpoint(length)
        assert restore_engine(data).checkpoint() == data


def _late_hull_vertex(engine):
    engine["pos"].append([engine["t"] + 1, engine["cum"]])


@pytest.mark.parametrize(
    "length, edit, match",
    [
        # each of these used to fail only mid-stream, with an untyped error
        pytest.param(40, _late_hull_vertex, "pos hull", id="hull-past-t"),
        pytest.param(40, lambda e: e.update(sigma=0.0), "sigma", id="zero-sigma"),
        pytest.param(40, lambda e: e.update(mu=None), "mu", id="no-mu"),
        pytest.param(40, lambda e: e.update(neg=5), "neg hull", id="scalar-hull"),
        pytest.param(
            40, lambda e: e.update(warmup_left=-3), "warmup_left", id="negative-warmup"
        ),
        pytest.param(40, lambda e: e.update(pos=[]), "pos hull", id="empty-hull"),
        # and the rest of the invariants
        pytest.param(
            3, lambda e: e.update(warmup_left=9), "warmup_left", id="long-warmup"
        ),
        pytest.param(
            3, lambda e: e["baseline"].update(n=2), "baseline.n", id="baseline-count"
        ),
        pytest.param(
            3, lambda e: e.update(mu=0.0, sigma=1.0), "warming up", id="early-mu"
        ),
        pytest.param(3, lambda e: e.update(t=2), "warming up", id="early-t"),
        pytest.param(
            0, lambda e: e["baseline"].update(mean=0.5), "moments", id="early-mean"
        ),
        pytest.param(
            40, lambda e: e.update(sigma=float("inf")), "sigma", id="infinite-sigma"
        ),
        pytest.param(40, lambda e: e.update(mu="0.5"), "mu", id="string-mu"),
        pytest.param(40, lambda e: e.update(t=-1), "pos hull", id="negative-t"),
        pytest.param(
            40, lambda e: e["neg"].insert(0, [0, 1.0]), "neg hull", id="bad-origin"
        ),
        pytest.param(
            40, lambda e: e["neg"].insert(1, [0, 0.0]), "increasing", id="repeated-t"
        ),
        pytest.param(40, lambda e: e["pos"].insert(0, [0]), "pair", id="short-vertex"),
        pytest.param(
            40, lambda e: e["pos"][-1].__setitem__(0, 0.5), "int", id="float-time"
        ),
    ],
)
def test_malformed_focus_checkpoint_is_rejected(length, edit, match):
    data = focus_checkpoint(length)
    edit(data["engine"])
    with pytest.raises(CheckpointError, match=match):
        restore_engine(data)


# -- malformed NEWMA checkpoints fail at restore time --------------------------


def newma_checkpoint(length=len(FOCUS_STREAM)):
    """A real NEWMA checkpoint after ``length`` elements (warm-up 8)."""
    engine = build_engine(DetectorConfig(family="newma", cw_size=8))
    engine.advance(FOCUS_STREAM[:length])
    return json.loads(json.dumps(engine.checkpoint()))


def test_real_newma_checkpoints_restore():
    for length in (0, 3, 8, 9, 40, len(FOCUS_STREAM)):
        data = newma_checkpoint(length)
        assert restore_engine(data).checkpoint() == data


@pytest.mark.parametrize(
    "edit, match",
    [
        # each of these used to be accepted
        pytest.param(
            lambda e: e.update(warmup_left=-5), "warmup_left", id="negative-warmup"
        ),
        pytest.param(
            lambda e: e.update(warmup_left=9), "warmup_left", id="long-warmup"
        ),
        pytest.param(
            lambda e: e.update(warmup_left="3"), "warmup_left", id="string-warmup"
        ),
        pytest.param(
            lambda e: e.update(stat_var=float("nan")), "stat_var", id="nan-var"
        ),
        pytest.param(lambda e: e.update(stat_var=-1.0), "stat_var", id="negative-var"),
        pytest.param(
            lambda e: e.update(stat_mean=float("inf")), "stat_mean",
            id="infinite-mean",
        ),
        pytest.param(
            lambda e: e.update(stat_seen="no"), "stat_seen", id="string-seen"
        ),
        pytest.param(
            lambda e: e["fast"].__setitem__(0, float("nan")), "fast entry",
            id="nan-fast",
        ),
        pytest.param(
            lambda e: e["slow"].__setitem__(0, "0.5"), "slow entry", id="string-slow"
        ),
    ],
)
def test_malformed_newma_checkpoint_is_rejected(edit, match):
    data = newma_checkpoint()
    edit(data["engine"])
    with pytest.raises(CheckpointError, match=match):
        restore_engine(data)


# -- malformed Das Pearson / Lu DYNAMO checkpoints fail at restore time --------

#: One repeated body: Das Pearson (cw 8) and Lu DYNAMO (cw 4) are both
#: in phase well before the end, with a partial window pending.
WINDOW_STREAM = [0, 1, 2, 3] * 10 + [0, 1, 2]
WINDOW_CONFIGS = {
    "das_pearson": DetectorConfig(family="das_pearson", cw_size=8),
    "lu_dynamo": DetectorConfig(family="lu_dynamo", cw_size=4),
}


def window_checkpoint(family, length=len(WINDOW_STREAM)):
    engine = build_engine(WINDOW_CONFIGS[family])
    engine.advance(WINDOW_STREAM[:length])
    return json.loads(json.dumps(engine.checkpoint()))


@pytest.mark.parametrize("family", sorted(WINDOW_CONFIGS))
def test_real_window_checkpoints_restore(family):
    for length in range(len(WINDOW_STREAM) + 1):
        data = window_checkpoint(family, length)
        assert restore_engine(data).checkpoint() == data
    assert data["state"] == "P"


def _repeat_first_target_entry(engine):
    engine["target"].append(list(engine["target"][0]))


@pytest.mark.parametrize(
    "family, edit, match",
    [
        # each of these used to be accepted
        pytest.param(
            "das_pearson", lambda e: e["buffer"].extend([0] * 8), "buffer",
            id="das-long-buffer",
        ),
        pytest.param(
            "das_pearson", lambda e: e["target"][0].__setitem__(1, 0), "positive",
            id="das-zero-count",
        ),
        pytest.param(
            "das_pearson", lambda e: e["target"][0].__setitem__(1, -2), "positive",
            id="das-negative-count",
        ),
        pytest.param(
            "das_pearson", _repeat_first_target_entry, "repeats",
            id="das-duplicate-count",
        ),
        pytest.param(
            "das_pearson", lambda e: e.update(in_phase="no"), "in_phase",
            id="das-string-in-phase",
        ),
        # this one used to raise a bare TypeError
        pytest.param(
            "das_pearson", lambda e: e.update(buffer=5), "buffer", id="das-scalar-buffer"
        ),
        # and the rest of the invariants
        pytest.param(
            "das_pearson", lambda e: e["target"][0].__setitem__(1, 3), "sum",
            id="das-target-sum",
        ),
        pytest.param(
            "das_pearson", lambda e: e.update(target=None), "no target",
            id="das-lost-target",
        ),
        pytest.param(
            "das_pearson", lambda e: e.update(in_phase=False), "contradicts",
            id="das-flag-vs-state",
        ),
        pytest.param(
            "lu_dynamo", lambda e: e["buffer"].extend([0] * 4), "buffer",
            id="lu-long-buffer",
        ),
        pytest.param(
            "lu_dynamo", lambda e: e.update(in_phase="no"), "in_phase",
            id="lu-string-in-phase",
        ),
        pytest.param(
            "lu_dynamo", lambda e: e["averages"].__setitem__(0, float("nan")),
            "finite", id="lu-nan-average",
        ),
        pytest.param(
            "lu_dynamo", lambda e: e["averages"].__setitem__(0, float("inf")),
            "finite", id="lu-infinite-average",
        ),
        pytest.param(
            "lu_dynamo", lambda e: e["averages"].append(1.0), "averages",
            id="lu-long-history",
        ),
        pytest.param(
            "lu_dynamo", lambda e: e.update(streak=-1), "streak", id="lu-negative-streak"
        ),
        pytest.param(
            "lu_dynamo", lambda e: e.update(buffer=5), "buffer", id="lu-scalar-buffer"
        ),
        pytest.param(
            "lu_dynamo", lambda e: e.update(streak=2), "streak", id="lu-spent-streak"
        ),
        pytest.param(
            "lu_dynamo", lambda e: e.update(averages=e["averages"][:3]), "only 3",
            id="lu-short-history",
        ),
    ],
)
def test_malformed_window_checkpoint_is_rejected(family, edit, match):
    data = window_checkpoint(family)
    edit(data["engine"])
    with pytest.raises(CheckpointError, match=match):
        restore_engine(data)


# -- malformed windowed checkpoints fail at restore time -----------------------


def windowed_checkpoint(length, trailing=TrailingPolicy.CONSTANT):
    """A real windowed checkpoint (cw 8) after ``length`` elements of
    ``FOCUS_STREAM``: in transition with part-filled windows at 12, in
    transition after one closed phase at 100, in phase at 140."""
    engine = build_engine(DetectorConfig(cw_size=8, trailing=trailing))
    engine.advance(FOCUS_STREAM[:length])
    return json.loads(json.dumps(engine.checkpoint()))


def test_real_windowed_checkpoints_restore():
    for trailing in TrailingPolicy:
        for length in range(len(FOCUS_STREAM) + 1):
            data = windowed_checkpoint(length, trailing)
            assert restore_engine(data).checkpoint() == data


def _set_first_cw_element(value):
    return lambda d: d["engine"]["cw"].__setitem__(0, value)


@pytest.mark.parametrize(
    "length, trailing, edit, match",
    [
        # each of these used to be accepted
        pytest.param(
            140, TrailingPolicy.CONSTANT,
            lambda d: d["engine"].update(cw=d["engine"]["cw"] * 10), "cw holds",
            id="ten-fold-cw",
        ),
        pytest.param(
            140, TrailingPolicy.CONSTANT,
            lambda d: d["engine"].update(filled=False), "filled", id="unfilled-full",
        ),
        pytest.param(
            140, TrailingPolicy.CONSTANT,
            lambda d: d["engine"].update(growing=True), "growing", id="growing-constant",
        ),
        pytest.param(
            100, TrailingPolicy.ADAPTIVE,
            lambda d: d["engine"].update(growing=True), "growing",
            id="growing-in-transition",
        ),
        pytest.param(
            140, TrailingPolicy.CONSTANT, _set_first_cw_element(1.5), "not an int",
            id="float-element",
        ),
        pytest.param(
            12, TrailingPolicy.CONSTANT,
            lambda d: d["engine"]["tw"].extend([0, 0]), "more than consumed",
            id="windows-past-consumed",
        ),
        pytest.param(
            140, TrailingPolicy.CONSTANT,
            lambda d: d["stats"].update(count=str(d["stats"]["count"])), "stats.count",
            id="string-count",
        ),
        pytest.param(
            12, TrailingPolicy.CONSTANT,
            lambda d: d["stats"].update(count=-1), "stats.count", id="negative-count",
        ),
        pytest.param(
            140, TrailingPolicy.CONSTANT,
            lambda d: d["stats"].update(total=float("nan")), "stats.total",
            id="nan-total",
        ),
    ],
)
def test_malformed_windowed_checkpoint_is_rejected(length, trailing, edit, match):
    data = windowed_checkpoint(length, trailing)
    edit(data)
    with pytest.raises(CheckpointError, match=match):
        restore_engine(data)


# -- state and open phase must agree, in every family -------------------------


def in_phase_checkpoint(family):
    """A real checkpoint of ``family`` with a phase open."""
    if family == "windowed":
        return windowed_checkpoint(140)
    if family == "focus":
        return focus_checkpoint(40)
    if family == "newma":
        return newma_checkpoint()
    return window_checkpoint(family)


CHECKPOINT_FAMILIES = ["das_pearson", "focus", "lu_dynamo", "newma", "windowed"]


@pytest.mark.parametrize("family", CHECKPOINT_FAMILIES)
@pytest.mark.parametrize(
    "edit, match",
    [
        pytest.param(
            lambda d: d["stats"].update(count=str(d["stats"]["count"])), "stats.count",
            id="string-count",
        ),
        pytest.param(
            lambda d: d["stats"].update(count=-1), "stats.count", id="negative-count"
        ),
        pytest.param(
            lambda d: d["stats"].update(total=float("nan")), "stats.total",
            id="nan-total",
        ),
        pytest.param(
            lambda d: d.update(phases=[[0, 0, d["consumed"] + 1, 0.5]]),
            "end <= consumed", id="phase-past-consumed",
        ),
        pytest.param(
            lambda d: d.update(phases=[[1.5, 0, 4, 0.5]]), "int", id="float-start"
        ),
        pytest.param(
            lambda d: d.update(phases=[[4, 0, 2, 0.5]]), "detected < end",
            id="reversed-phase",
        ),
        pytest.param(
            lambda d: d["config"].update(
                family="newma" if d["family"] != "newma" else "focus"
            ),
            "config family", id="config-family",
        ),
    ],
)
def test_impossible_envelope_is_rejected(family, edit, match):
    """The shared envelope is checked once, for every family: each of
    these used to restore in every family."""
    data = in_phase_checkpoint(family)
    assert data["state"] == "P"
    edit(data)
    with pytest.raises(CheckpointError, match=match):
        restore_engine(data)


@pytest.mark.parametrize("family", CHECKPOINT_FAMILIES)
@pytest.mark.parametrize(
    "edit, match",
    [
        pytest.param(
            lambda d: d.update(open_phase=None), "no open phase", id="p-closed"
        ),
        pytest.param(lambda d: d.update(state="T"), "'T' has an open", id="t-open"),
        pytest.param(
            lambda d: d.update(open_phase=[d["consumed"], 0]), "consumed",
            id="future-start",
        ),
        pytest.param(
            lambda d: d.update(open_phase=[5, 6]), "corrected <= detected",
            id="late-anchor",
        ),
        pytest.param(
            lambda d: d.update(open_phase=[5, -1]), "0 <= corrected",
            id="negative-anchor",
        ),
        pytest.param(lambda d: d.update(open_phase=[5, True]), "int", id="bool-anchor"),
        pytest.param(lambda d: d.update(open_phase=5), "pair", id="scalar"),
    ],
)
def test_state_and_open_phase_must_agree(family, edit, match):
    """A "P" document without an open phase used to restore in every
    family, and ``finish`` then recorded a phase from -1; so did an open
    phase from an element never consumed."""
    data = in_phase_checkpoint(family)
    assert data["state"] == "P"
    edit(data)
    with pytest.raises(CheckpointError, match=match):
        restore_engine(data)


@pytest.mark.parametrize("family", sorted(WINDOW_CONFIGS))
def test_in_phase_before_first_window_is_rejected(family):
    """``step()`` sets the flag only on a judged window, so no engine is
    in phase before one.  Das Pearson used to accept this; Lu DYNAMO
    rejected it only through its averages count."""
    data = window_checkpoint(family, length=3)
    assert data["state"] == "T"
    data["state"] = "P"
    data["open_phase"] = [0, 0]
    data["engine"]["in_phase"] = True
    with pytest.raises(CheckpointError, match="before its first window"):
        restore_engine(data)
