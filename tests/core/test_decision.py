"""Decision-protocol conformance for every registered detector family.

The contract under test is :class:`repro.core.decision.DecisionEngine`:
whatever the family, stepping over a trace must produce consistent
decisions (enter/exit/continue transitions that match the state
stream), schema-valid observability events, a well-formed
:class:`DetectionResult`, and a checkpoint of the one schema that
restores to a bit-identical continuation.  Documents of any other
schema version are rejected.
"""

import json
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.comparators import engine_family, family_names
from repro.core.config import DetectorConfig
from repro.core.decision import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DecisionEngine,
    PhaseDecision,
    build_engine,
    restore_engine,
    validate_checkpoint,
)
from repro.core.runtime import DetectorRuntime
from repro.core.state import PhaseState
from repro.obs.bus import MemorySink
from repro.obs.events import validate_event
from repro.profiles.trace import BranchTrace


def phased_trace(total=6000, seed=5):
    """Three working-set regimes with Zipf-ish frequencies."""
    parts = []
    for offset, lo in enumerate((0, 400, 150)):
        rng = np.random.default_rng(seed + offset)
        vocab = np.arange(lo, lo + 40, dtype=np.int64)
        weights = 1.0 / np.arange(1, 41) ** 1.2
        weights /= weights.sum()
        parts.append(rng.choice(vocab, size=total // 3, p=weights))
    return BranchTrace(np.concatenate(parts).astype(np.int64), name="phased")


def family_config(name):
    """A small runnable config for ``name`` (fast windows for tests)."""
    return replace(engine_family(name).default_config(), cw_size=120)


ALL_FAMILIES = family_names()
#: Families whose engines write checkpoints under their own tag
#: (dhodapkar_smith normalizes to a windowed runtime and its tag).
CHECKPOINT_FAMILIES = ["windowed", "focus", "newma", "das_pearson", "lu_dynamo"]


def test_registry_names_and_miss():
    assert ALL_FAMILIES[0] == "windowed"
    assert set(CHECKPOINT_FAMILIES) <= set(ALL_FAMILIES)
    with pytest.raises(ValueError, match="unknown detector family"):
        engine_family("bogus")
    for name in ALL_FAMILIES:
        spec = engine_family(name)
        assert spec.name == name
        assert spec.summary and spec.statistic


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_build_engine_dispatches(name):
    engine = build_engine(family_config(name))
    assert isinstance(engine, DecisionEngine)
    if name in ("windowed", "dhodapkar_smith"):
        assert isinstance(engine, DetectorRuntime)
    else:
        assert engine.family == name


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_decision_protocol_conformance(name):
    """Step decisions, state stream, and phases must stay consistent."""
    trace = phased_trace()
    engine = build_engine(family_config(name))
    skip = engine.config.skip_factor
    elements = trace.array.tolist()
    in_phase = False
    enters = exits = 0
    for start in range(0, len(elements), skip):
        group = elements[start : start + skip]
        decision = engine.step(group)
        assert isinstance(decision, PhaseDecision)
        assert decision.state in (PhaseState.PHASE, PhaseState.TRANSITION)
        assert decision.kind in ("enter", "exit", "continue")
        if decision.entered:
            assert decision.state.is_phase()
            assert not in_phase
            enters += 1
        if decision.closed is not None:
            assert in_phase
            assert decision.closed.end <= engine.consumed
            exits += 1
        in_phase = decision.state.is_phase()
    phases = engine.finish(len(elements))
    assert engine.consumed == len(elements)
    # Every enter eventually closes (finish closes the last open one
    # in what it returns).
    assert len(phases) == enters
    assert exits in (enters, enters - 1)
    for phase in phases:
        assert 0 <= phase.corrected_start <= phase.detected_start < phase.end


@pytest.mark.parametrize(
    "name,ragged",
    [pytest.param(name, False, id=name) for name in ALL_FAMILIES]
    + [pytest.param(name, True, id=f"{name}-ragged") for name in ALL_FAMILIES],
)
def test_run_result_shape_and_events(name, ragged):
    trace = phased_trace()
    config = family_config(name)
    if ragged:
        # A skip that leaves the trace a short last group (dhodapkar_smith
        # keeps its skip = cw, which leaves one too).
        config = replace(config, skip_factor=7)
        trace = BranchTrace(trace.array[:-2], name="ragged")
    sink = MemorySink()
    engine = build_engine(config, observer=sink)
    assert bool(len(trace) % engine.config.skip_factor) == ragged
    result = engine.run(trace)
    # The default route (and the observed one) equals the reference loop.
    default = build_engine(config).run(trace)
    reference = build_engine(config).run(trace, fused=False)
    for ours in (default, result):
        assert np.array_equal(ours.states, reference.states)
        assert ours.detected_phases == reference.detected_phases
    assert result.states.dtype == bool
    assert result.states.size == len(trace)
    for event in sink.events:
        validate_event(event)
    kinds = [event["ev"] for event in sink.events]
    assert kinds[0] == "run_begin"
    assert kinds[-1] == "run_end"
    assert kinds.count("phase_enter") == len(result.detected_phases)
    assert kinds.count("phase_exit") == len(result.detected_phases)
    # Engines past warm-up must expose their statistic stream.
    assert "similarity" in kinds and "decision" in kinds


CHUNK_INVARIANCE_CASES = [
    pytest.param(name, skip, id=f"{name}-{'skip1' if skip == 1 else 'ragged'}")
    for name in ALL_FAMILIES
    for skip in (1, 3)
    # dhodapkar_smith's builder forces skip = cw, so it has no skip-1 case.
    if not (name == "dhodapkar_smith" and skip == 1)
]


@pytest.mark.parametrize("name,skip", CHUNK_INVARIANCE_CASES)
@settings(max_examples=30, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 40), st.integers(0, 3)),
        min_size=1,
        max_size=12,
    ),
    cw=st.integers(min_value=2, max_value=20),
    cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
)
def test_advance_is_chunk_invariant(name, skip, blocks, cw, cuts):
    """``advance`` over any group-aligned cuts of a stream (only the
    last chunk may end on a partial group) equals one reference
    ``run(fused=False)``: phases, result, and the final checkpoint."""
    elements = []
    for body, repeats, base in blocks:
        elements += [base * 7 + i for i in range(body)] * repeats
    config = replace(
        engine_family(name).default_config(), cw_size=cw, skip_factor=skip
    )
    reference = build_engine(config)
    skip = reference.config.skip_factor
    if skip > 1 and len(elements) % skip == 0:
        elements.append(99)  # the ragged last group
    expected = reference.run(BranchTrace(elements), fused=False)

    chunked = build_engine(config)
    bounds = sorted({min(cut * skip, len(elements)) for cut in cuts})
    start = 0
    for stop in bounds + [len(elements)]:
        chunked.advance(elements[start:stop])
        start = stop
    phases = chunked.finish(len(elements))

    assert phases == expected.detected_phases
    assert chunked.result() == expected
    assert json.dumps(chunked.checkpoint()) == json.dumps(reference.checkpoint())


@pytest.mark.parametrize("name", CHECKPOINT_FAMILIES)
def test_family_checkpoint_roundtrip_bit_identical(name):
    elements = phased_trace().array.tolist()
    config = family_config(name)
    straight = build_engine(config)
    straight.advance(elements)
    phases_a = straight.finish(len(elements))

    parked = build_engine(config)
    base = 0
    while base < len(elements):
        stop = min(base + 500, len(elements))
        parked.advance(elements[base:stop])
        blob = json.dumps(parked.checkpoint(), separators=(",", ":"))
        data = json.loads(blob)
        assert data["version"] == CHECKPOINT_VERSION
        assert data["family"] == name
        validate_checkpoint(data)
        parked = restore_engine(data)
        # The round-trip itself must be a fixed point, byte for byte.
        assert (
            json.dumps(parked.checkpoint(), separators=(",", ":")) == blob
        )
        base = stop
    phases_b = parked.finish(len(elements))
    assert phases_a == phases_b


@pytest.mark.parametrize("name", CHECKPOINT_FAMILIES)
def test_family_event_stream_unbroken_by_park(name):
    """Parked/rehydrated engines emit the uninterrupted event stream."""
    elements = phased_trace().array.tolist()
    config = family_config(name)
    sink_a = MemorySink()
    straight = build_engine(config, observer=sink_a)
    straight.advance(elements)
    straight.finish(len(elements))

    sink_b = MemorySink()
    parked = build_engine(config, observer=sink_b)
    base = 0
    while base < len(elements):
        stop = min(base + 777, len(elements))
        parked.advance(elements[base:stop])
        parked = restore_engine(
            json.loads(json.dumps(parked.checkpoint())), observer=sink_b
        )
        base = stop
    parked.finish(len(elements))
    assert sink_a.events == sink_b.events


def test_restore_rejects_wrong_family():
    config = family_config("focus")
    engine = build_engine(config)
    engine.advance([1, 2, 3, 4])
    data = engine.checkpoint()
    with pytest.raises(CheckpointError, match="family"):
        engine_family("newma").restore(data)
    data["family"] = "bogus"
    with pytest.raises(CheckpointError, match="unknown detector family"):
        restore_engine(data)


def test_windowed_runtime_rejects_family_checkpoints():
    engine = build_engine(family_config("newma"))
    engine.advance([1, 2, 3, 4])
    data = engine.checkpoint()
    with pytest.raises(CheckpointError, match="family 'newma' does not match"):
        DetectorRuntime.restore(data)


def test_restore_engine_rejects_version_1():
    """The windowed grid's former schema (no ``family`` tag, windows at
    the top level) is no longer read."""
    windowed = build_engine(DetectorConfig(cw_size=8))
    windowed.advance(list(range(40)))
    data = windowed.checkpoint()
    assert data["version"] == CHECKPOINT_VERSION == 3
    assert isinstance(restore_engine(data), DetectorRuntime)
    v1 = {key: value for key, value in data.items() if key not in ("family", "engine")}
    v1.update(data["engine"], version=1)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        restore_engine(v1)


def test_restore_engine_rejects_version_2():
    """Version 2 differs only in a stream's ``stream`` section (it held
    per-element states); it is rejected outright all the same."""
    engine = build_engine(family_config("focus"))
    engine.advance([1, 2, 3, 4])
    data = engine.checkpoint()
    data["version"] = 2
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
        restore_engine(data)


@pytest.mark.parametrize("name", CHECKPOINT_FAMILIES)
def test_finish_leaves_the_engine_as_it_was(name):
    """``finish`` closes the open phase in what it returns and emits its
    ``phase_exit``, but the engine keeps it open: the checkpoint after
    ``finish`` is the one before, and it restores as a fixed point."""
    elements = phased_trace().array.tolist()
    sink = MemorySink()
    engine = build_engine(family_config(name), observer=sink)
    skip = engine.config.skip_factor
    for start in range(0, len(elements), skip):
        engine.advance(elements[start : start + skip])
        if engine.tracker.open:
            break
    assert engine.tracker.open
    before = json.dumps(engine.checkpoint())
    sink.events.clear()
    phases = engine.finish(engine.consumed)
    assert [event["ev"] for event in sink.events] == ["phase_exit"]
    assert phases[-1].end == engine.consumed
    assert json.dumps(engine.checkpoint()) == before
    assert json.dumps(restore_engine(json.loads(before)).checkpoint()) == before
    assert engine.result().detected_phases == phases


def test_validate_checkpoint_rejects_unknown_and_untagged():
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        validate_checkpoint(
            {"format": "repro-detector-checkpoint", "version": 4}
        )
    engine = build_engine(family_config("focus"))
    data = engine.checkpoint()
    del data["family"]
    with pytest.raises(CheckpointError, match="family tag"):
        validate_checkpoint(data)


def test_build_engine_rejects_custom_components_off_grid():
    from repro.core.models import UnweightedSetModel

    config = family_config("focus")
    with pytest.raises(ValueError, match="windowed family"):
        build_engine(
            config, model=UnweightedSetModel(config.cw_size, config.cw_size)
        )


def test_dhodapkar_smith_normalizes_to_fixed_interval():
    config = replace(family_config("dhodapkar_smith"), cw_size=100)
    engine = build_engine(config)
    assert isinstance(engine, DetectorRuntime)
    assert engine.config.is_windowed
    assert engine.config.is_fixed_interval
    assert engine.config.skip_factor == 100
