"""Decision-protocol conformance for every registered detector family.

The contract under test is :class:`repro.core.decision.DecisionEngine`:
whatever the family, stepping over a trace must produce consistent
decisions (enter/exit/continue transitions that match the state
stream), schema-valid observability events, a well-formed
:class:`DetectionResult`, and a version-2 checkpoint that restores to a
bit-identical continuation.  The windowed grid keeps its version-1
schema; cross-version handling is pinned here too.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.comparators import engine_family, family_names
from repro.core.config import DetectorConfig
from repro.core.decision import (
    CHECKPOINT_VERSION,
    CHECKPOINT_VERSION_FAMILY,
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
#: Families whose engines write version-2 checkpoints (dhodapkar_smith
#: normalizes to a windowed runtime, so it stays on version 1).
V2_FAMILIES = ["focus", "newma", "das_pearson", "lu_dynamo"]


def test_registry_names_and_miss():
    assert ALL_FAMILIES[0] == "windowed"
    assert set(V2_FAMILIES) <= set(ALL_FAMILIES)
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
    # Every enter eventually closes (finish closes the last open one).
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


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_advance_flat_matches_groups(name):
    """The bank's flat skip-1 lane is bit-identical to grouped advance."""
    elements = phased_trace().array.tolist()
    config = replace(family_config(name), skip_factor=1)
    if name == "dhodapkar_smith":
        # Its builder forces skip = cw; the flat lane never applies.
        pytest.skip("dhodapkar_smith normalizes to skip = cw")
    grouped = build_engine(config)
    flat = build_engine(config)
    states_grouped = bytearray(len(elements))
    states_flat = bytearray(len(elements))
    grouped.advance([[element] for element in elements], states_grouped, 0)
    flat.advance_flat(elements, states_flat, 0)
    assert bytes(states_grouped) == bytes(states_flat)
    assert grouped.finish(len(elements)) == flat.finish(len(elements))


@pytest.mark.parametrize("name", V2_FAMILIES)
def test_family_checkpoint_roundtrip_bit_identical(name):
    elements = phased_trace().array.tolist()
    config = family_config(name)
    straight = build_engine(config)
    states_a = bytearray(len(elements))
    straight.advance_flat(elements, states_a, 0)
    phases_a = straight.finish(len(elements))

    parked = build_engine(config)
    states_b = bytearray(len(elements))
    base = 0
    while base < len(elements):
        stop = min(base + 500, len(elements))
        parked.advance_flat(elements[base:stop], states_b, base)
        blob = json.dumps(parked.checkpoint(), separators=(",", ":"))
        data = json.loads(blob)
        assert data["version"] == CHECKPOINT_VERSION_FAMILY
        assert data["family"] == name
        validate_checkpoint(data)
        parked = restore_engine(data)
        # The round-trip itself must be a fixed point, byte for byte.
        assert (
            json.dumps(parked.checkpoint(), separators=(",", ":")) == blob
        )
        base = stop
    phases_b = parked.finish(len(elements))
    assert bytes(states_a) == bytes(states_b)
    assert phases_a == phases_b


@pytest.mark.parametrize("name", V2_FAMILIES)
def test_family_event_stream_unbroken_by_park(name):
    """Parked/rehydrated engines emit the uninterrupted event stream."""
    elements = phased_trace().array.tolist()
    config = family_config(name)
    sink_a = MemorySink()
    straight = build_engine(config, observer=sink_a)
    straight.advance_flat(elements, bytearray(len(elements)), 0)
    straight.finish(len(elements))

    sink_b = MemorySink()
    parked = build_engine(config, observer=sink_b)
    states = bytearray(len(elements))
    base = 0
    while base < len(elements):
        stop = min(base + 777, len(elements))
        parked.advance_flat(elements[base:stop], states, base)
        parked = restore_engine(
            json.loads(json.dumps(parked.checkpoint())), observer=sink_b
        )
        base = stop
    parked.finish(len(elements))
    assert sink_a.events == sink_b.events


def test_restore_rejects_wrong_family():
    config = family_config("focus")
    engine = build_engine(config)
    engine.advance_flat([1, 2, 3, 4], bytearray(4), 0)
    data = engine.checkpoint()
    with pytest.raises(CheckpointError, match="family"):
        engine_family("newma").restore(data)


def test_windowed_runtime_rejects_family_checkpoints():
    engine = build_engine(family_config("newma"))
    engine.advance_flat([1, 2, 3, 4], bytearray(4), 0)
    data = engine.checkpoint()
    with pytest.raises(CheckpointError, match="windowed checkpoints"):
        DetectorRuntime.restore(data)


def test_restore_engine_handles_both_versions():
    windowed = build_engine(DetectorConfig(cw_size=8))
    windowed.advance_flat(list(range(40)), bytearray(40), 0)
    v1 = windowed.checkpoint()
    assert v1["version"] == CHECKPOINT_VERSION
    assert isinstance(restore_engine(v1), DetectorRuntime)

    focus = build_engine(family_config("focus"))
    focus.advance_flat(list(range(40)), bytearray(40), 0)
    v2 = focus.checkpoint()
    restored = restore_engine(v2)
    assert restored.family == "focus"


def test_validate_checkpoint_rejects_unknown_and_untagged():
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        validate_checkpoint(
            {"format": "repro-detector-checkpoint", "version": 3}
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
